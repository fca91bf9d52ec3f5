"""Torus-equivariant wall crossing for Grassmann flops.

Fixed-point geometry of the two GIT quotients, the K-theoretic
Fourier-Mukai transfer, the Gamma-class integral structure, truncated
hypergeometric series, and their Mellin-Barnes continuation across the
wall, together with the verification suites tying them together.
"""

from .flopgeom import FlopConfig, FixedPointLabel
from .numkernel import MultiPoly, PoleError

__all__ = [
    "FlopConfig",
    "FixedPointLabel",
    "MultiPoly",
    "PoleError",
]

__version__ = "0.1.0"
