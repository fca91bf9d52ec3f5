#!/usr/bin/env python3
"""Profile the central charge of the generator classes across the wall.

For a range of |q| the script evaluates, at log q on the wall height:
  * the minus-side charge of e_{delta-} from its convergent series
    (at q_- = 1/q_+), and
  * the plus-side charge of the transformed class, continued past the wall
    along the hypergeometric ODE at the rotated Chern scale,
and prints both with their relative difference.  They agree for every |q|,
which is the charge form of the wall-crossing statement.

  python scripts/charge_profile.py [--config RUN.json] [--z Z] [--q-values Q1,Q2,...]

Z is a finite nonzero real and every Q a positive finite number; other values
exit with status 2 before anything is printed.
"""

import argparse
import math
import sys

from flopwall.cli import RunConfig
from flopwall.hypergeom import NonConvergenceError, central_charge, central_charge_plus_continued
from flopwall.ktheory import fm_generator_formula, generator_e
from flopwall.numkernel import NonFiniteError, PoleError
from flopwall.suites import SERIES_ORDER
from flopwall.wallcross import PsiContext, psi_apply


def _nonzero_z(text: str) -> float:
    z = float(text)
    if not math.isfinite(z) or z == 0:
        raise argparse.ArgumentTypeError(f"z must be finite and nonzero, got {text!r}")
    return z


def _q_values(text: str) -> list:
    values = []
    for item in text.split(","):
        try:
            q = float(item)
        except ValueError:
            q = math.nan
        if not (math.isfinite(q) and q > 0):
            raise argparse.ArgumentTypeError(f"|q| must be a positive finite number, got {item!r}")
        values.append(q)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="run-config JSON (defaults to the built-in n=2, r=1 instance)")
    ap.add_argument("--z", type=_nonzero_z, default=2.0)
    ap.add_argument("--q-values", type=_q_values, default="1.5,2,3,5,8")
    args = ap.parse_args()

    rc = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = rc.flop_config()
    if cfg.r != 1:
        print("charge profile needs r = 1", file=sys.stderr)
        return 2

    height = (cfg.n - cfg.r) * math.pi
    dm = (0,)
    try:
        ctxm = PsiContext.create(cfg, "minus", z=args.z)
        ctxp = PsiContext.create(cfg, "plus", z=args.z)
        print(f"{'|q+|':>8}  {'Z_- (series)':>28}  {'Z_+ (continued)':>28}  rel_diff")
        psi_m = psi_apply(ctxm, generator_e(cfg, dm))
        psi_p = psi_apply(ctxp, fm_generator_formula(cfg, dm))
        for q in args.q_values:
            # the minus series at -w converges for |q+| > 1 only
            w = math.log(q) + 1j * height
            z_minus, = central_charge(cfg, [psi_m], -w, ctxm, order=SERIES_ORDER)
            z_plus, = central_charge_plus_continued(cfg, [psi_p], w, ctxp, order=SERIES_ORDER)
            rel = abs(z_plus - z_minus) / abs(z_minus)
            print(f"{q:8.3f}  {z_minus:28.16e}  {z_plus:28.16e}  {rel:.2e}")
    except (NonConvergenceError, NonFiniteError, PoleError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
