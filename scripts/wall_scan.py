#!/usr/bin/env python3
"""Scan the Mellin-Barnes value of the plus-side series along the
continuation path and compare with whichever series representation
converges at each point.

Writes one CSV row per (path point, fixed point):
    re_w, im_w, fixed_point, barnes_re, barnes_im, reference_re, reference_im, rel_err

The reference is the plus series for Re w < 0 and the transferred sum of
minus series for Re w > 0; near Re w = 0 no series converges fast enough
and the reference columns are left empty.
"""

import argparse
import csv
import math
import sys

from flopwall.cli import RunConfig
from flopwall.hypergeom import PathSpec, barnes_integrate, h_series
from flopwall.suites import SERIES_ORDER
from flopwall.wallcross import transition_matrix


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="run-config JSON (defaults to the built-in n=2, r=1 instance)")
    ap.add_argument("--out", default="wall_scan.csv")
    args = ap.parse_args()

    rc = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = rc.flop_config()
    if cfg.r != 1:
        print("wall scan needs r = 1", file=sys.stderr)
        return 2

    n = cfg.n
    path = PathSpec.standard(cfg)
    plus = [h_series(cfg, "plus", (l,), SERIES_ORDER) for l in range(n)]
    minus = [h_series(cfg, "minus", (k,), SERIES_ORDER) for k in range(n)]
    transfer = transition_matrix(cfg, "C").entries  # transfer[k][l] = C((k,), (l,))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["re_w", "im_w", "fixed_point", "barnes_re", "barnes_im",
             "reference_re", "reference_im", "rel_err"]
        )
        for w in path.points:
            margin = min(
                w.imag - (n - 2) * math.pi,
                n * math.pi - w.imag,
            )
            if margin < 0.05:
                continue  # outside the contour's convergence strip
            for l in range(n):
                val = barnes_integrate(w, cfg, l, tol=1e-10)
                if w.real < -0.5:
                    ref = plus[l].eval(w)
                elif w.real > 0.5:
                    ref = sum(transfer[k][l] * minus[k].eval(-w) for k in range(n))
                else:
                    ref = None
                if ref is None:
                    writer.writerow([w.real, w.imag, l + 1, val.real, val.imag, "", "", ""])
                else:
                    rel = abs(val - ref) / max(1e-300, abs(ref))
                    writer.writerow(
                        [w.real, w.imag, l + 1, val.real, val.imag, ref.real, ref.imag, f"{rel:.3e}"]
                    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
