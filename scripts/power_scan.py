#!/usr/bin/env python3
"""Scan power-law sequences: measured covering slopes vs the dichotomy.

For each decay exponent alpha the script measures the covering curve's
log-log slope (which should track 1/(alpha-1)), evaluates the
classification exponent at the requested smoothness order, and prints
one row per alpha.
"""

import argparse
import sys

from rigidity.bounds import classify_power_sequence
from rigidity.covering import covering_counts
from rigidity.sets import PowerSequence
from rigidity.util import fit_loglog_slope, log_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", default="-0.5,-1,-1.5,-2,-4,-8",
                    help="comma-separated decay exponents (all negative)")
    ap.add_argument("--d", type=int, default=5)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--eps-min", type=float, default=1e-5)
    ap.add_argument("--eps-max", type=float, default=1e-3)
    ap.add_argument("--points-per-decade", type=int, default=40)
    ap.add_argument("--csv", help="also write the table as CSV")
    args = ap.parse_args()

    grid = log_grid(args.eps_min, args.eps_max, args.points_per_decade)

    header = f"{'alpha':>8} {'slope':>10} {'1/(a-1)':>10} {'exponent':>10}  verdict"
    print(header)
    rows = []
    for tok in args.alphas.split(","):
        alpha = float(tok)
        counts = covering_counts(PowerSequence(alpha), grid)
        slope = fit_loglog_slope(grid, counts)
        verdict = classify_power_sequence(alpha, args.d, args.n)
        print(f"{alpha:>8.3g} {slope:>10.4f} {1 / (alpha - 1):>10.4f} "
              f"{verdict.exponent:>10.4f}  {verdict.verdict}")
        rows.append((alpha, slope, 1 / (alpha - 1), verdict.exponent, verdict.verdict))

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("alpha,measured_slope,predicted_slope,exponent,verdict\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(f"wrote {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
