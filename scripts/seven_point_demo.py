#!/usr/bin/env python3
"""Walk the seven-point staircase example end to end.

Seven equally spaced values with spacing 0.1 at smoothness order 5:
the count boundary lands at half the spacing, the closed form gives
(7/6)^5 * 0.05, and the grid scan recovers it to solver precision.
The explicit witness then realizes the same set, sandwiching the
certified scale from above.
"""

import argparse

import numpy as np

from rigidity.bounds import LambdaProfile, ProblemParams, rigidity_bound
from rigidity.covering import covering_counts
from rigidity.sets import FinitePoints
from rigidity.witness import sandwich_check


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spacing", type=float, default=0.1)
    ap.add_argument("--count", type=int, default=7)
    ap.add_argument("--d", type=int, default=5)
    ap.add_argument("--curve-out", help="write the eta curve CSV here")
    args = ap.parse_args()

    points = np.arange(args.count) * args.spacing
    s = FinitePoints(points)
    p = ProblemParams(n=1, m=1, d=args.d)
    profile = LambdaProfile.zeros(1)

    print(f"values: {points.tolist()}")
    print(f"params: n=1 m=1 d={p.d} r={p.r} c={p.c}")
    print()
    print("covering counts around the boundary:")
    radii = [args.spacing, args.spacing / 2 * 1.001, args.spacing / 2,
             args.spacing / 2 * 0.999, args.spacing / 4]
    for eps, count in zip(radii, covering_counts(s, radii).tolist()):
        print(f"  eps={eps:<12.6g} count={count}")

    report = rigidity_bound(p, profile, s)
    print()
    print(f"epsilon0          = {report.epsilon0!r}")
    print(f"gamma closed form = {report.gamma_closed_form!r}")
    print(f"gamma (scan)      = {report.gamma!r}")
    rel = abs(report.gamma - report.gamma_closed_form) / report.gamma_closed_form
    print(f"relative gap      = {rel:.3e}")

    res = sandwich_check(p, profile, s)
    print()
    print(f"witness derivative scale = {res.witness_scale!r}")
    print(f"certified <= realized    : {res.ok}")

    if args.curve_out:
        rows = [f"{e!r},{eta!r},{e * eta!r}" for e, eta in report.eta_curve.tolist()]
        with open(args.curve_out, "w") as fh:
            fh.write("\n".join(["epsilon,eta,product"] + rows) + "\n")
        print(f"wrote {args.curve_out}")


if __name__ == "__main__":
    main()
