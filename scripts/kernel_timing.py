#!/usr/bin/env python3
"""Time the covering kernels in process on the benchmark's seeded inputs.

For each input the script prints the best of ``--repeat`` wall times of
``covering_counts`` over the input's grid, and the number of lockstep
steps the kernel took: the power sequences of ``bound_large`` on their
``--eps`` grids, its uniform-600 and Cantor-1024 sets on their default
grids and the ``sandwich_small`` sets on their plateau ends (the last
float of each plateau of the count), which the bound scans instead of a
grid for sets that small.  Run it from the repository root:

    PYTHONPATH=src python3 scripts/kernel_timing.py [--seed 1] [--repeat 7]

Steps are counted in a separate, traced run, so the tracing does not
reach the timings.  ``--thin K`` keeps every K-th radius of each kernel
grid and ``--sandwich-sets N`` the first N sandwich sets, for quick runs.
``scripts/stage_timing.py`` times the stages around the kernels.
"""

import argparse
import inspect
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (the benchmark's input generators)

import numpy as np  # noqa: E402

from rigidity import covering  # noqa: E402
from rigidity.covering import covering_counts, default_grid, plateau_ends  # noqa: E402
from rigidity.sets import FinitePoints, PowerSequence  # noqa: E402
from rigidity.util import log_grid  # noqa: E402

# the line each lockstep step of a kernel runs once: its vectorised guess
# of every live sweep's next anchor
STEP_LINES = {
    "_power_counts": "log_m = np.log(t) / alpha",
    "_sweep_counts": "pos = np.searchsorted(pts, reach := anchor + te",
}


def inputs(seed: int, thin: int, sandwich_sets: int) -> list:
    """(label, [(descriptor, grid), ...]) for every timed input."""
    rows = []
    for label, args in workloads.BOUND_POWERS:
        lo, hi, ppd = args[args.index("--eps") + 1].split(":")
        grid = log_grid(float(lo), float(hi), int(ppd))[::thin]
        alpha = float(args[args.index("--power") + 1])
        rows.append((label, [(PowerSequence(alpha), grid)]))
    rng = np.random.default_rng([seed, 1])
    for label, values in (
        ("uniform-600", workloads.stratified_uniform(rng, workloads.BOUND_UNIFORM_POINTS)),
        ("cantor-1024", workloads.cantor_like(rng, workloads.BOUND_CANTOR_LEVELS)),
    ):
        s = FinitePoints(values)
        rows.append((label, [(s, default_grid(s)[::thin])]))
    sets = [FinitePoints(t["values"]) for t in workloads.sandwich_trials(seed)[:sandwich_sets]]
    rows.append((f"sandwich-{len(sets)}", [(s, plateau_ends(s)[::thin]) for s in sets]))
    return rows


def best_time(calls, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for s, grid in calls:
            covering_counts(s, grid)
        best = min(best, time.perf_counter() - start)
    return best


def lockstep_steps(calls) -> int:
    """Lockstep steps of the power and finite kernels over the calls,
    counted as executions of their ``STEP_LINES``."""
    kernels = {}
    for name, marker in STEP_LINES.items():
        lines, first = inspect.getsourcelines(getattr(covering, name))
        offset = next((i for i, text in enumerate(lines) if marker in text), None)
        if offset is None:
            raise SystemExit(f"covering.{name} has no line {marker!r}; update STEP_LINES")
        kernels[getattr(covering, name).__code__] = first + offset
    hits = 0

    def local(frame, event, arg):
        nonlocal hits
        if event == "line" and frame.f_lineno == kernels[frame.f_code]:
            hits += 1
        return local

    def enter(frame, event, arg):
        return local if frame.f_code in kernels else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        for s, grid in calls:
            covering_counts(s, grid)
    finally:
        sys.settrace(previous)
    return hits


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=7, help="timed runs per input; the best counts")
    ap.add_argument("--thin", type=int, default=1, help="keep every K-th grid radius")
    ap.add_argument("--sandwich-sets", type=int, default=workloads.SANDWICH_TRIALS)
    args = ap.parse_args()
    if args.repeat < 1 or args.thin < 1 or args.sandwich_sets < 1:
        ap.error("--repeat, --thin and --sandwich-sets must be positive")

    print(f"{'input':<14} {'calls':>6} {'radii':>7} {'best_ms':>10} {'us/call':>10} {'steps':>7}")
    for label, calls in inputs(args.seed, args.thin, args.sandwich_sets):
        best = best_time(calls, args.repeat)
        radii = sum(grid.size for _, grid in calls)
        print(f"{label:<14} {len(calls):>6} {radii:>7} {1e3 * best:>10.2f} "
              f"{1e6 * best / len(calls):>10.1f} {lockstep_steps(calls):>7}")


if __name__ == "__main__":
    main()
