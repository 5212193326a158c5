#!/usr/bin/env python3
"""Time the stages of ``rigidity extract`` in process on the benchmark's inputs.

For each of the ``extract_grid`` workload's three extractions (the seeded
3-d grid CSV, ``poly10`` and ``stretch2d``) the script prints one row per
stage that extraction runs, with the best of ``--repeat`` wall times:
``from_grid_csv`` (grid only), ``semi_axis_field``, ``near_critical_set``
(which includes ``semi_axis_field``), ``measured_derivative_scale`` (the
``poly10 --check`` scale, n = 1 only) and ``dump_json`` of the extracted
set.  Run it from the repository root:

    PYTHONPATH=src python3 scripts/extract_timing.py [--seed 1] [--repeat 7]

Every timed call gets a new ``SampledMap`` of the same samples, so no
stage reuses the first derivative an earlier one cached; in the CLI,
``poly10 --check`` computes it once for both of its stages.
``--scale K`` divides every grid's divisions by K, for quick runs.  The
grid CSV is written to a temporary directory and removed afterwards.
"""

import argparse
import io
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (the benchmark's input generators)

import numpy as np  # noqa: E402

from rigidity.bounds import LambdaProfile  # noqa: E402
from rigidity.critical import (  # noqa: E402
    SampledMap,
    measured_derivative_scale,
    near_critical_set,
    semi_axis_field,
)
from rigidity.maps import builtin_map  # noqa: E402
from rigidity.sets import descriptor_to_json_dict  # noqa: E402
from rigidity.util import dump_json  # noqa: E402

STAGES = ("from_grid_csv", "semi_axis_field", "near_critical_set",
          "measured_derivative_scale", "dump_json")


def write_grid_csv(path: Path, seed: int, divisions: int) -> None:
    """The ``extract_grid`` workload's seeded 3-d grid CSV, as it writes it."""
    rng = np.random.default_rng([seed, 3])
    axis, field = workloads.quadratic_grid(rng, divisions)
    coords = np.meshgrid(axis, axis, axis, indexing="ij")
    rows = np.column_stack([c.ravel() for c in coords] + [field.ravel()])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="x1,x2,x3,f1", comments="")


def best_time(stage, make, repeat: int):
    """(best wall time of ``stage(make())`` over ``repeat`` runs, its last
    result); ``make`` runs outside the timed part."""
    best, result = float("inf"), None
    for _ in range(repeat):
        arg = make()
        start = time.perf_counter()
        result = stage(arg)
        best = min(best, time.perf_counter() - start)
    return best, result


def time_extraction(load, lambdas, d, repeat: int) -> dict:
    """Best times of every stage of one extraction, by stage name."""
    times = {}
    if load[0] == "grid":
        times["from_grid_csv"], sm = best_time(SampledMap.from_grid_csv, lambda: load[1], repeat)
    else:
        entry = builtin_map(load[1])
        sm = SampledMap.from_callable(entry.func, entry.n, entry.m, 1.0, load[2])

    def fresh():
        # a new map each run, with no derivative cached by an earlier stage
        return SampledMap(sm.axis, sm.values, sm.radius, sm.func)

    profile = LambdaProfile(lambdas) if lambdas else LambdaProfile.zeros(sm.m)
    times["semi_axis_field"], _ = best_time(semi_axis_field, fresh, repeat)
    times["near_critical_set"], extraction = best_time(
        lambda s: near_critical_set(s, profile), fresh, repeat)
    if d is not None:
        times["measured_derivative_scale"], _ = best_time(
            lambda s: measured_derivative_scale(s, d), fresh, repeat)
    # what ``rigidity extract`` writes, an empty set included
    payload = (descriptor_to_json_dict(extraction.descriptor) if extraction.descriptor
               else {"type": "finite", "points": []})
    times["dump_json"], _ = best_time(lambda obj: dump_json(obj, io.StringIO()),
                                      lambda: payload, repeat)
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=7, help="timed runs per stage; the best counts")
    ap.add_argument("--scale", type=int, default=1, help="divide every grid's divisions by K")
    args = ap.parse_args()
    if args.repeat < 1 or args.scale < 1:
        ap.error("--repeat and --scale must be positive")

    print(f"{'input':<10} {'stage':<26} {'best_ms':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        grid_csv = Path(tmp) / "grid.csv"
        write_grid_csv(grid_csv, args.seed, max(2, workloads.GRID_DIVISIONS // args.scale))
        runs = (
            ("grid3d", ("grid", grid_csv), (workloads.GRID_LAMBDA,), None),
            ("poly10", ("map", "poly10", max(2, workloads.POLY10_DIVISIONS // args.scale)),
             (), workloads.POLY10_D),
            ("stretch2d", ("map", "stretch2d", max(2, workloads.STRETCH_DIVISIONS // args.scale)),
             tuple(float(x) for x in workloads.STRETCH_LAMBDA), None),
        )
        for label, load, lambdas, d in runs:
            times = time_extraction(load, lambdas, d, args.repeat)
            for stage in STAGES:
                if stage in times:
                    print(f"{label:<10} {stage:<26} {1e3 * times[stage]:>10.2f}")


if __name__ == "__main__":
    main()
