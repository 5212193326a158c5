#!/usr/bin/env python3
"""Time the operations of a benchmark workload in process, stage by stage.

One pass of the workload is built with ``bench/workloads.py``; each
operation runs as ``bench/child.py`` runs it (``rigidity.cli.main`` on a CLI
step, ``witness.sandwich_check`` on each sandwich trial), ``--repeat`` times
untraced, then ``--repeat`` times with the ``STAGES`` wrapped by
``bench/spans.py`` (undone at the end).  Printed per operation: the best
untraced and traced wall times and, per stage the best traced run called,
calls, busy ms (the union of its spans) and self ms (less inner stages).

    PYTHONPATH=src python3 scripts/stage_timing.py --workload bound_large [--seed 1] [--repeat 3]
"""

import argparse
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402  (the benchmark's span recorder and hooks)
import workloads  # noqa: E402  (the benchmark's workloads)

import numpy as np  # noqa: E402

import rigidity.cli  # noqa: E402
from rigidity import bounds, sets, witness  # noqa: E402

# the timed library functions, "module.name" under ``rigidity``
STAGES = (
    "covering.plateau_ends", "covering.covering_counts", "bounds.rigidity_bound",
    "bounds.epsilon0", "bounds.solve_eta", "witness.sandwich_check", "witness.build_witness",
    "witness.witness_derivative_scale", "sets.load_descriptor",
    "critical.SampledMap.from_grid_csv", "critical.SampledMap.from_callable",
    "critical.semi_axis_field", "critical.near_critical_set",
    "critical.measured_derivative_scale", "critical.empirical_forward_check", "util.dump_json")
HOOKS = [("rigidity." + s.split(".")[0], s.split(".", 1)[1], s, None) for s in STAGES]


def operation(step):
    """(library calls, a function that makes them and returns any exit code) of a step."""
    if step.cli is not None:
        return 1, lambda: rigidity.cli.main(step.cli)
    calls = [(bounds.ProblemParams(n=1, m=1, d=t["d"]), bounds.LambdaProfile((t["lam"],)),
              sets.FinitePoints(np.asarray(t["values"])))
             for t in json.loads(step.sandwich[0].read_text())]

    def run():
        for call in calls:
            witness.sandwich_check(*call)
    return len(calls), run


def best_run(run, repeat: int, rec):
    """(best wall time of ``repeat`` runs, the recorder's op id of that run)."""
    best = (float("inf"), None)
    for _ in range(repeat):
        rec.op_id += 1
        start = time.perf_counter()
        if run():
            raise SystemExit("an operation failed; its error is printed above")
        best = min(best, (time.perf_counter() - start, rec.op_id))
    return best


def traced(runs, repeat: int):
    """The recorder and ``best_run`` of each run with the stages hooked.
    Every module and class entry the hooks replace is put back."""
    owners = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "rigidity"]
    owners += [cls for mod in owners for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__ == mod.__name__]
    saved = {owner: dict(vars(owner)) for owner in owners}
    rec = spans.Recorder()
    try:
        missing = spans.install(rec, HOOKS)
        if missing:
            raise SystemExit(f"no such library function: {', '.join(missing)}")
        return rec, [best_run(run, repeat, rec) for run in runs]
    finally:
        for owner, entries in saved.items():
            for key, value in entries.items():
                if vars(owner).get(key) is not value:
                    setattr(owner, key, value)


def stage_rows(rec, op_id: int):
    """(stage, calls, busy s, self s) of each stage called in one traced run."""
    picked = [i for i, op in enumerate(rec.op) if op == op_id]
    own = spans.self_times(vars(rec), picked)
    for stage in STAGES:
        idx = [i for i in picked if rec.names[rec.name[i]] == stage]
        if idx:
            busy = spans.union_length((rec.start[i], rec.end[i]) for i in idx)
            yield stage, len(idx), busy, sum(own[i] for i in idx)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3, help="runs per operation; the best counts")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be positive")

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        steps = workloads.WORKLOADS[args.workload][0](Path(tmp), args.seed)
        ops = [operation(step) for step in steps]
        plain = [best_run(run, args.repeat, spans.Recorder())[0] for _, run in ops]
        rec, best = traced([run for _, run in ops], args.repeat)

    print(f"{'op':<16} {'stage':<35} {'calls':>6} {'busy_ms':>10} {'self_ms':>10}")
    for step, (calls, _), wall, (traced_wall, op_id) in zip(steps, ops, plain, best):
        rows = [("untraced", calls, wall), ("traced", calls, traced_wall)]
        for row in rows + list(stage_rows(rec, op_id)):
            times = "".join(f" {1e3 * t:>10.2f}" for t in row[2:])
            print(f"{step.label:<16} {row[0]:<35} {row[1]:>6}{times}")


if __name__ == "__main__":
    main()
