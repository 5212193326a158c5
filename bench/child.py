"""One benchmark process: a CLI run or a batch of sandwich checks.

    python3 bench/child.py --record FILE [--spans] [--op-id N] cli ARG...
    python3 bench/child.py --record FILE [--spans] sandwich TRIALS.json RESULTS.json

``cli`` runs ``rigidity.cli.main`` on the arguments, as the ``rigidity``
command would.  ``sandwich`` reads seeded value sets, calls
``rigidity.witness.sandwich_check`` on each one in turn and writes one
result row per set, with the call's own latency and the factor that
scales it to the reference pace.  Once ``rigidity.cli`` is imported, a
``speed.Pacer`` probes the host's pace while the work runs; the probes'
time is left out of every latency.  When the work is done the process
writes a record to FILE with the time its ``import rigidity.cli`` took
and the probe times.  With ``--spans`` it also hooks the ``rigidity``
modules, keeps every span in memory and adds them to the record.  The
harness (``run.py``) starts every operation through this script, with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# a sandwich check is scaled by the pace probes this close to it
PACE_MARGIN_S = 0.25


def _run_sandwich(trials_path, results_path, rec, pacer) -> int:
    import numpy as np
    import speed

    from rigidity import witness
    from rigidity.bounds import LambdaProfile, ProblemParams
    from rigidity.sets import FinitePoints

    with open(trials_path, encoding="utf-8") as fh:
        trials = json.load(fh)
    rows, spans = [], []
    for op_id, trial in enumerate(trials):
        if rec is not None:
            rec.op_id = op_id
        params = ProblemParams(n=1, m=1, d=trial["d"])
        profile = LambdaProfile((trial["lam"],))
        values = FinitePoints(np.asarray(trial["values"]))
        t0 = time.perf_counter()
        res = witness.sandwich_check(params, profile, values)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        rows.append({
            "gamma": res.gamma,
            "witness_scale": res.witness_scale,
            "ok": bool(res.ok),
        })
    for row, (t0, t1) in zip(rows, spans):
        row["latency_s"] = t1 - t0 - pacer.spent(t0, t1)
        row["pace_factor"] = speed.factor(pacer.near(t0, t1, PACE_MARGIN_S)
                                          or pacer.took)
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--record", required=True)
    ap.add_argument("--spans", action="store_true")
    ap.add_argument("--op-id", type=int, default=0)
    ap.add_argument("mode", choices=("cli", "sandwich"))
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import rigidity.cli
    import_s = time.perf_counter() - t0

    import speed

    rec = None
    missing = []
    if args.spans:
        import spans

        import rigidity.witness  # noqa: F401  (loaded so its names can be hooked)

        rec = spans.Recorder()
        rec.op_id = args.op_id
        missing = spans.install(rec)

    pacer = speed.Pacer()
    try:
        with pacer:
            if args.mode == "cli":
                code = rigidity.cli.main(args.rest)
            else:
                code = _run_sandwich(*args.rest, rec, pacer)
    finally:
        record = {"import_s": import_s, "probes": pacer.took}
        if rec is not None:
            record.update(rec.to_json_dict(), missing=missing)
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
