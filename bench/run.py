#!/usr/bin/env python3
"""Seeded benchmark of the ``rigidity`` CLI and library, end to end and per layer.

    python3 bench/run.py --workload bound_large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, seed 0, untraced

Run it from the repository root.  Each workload writes its inputs from
``--seed``, then repeats passes over a fixed list of operations, as many
as take about ``--seconds`` on the reference host.  Every
operation runs in a fresh process started from this one, one at a time, with
``RIGIDITY_THREADS`` removed from the environment, and every output is
checked (see ``workloads.py`` and ``checks.py``).

Every operation starts through ``child.py``, which records how long its
``import rigidity.cli`` took; ``ops_per_s`` leaves those imports out.
The harness and its processes run on one CPU, and probes of the host's
pace (``speed.py``) run between processes and, every 50 ms, inside the
processes ``child.py`` starts: every time reported is scaled to the
reference pace, so that the host's speed phases do not show.  The
unscaled times and the scale factors go into the record of the run.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose processes record spans around the
``rigidity`` modules (``spans.py``) and reports the per-layer metrics of
``layers.py``, plus the tracing overhead.  ``--seconds`` sets the number of
passes (see ``workloads.WORKLOADS``).  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run, with metadata, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# end-to-end metrics: name -> unit
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "sandwich_worst_ratio": "ratio",
    "gamma_ratio_min": "ratio",
}
OVERHEAD = "trace.overhead_ratio"

SETUP_IMPORTS = 15
PROCESS_TIMEOUT_S = 120.0
# no pass starts after this many times --seconds, so that a slow host
# cannot stretch a run past its time limit
DEADLINE_FACTOR = 1.3


@dataclass
class Proc:
    returncode: int
    start: float
    end: float
    raw_cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    # the factor that scales the process to the reference pace, from the
    # probes around and inside it, and the time the probes inside it took
    # (see speed.py); set once the process has ended
    pace_factor: float = 1.0
    probe_total_s: float = 0.0

    @property
    def raw_wall_s(self) -> float:
        return self.end - self.start

    @property
    def wall_s(self) -> float:
        """Start to exit at the reference pace, probes inside it left out."""
        return (self.raw_wall_s - self.probe_total_s) * self.pace_factor

    @property
    def cpu_s(self) -> float:
        """User+sys time at the reference pace, probes inside it left out."""
        return (self.raw_cpu_s - self.probe_total_s) * self.pace_factor


def child_env() -> dict:
    env = dict(os.environ)
    # an inherited value would switch on the program's thread pool
    env.pop("RIGIDITY_THREADS", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_process(argv, cwd: Path, log_stem: Path) -> Proc:
    """Run one process to completion and collect its own resource usage."""
    out_path, err_path = Path(f"{log_stem}.out"), Path(f"{log_stem}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            end = time.perf_counter()
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode, start, end, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
    )


def measure_setup(work: Path) -> list[float]:
    """Wall times of fresh processes that import ``rigidity.cli`` and exit,
    at the reference pace."""
    times = []
    before = speed.bracket()
    for i in range(SETUP_IMPORTS):
        proc = run_process([sys.executable, "-c", "import rigidity.cli"], work,
                           work / f"import{i}")
        if proc.returncode != 0:
            raise SystemExit(f"error: cannot import rigidity.cli from {SRC}:\n{proc.stderr}")
        after = speed.bracket()
        proc.pace_factor = speed.factor(before + after)
        times.append(proc.wall_s)
        before = after
    return times


@dataclass
class Pass:
    traced: bool
    procs: list
    outcomes: list
    records: list

    @property
    def wall_s(self) -> float:
        # the probes between processes are not part of the pass
        return sum(p.wall_s for p in self.procs)

    @property
    def import_s(self) -> float:
        return sum(r.get("import_s", 0.0) * p.pace_factor
                   for p, r in zip(self.procs, self.records))

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)


def run_pass(steps, work: Path, index: int, traced: bool) -> Pass:
    procs, records = [], []
    before = speed.bracket()
    for op_id, step in enumerate(steps):
        stem = work / f"pass{index}-op{op_id}"
        record_path = Path(f"{stem}.record.json")
        argv = [sys.executable, str(BENCH / "child.py"), "--record", str(record_path)]
        if traced:
            argv += ["--spans", "--op-id", str(op_id)]
        if step.sandwich is not None:
            argv += ["sandwich", *map(str, step.sandwich)]
        else:
            argv += ["cli", *step.cli]
        proc = run_process(argv, work, stem)
        after = speed.bracket()
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        inner = record.get("probes", [])
        proc.pace_factor = speed.factor(before + inner + after)
        proc.probe_total_s = sum(inner)
        procs.append(proc)
        records.append(record)
        before = after
    # checks run after the pass so that they are not part of its wall time
    outcomes = []
    for step, proc in zip(steps, procs):
        for outcome in step.check(proc):
            if outcome.error is not None:
                outcome.error = f"{step.label}: {outcome.error}"
            outcomes.append(outcome)
    return Pass(traced, procs, outcomes, records)


def tail_rank(n: int) -> int:
    """1-based rank of the tail latency among n sorted samples.

    The highest rank with at least 10 samples above it, but never below
    the 90th percentile: with fewer than 100 samples that floor leaves
    fewer than 10 above it, which the report states.
    """
    return max(n - 10, math.ceil(0.9 * n), 1)


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    timed = [p for p in passes if not p.traced]
    ok_latencies = [o.latency_s for p in timed for o in p.outcomes
                    if o.error is None and o.latency_s is not None]
    completed = sum(1 for p in timed for o in p.outcomes if o.error is None)
    outcomes = [o for p in passes for o in p.outcomes]
    gamma_ratios = [o.gamma_ratio for o in outcomes if o.gamma_ratio is not None]
    sandwich_ratios = [o.sandwich_ratio for o in outcomes if o.sandwich_ratio is not None]
    lat = np.sort(ok_latencies) * 1e3
    rank = tail_rank(lat.size)
    values = {
        "wall_s": statistics.median(p.wall_s for p in timed),
        "cpu_s": statistics.median(p.cpu_s for p in timed),
        "setup_s": statistics.median(setup),
        "ops_per_s": completed / sum(p.wall_s - p.import_s for p in timed),
        "op_p50_ms": float(np.percentile(lat, 50)) if lat.size else math.nan,
        "op_tail_ms": float(lat[rank - 1]) if lat.size else math.nan,
        "peak_rss_mb": max(proc.rss_mb for p in timed for proc in p.procs),
        "sandwich_worst_ratio": max(sandwich_ratios) if sandwich_ratios else math.nan,
        "gamma_ratio_min": min(gamma_ratios) if gamma_ratios else math.nan,
    }
    notes = {
        "wall_s": f"sum of process walls per pass, median of {len(timed)} passes",
        "cpu_s": f"user+sys per pass, median of {len(timed)}",
        "setup_s": f"median of {len(setup)} cold imports",
        "ops_per_s": "each process's own import rigidity.cli left out",
        "op_p50_ms": f"n={lat.size}",
        "op_tail_ms": f"p{100 * rank / max(lat.size, 1):.3g} of n={lat.size}, "
                      f"{lat.size - rank} above",
        "sandwich_worst_ratio": f"max of {len(sandwich_ratios)} certified/realized",
        "gamma_ratio_min": f"min of {len(gamma_ratios)} gamma/seed-commit gamma",
    }
    return values, notes


def _at_reference_pace(record: dict, factor: float) -> dict:
    """A process's record with its span times and import time scaled."""
    out = dict(record, import_s=record["import_s"] * factor)
    for key in ("start", "end"):
        if key in record:
            out[key] = [t * factor for t in record[key]]
    return out


def per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    per_pass = [
        layers.layer_metrics([_at_reference_pace(r, proc.pace_factor)
                              for proc, r in zip(p.procs, p.records) if r])
        for p in traced
    ]
    values = {}
    for name in layers.METRICS:
        got = [m[name] for m in per_pass]
        values[name] = None if any(v is None for v in got) else statistics.median(got)
    untraced = statistics.median(p.wall_s for p in passes if not p.traced)
    values[OVERHEAD] = statistics.median(p.wall_s for p in traced) / untraced
    notes = {name: f"moves {spec[3]}" for name, spec in layers.METRICS.items()}
    notes[OVERHEAD] = "traced wall_s / untraced wall_s"
    return values, notes


def metadata() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "probe_reference_s": speed.REFERENCE_S,
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_fn, pass_s = workloads.WORKLOADS[name]
    n_passes = max(2, round(seconds / pass_s))
    work = ROOT / ".bench_run" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    try:
        setup = measure_setup(work)
        steps = setup_fn(work, seed)
        passes = []
        for i in range(n_passes):
            if len(passes) >= 2 and time.perf_counter() > deadline:
                break
            # a traced run alternates untraced and traced passes
            passes.append(run_pass(steps, work, i, trace and i % 2 == 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.error is not None]
    if trace:
        values, notes = per_layer(passes)
        units = {name: spec[0] for name, spec in layers.METRICS.items()}
        units[OVERHEAD] = "ratio"
    else:
        values, notes = end_to_end(passes, setup)
        units = END_TO_END
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "passes": len(passes), "attempted": len(outcomes), "failed": len(failed),
        "errors": sorted({o.error for o in failed})[:10],
        "pass_walls": [[p.traced, p.wall_s,
                        [[proc.wall_s, proc.raw_wall_s, proc.pace_factor] for proc in p.procs]]
                       for p in passes],
        "values": values, "units": units, "notes": notes,
    }


def report(res: dict, why: str) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"passes {res['passes']}  operations {res['attempted']}")
    print(f"  why: {why}")
    for name, value in res["values"].items():
        unit = res["units"][name]
        shown = "missing (hooked name not found)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:32s} {shown:24s} {res['notes'].get(name, '')}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':32s} {ratio:<24.6g} {res['failed']}/{res['attempted']} failed")
    for err in res["errors"]:
        print(f"  failure: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rigidity" / "cli.py").is_file():
        print(f"error: no rigidity sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # the harness and every process it starts share one CPU, so that a
        # probe measures the pace of the CPU the program runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    meta = metadata()
    print("meta: " + json.dumps(meta, sort_keys=True))
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for res in results:
        report(res, whys[res["workload"]])

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "results": results}, indent=1))

    def metric_key(res, name):
        return name if len(results) == 1 else f"{res['workload']}/{name}"

    summary = {
        "correct": all(res["failed"] == 0 for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": {
            metric_key(res, name): {"value": value, "unit": res["units"][name]}
            for res in results for name, value in res["values"].items()
            if value is not None and math.isfinite(value)
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
