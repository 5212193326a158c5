"""The benchmark's workloads: seeded inputs, the operations of one pass, checks.

A workload's ``setup(work, seed)`` writes every input file under ``work``
from the seed and returns the steps of one pass.  A step is one process:
a ``rigidity`` CLI run, or the benchmark's sandwich batch (``child.py``)
running many checks.  After each pass, ``check`` turns the step's process
result and output files into one ``Outcome`` per operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """One operation: its latency and why it failed, if it did."""

    latency_s: float | None
    error: str | None = None
    gamma_ratio: float | None = None      # certified gamma / seed-commit gamma
    sandwich_ratio: float | None = None   # certified gamma / realizing witness scale


@dataclass
class Step:
    label: str
    cli: list[str] | None = None
    sandwich: tuple[Path, Path] | None = None
    check: Callable = field(default=None, repr=False)


def _process_error(proc) -> str | None:
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {proc.returncode}: {last[0][:300]}"
    if "Traceback" in proc.stderr:
        return "printed a traceback"
    return None


def _write_finite(path: Path, values: np.ndarray) -> None:
    path.write_text(json.dumps({"type": "finite", "points": values.tolist()}))


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _gamma_outcome(proc, report_path: Path, reference: float, scale: float | None):
    """Outcome of a ``bound`` run, checked against reference and witness."""
    error = _process_error(proc)
    if error is not None:
        return [Outcome(proc.wall_s, error)]
    try:
        gamma = _load_json(report_path)["gamma"]
    except (OSError, ValueError, KeyError) as exc:
        return [Outcome(proc.wall_s, f"unreadable report: {exc}")]
    error = checks.check_gamma(gamma, reference, scale)
    return [Outcome(
        proc.wall_s, error,
        gamma / reference if reference > 0 else None,
        gamma / scale if scale else None,
    )]


def _bound_check(report_path, values, d, lam=0.0, reference=None):
    """Check for a ``bound`` step on a finite set, or on a power sequence
    when ``values`` is None and the seed commit's ``reference`` is given."""
    if values is not None:
        reference = checks.reference_gamma(values, d, lam)
        scale = checks.witness_scale(values, d)
    else:
        scale = None
    return lambda proc: _gamma_outcome(proc, report_path, reference, scale)


def _witness_check(report_path, samples_path, values, d):
    """Check for a ``witness`` step: a sandwich check run through the CLI."""
    reference = checks.reference_gamma(values, d)
    scale = checks.witness_scale(values, d)
    header = ",".join(["x", "f"] + [f"f{j}" for j in range(1, d + 1)])

    def check(proc):
        error = _process_error(proc)
        if error is not None:
            return [Outcome(proc.wall_s, error)]
        try:
            report = _load_json(report_path)
            row = {"ok": report["ok"], "gamma": report["gamma"],
                   "witness_scale": report["witness_derivative_scale"]}
            samples = samples_path.read_text().splitlines()
        except (OSError, ValueError, KeyError) as exc:
            return [Outcome(proc.wall_s, f"unreadable sandwich report: {exc}")]
        error = checks.check_sandwich(row, reference, scale)
        if error is None and (not samples or samples[0] != header):
            error = f"witness samples do not start with the header {header!r}"
        gamma = row["gamma"]
        return [Outcome(proc.wall_s, error, gamma / reference, gamma / scale)]

    return check


def _reference(key: str) -> float:
    return _load_json(HERE / "reference.json")["cli"][key]


# ------------------------------------------------------------------ inputs


def stratified_uniform(rng, k: int) -> np.ndarray:
    """k points uniform on [0, 1], one in the middle half of each of k cells.

    Stratifying keeps the smallest gap within a factor of three of the
    mean, so the certified gamma, which is set near the smallest gap,
    and the counter work stay steady from seed to seed; independent
    uniform points have a heavy-tailed smallest gap.
    """
    return (np.arange(k) + rng.uniform(0.25, 0.75, k)) / k


def cantor_like(rng, levels: int) -> np.ndarray:
    """2**levels points of a random two-piece Cantor construction on [0, 1].

    Every interval keeps a left and a right piece of seeded length ratio
    0.28..0.36, so the set is clustered at every scale down to ~0.3**levels.
    """
    lo = np.zeros(1)
    width = np.ones(1)
    for _ in range(levels):
        left = rng.uniform(0.28, 0.36, lo.size) * width
        right = rng.uniform(0.28, 0.36, lo.size) * width
        lo = np.stack([lo, lo + width - right], axis=-1).ravel()
        width = np.stack([left, right], axis=-1).ravel()
    return np.sort(lo + 0.5 * width)


# --------------------------------------------------------------- workloads

BOUND_D = 5
BOUND_UNIFORM_POINTS = 600
BOUND_CANTOR_LEVELS = 10
BOUND_LAMBDA = 1e-3
BOUND_POWERS = (
    ("power-0.5", ["--power", "-0.5", "--d", "5", "--eps", "2e-6:0.5:200"]),
    ("power-1", ["--power", "-1", "--d", "5", "--eps", "1e-7:0.5:200"]),
)


def bound_large(work: Path, seed: int) -> list[Step]:
    # set sizes and grids make every operation take about the same time
    # (1-2 s), so the latency median and tail are not order statistics of
    # one kind of operation, which the machine's speed drift moves most
    rng = np.random.default_rng([seed, 1])
    uniform = stratified_uniform(rng, BOUND_UNIFORM_POINTS)
    clustered = cantor_like(rng, BOUND_CANTOR_LEVELS)
    _write_finite(work / "uniform.json", uniform)
    _write_finite(work / "clustered.json", clustered)
    d = str(BOUND_D)
    steps = []
    for label, set_path, values, lam in (
        ("uniform", "uniform.json", uniform, 0.0),
        ("clustered", "clustered.json", clustered, 0.0),
        ("clustered-lambda", "clustered.json", clustered, BOUND_LAMBDA),
    ):
        out = work / f"{label}.bound.json"
        args = ["bound", "--set", str(work / set_path), "--d", d, "--out", str(out)]
        if lam:
            args += ["--lambda", repr(lam)]
        steps.append(Step(label, args, check=_bound_check(out, values, BOUND_D, lam)))
    for label, args in BOUND_POWERS:
        out = work / f"{label}.bound.json"
        steps.append(Step(
            label, ["bound", *args, "--out", str(out)],
            check=_bound_check(out, None, BOUND_D, reference=_reference(" ".join(args))),
        ))
    return steps


SANDWICH_TRIALS = 300
SANDWICH_LAMBDA = 1e-3


def sandwich_trials(seed: int) -> list[dict]:
    """Small sets of d + 2 values for d = 1..5 in turn; every fourth has lambda_1 > 0."""
    rng = np.random.default_rng([seed, 2])
    trials = []
    for i in range(SANDWICH_TRIALS):
        d = 1 + i % 5
        trials.append({
            "d": d,
            "lam": SANDWICH_LAMBDA if i % 4 == 3 else 0.0,
            "values": rng.uniform(-2.0, 2.0, d + 2).tolist(),
        })
    return trials


def _sandwich_outcomes(proc, results_path: Path, trials, expected) -> list[Outcome]:
    error = _process_error(proc)
    rows = None
    if error is None:
        try:
            rows = _load_json(results_path)
        except (OSError, ValueError) as exc:
            error = f"unreadable results: {exc}"
    if rows is not None and len(rows) != len(trials):
        error = f"{len(rows)} results for {len(trials)} trials"
    elif rows is not None and any("latency_s" not in r or "pace_factor" not in r for r in rows):
        error = "results without latency_s or pace_factor"
    if error is not None:
        return [Outcome(None, error) for _ in trials]
    out = []
    for row, (reference, scale) in zip(rows, expected):
        gamma = row.get("gamma")
        out.append(Outcome(
            row["latency_s"] * row["pace_factor"],
            checks.check_sandwich(row, reference, scale),
            gamma / reference if reference > 0 and isinstance(gamma, float) else None,
            gamma / scale if isinstance(gamma, float) else None,
        ))
    return out


def sandwich_small(work: Path, seed: int) -> list[Step]:
    trials = sandwich_trials(seed)
    trials_path = work / "trials.json"
    results_path = work / "sandwich.results.json"
    trials_path.write_text(json.dumps(trials))
    expected = [
        (checks.reference_gamma(t["values"], t["d"], t["lam"]),
         checks.witness_scale(t["values"], t["d"]))
        for t in trials
    ]
    return [Step(
        "sandwich", sandwich=(trials_path, results_path),
        check=lambda proc: _sandwich_outcomes(proc, results_path, trials, expected),
    )]


GRID_DIVISIONS = 32
GRID_LAMBDA = 0.5
POLY10_DIVISIONS = 100_000
POLY10_D = 3
STRETCH_DIVISIONS = 300
STRETCH_LAMBDA = ("1", "3")


def quadratic_grid(rng, divisions: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded quadratic on the 3-d tensor grid over [-1, 1]^3.

    f(x) = sum a_i x_i**2 + b.x has one critical point, at -b / (2a),
    inside the ball; |a_i| in [0.5, 2] keeps the near-critical region a
    few hundred nodes across.
    """
    axis = np.linspace(-1.0, 1.0, 2 * divisions + 1)
    a = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
    b = rng.uniform(-0.3, 0.3, 3)
    x = np.meshgrid(axis, axis, axis, indexing="ij")
    field = sum(a[i] * x[i] ** 2 + b[i] * x[i] for i in range(3))
    return axis, field


def _extract_outcome(proc, set_path: Path, want_values=None, want_cloud=None,
                     check_csv: Path | None = None) -> list[Outcome]:
    error = _process_error(proc)
    if error is None:
        try:
            desc = _load_json(set_path)
            got = np.asarray(desc["points"], dtype=float)
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable extraction: {exc}"
    if error is None and want_values is not None:
        if got.shape != want_values.shape or not np.allclose(got, want_values, rtol=0.0,
                                                             atol=1e-10):
            error = f"extracted values {got[:6]} differ from expected {want_values[:6]}"
    if error is None and want_cloud is not None and not checks.same_cloud(got, want_cloud):
        error = f"extracted cloud of {got.shape} differs from expected {want_cloud.shape}"
    if error is None and check_csv is not None:
        try:
            rows = check_csv.read_text().splitlines()[1:]
        except OSError as exc:
            error = f"unreadable forward check: {exc}"
        else:
            if not rows or any(not row.endswith(",true") for row in rows):
                error = "forward check failed at some resolution"
    return [Outcome(proc.wall_s, error)]


def extract_grid(work: Path, seed: int) -> list[Step]:
    rng = np.random.default_rng([seed, 3])
    axis, field = quadratic_grid(rng, GRID_DIVISIONS)
    coords = np.meshgrid(axis, axis, axis, indexing="ij")
    rows = np.column_stack([c.ravel() for c in coords] + [field.ravel()])
    grid_csv = work / "grid.csv"
    np.savetxt(grid_csv, rows, fmt="%.17g", delimiter=",", header="x1,x2,x3,f1", comments="")
    want_grid = checks.grid_critical_values(axis, field, GRID_LAMBDA)
    poly10 = checks.poly10_critical_values(POLY10_DIVISIONS)
    stretch = checks.stretch_cloud(STRETCH_DIVISIONS)

    grid_prefix, poly_prefix, stretch_prefix = (work / "grid", work / "poly10", work / "stretch")
    poly_set = Path(f"{poly_prefix}.set.json")
    bound_out = work / "poly10.bound.json"
    witness_out, samples = work / "poly10.witness.json", work / "poly10.witness.csv"
    return [
        Step("grid3d", ["extract", "--grid", str(grid_csv), "--lambda", repr(GRID_LAMBDA),
                        "--out-prefix", str(grid_prefix)],
             check=lambda proc: _extract_outcome(proc, Path(f"{grid_prefix}.set.json"),
                                                 want_values=want_grid)),
        Step("poly10", ["extract", "--map", "poly10", "--check", "--d", str(POLY10_D),
                        "--divisions", str(POLY10_DIVISIONS), "--out-prefix", str(poly_prefix)],
             check=lambda proc: _extract_outcome(proc, poly_set, want_values=poly10,
                                                 check_csv=Path(f"{poly_prefix}.check.csv"))),
        Step("stretch2d", ["extract", "--map", "stretch2d", "--lambda", *STRETCH_LAMBDA,
                           "--divisions", str(STRETCH_DIVISIONS),
                           "--out-prefix", str(stretch_prefix)],
             check=lambda proc: _extract_outcome(
                 proc, Path(f"{stretch_prefix}.set.json"), want_cloud=stretch)),
        # the extracted values are certified and sandwiched, as the pipeline would
        Step("poly10-bound", ["bound", "--set", str(poly_set), "--d", str(POLY10_D),
                              "--out", str(bound_out)],
             check=_bound_check(bound_out, poly10, POLY10_D)),
        Step("poly10-witness", ["witness", "--set", str(poly_set), "--d", str(POLY10_D),
                                "--out", str(witness_out), "--samples", str(samples)],
             check=_witness_check(witness_out, samples, poly10, POLY10_D)),
    ]


# name -> (setup, seconds one pass takes on the reference host); why each
# workload exists is recorded in BENCHMARK.json.
#
# A run makes as many passes as take about --seconds, pace probes included,
# on the reference host (2 cores, Python 3.11, numpy 2.4, at the commit that
# added the benchmark).
# The count depends on --seconds alone, so every commit measures the same
# operations and a latency percentile keeps the same rank.  Each pass of a
# CLI workload has an odd number of operation kinds, so the median falls
# inside one kind rather than in the gap between two.
WORKLOADS = {
    "bound_large": (bound_large, 7.7),
    "sandwich_small": (sandwich_small, 9.5),
    "extract_grid": (extract_grid, 5.1),
}
