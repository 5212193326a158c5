"""The scripts under ``scripts/``, each run in-process: the seven-point
demo on its defaults, and the power scan, the sandwich sweep, the kernel
timer, the cold-start timer and the stage timer on small arguments."""

import csv
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import rigidity.cli  # noqa: F401  (loaded before the stage timer's hooks are counted)
import rigidity.witness  # noqa: F401
from rigidity.bounds import LambdaProfile, ProblemParams, rigidity_bound
from rigidity.sets import FinitePoints

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BENCH = SCRIPTS.parent / "bench"


def run_script(monkeypatch, name, *argv):
    path = SCRIPTS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    module.main()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_curve_csv_holds_one_row_per_eta_curve_row(monkeypatch, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    run_script(monkeypatch, "seven_point_demo", "--curve-out", str(out))
    assert f"wrote {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,eta,product"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    for e, eta, prod in rows:
        assert prod == e * eta
    # the demo's defaults: seven points spaced 0.1 at order 5
    report = rigidity_bound(ProblemParams(n=1, m=1, d=5), LambdaProfile.zeros(1),
                            FinitePoints(np.arange(7) * 0.1))
    assert len(rows) == report.eta_curve.shape[0] > 0
    assert [[e, eta] for e, eta, _ in rows] == report.eta_curve.tolist()


def test_power_scan_prints_one_row_per_alpha(monkeypatch, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    run_script(monkeypatch, "power_scan", "--alphas=-1,-2", "--points-per-decade", "5",
               "--csv", str(out))
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2
    rows = read_rows(out)
    assert [float(row["alpha"]) for row in rows] == [-1.0, -2.0]
    for row in rows:
        # the measured slope tracks 1/(alpha - 1) on this short grid
        assert float(row["measured_slope"]) == pytest.approx(
            float(row["predicted_slope"]), rel=0.1)


def test_sandwich_sweep_holds_on_every_trial(monkeypatch, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as stop:
        run_script(monkeypatch, "sandwich_sweep", "--trials", "10", "--csv", str(out))
    assert stop.value.code == 0
    assert "trials: 10   failures: 0" in capsys.readouterr().out
    rows = read_rows(out)
    assert [int(row["trial"]) for row in rows] == list(range(10))
    assert all(row["ok"] == "True" for row in rows)


def test_kernel_timing_prints_one_row_per_input(monkeypatch, capsys):
    run_script(monkeypatch, "kernel_timing", "--repeat", "1", "--thin", "40",
               "--sandwich-sets", "3")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["input", "calls", "radii", "best_ms", "us/call", "steps"]
    labels = [row.split()[0] for row in rows]
    assert labels == ["power-0.5", "power-1", "uniform-600", "cantor-1024", "sandwich-3"]
    for row in rows:
        calls, radii, best_ms, per_call, steps = row.split()[1:]
        assert int(calls) >= 1 and int(radii) >= 1 and int(steps) >= 0
        assert float(best_ms) > 0 and float(per_call) > 0


def test_cold_start_prints_the_phases_of_each_command(monkeypatch, capsys):
    run_script(monkeypatch, "cold_start", "--runs", "1")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["command", "runs", "total_ms", "import_ms", "main_ms", "exit_ms"]
    assert [row.split()[:2] for row in rows] == [["pass", "1"], ["classify", "1"], ["bound", "1"]]
    assert rows[0].split()[3:] == ["-"] * 3
    for row in rows[1:]:
        total, *phases = map(float, row.split()[2:])
        # the stamps of the child and of the parent come from one clock
        assert all(t > 0 for t in phases) and sum(phases) < total


def wrapped_functions():
    """The ``rigidity`` module names, and the names in their classes, whose
    values carry ``__wrapped__``."""
    found = set()
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] != "rigidity":
            continue
        for key, value in vars(mod).items():
            if hasattr(value, "__wrapped__"):
                found.add(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                found.update(f"{name}.{key}.{attr}" for attr in vars(value)
                             if hasattr(getattr(value, attr), "__wrapped__"))
    return found


SANDWICH_STAGES = [
    "covering.plateau_ends", "covering.covering_counts", "bounds.rigidity_bound",
    "bounds.solve_eta", "witness.build_witness", "witness.witness_derivative_scale"]


@pytest.mark.parametrize("workload, ops", [
    # each op of the workload, in order, with stages it must have called; on
    # the sandwich batch, every hooked stage once per check
    ("sandwich_small", {"sandwich": SANDWICH_STAGES}),
    ("bound_large", {label: ["covering.covering_counts"] for label in (
        "uniform", "clustered", "clustered-lambda", "power-0.5", "power-1")}),
    ("extract_grid", {"grid3d": ["critical.SampledMap.from_grid_csv"], "poly10": [],
                      "stretch2d": [], "poly10-bound": [], "poly10-witness": []}),
], ids=["sandwich_small", "bound_large", "extract_grid"])
def test_stage_timing_times_every_op_of_a_workload(monkeypatch, capsys, workload, ops):
    # the script never checks an operation's result, so the reference gammas
    # that a workload computes for its checks (about 1 s of sandwich_small) are stubbed
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(importlib.import_module("checks"), "reference_gamma", lambda *args: 1.0)
    before = wrapped_functions()
    run_script(monkeypatch, "stage_timing", "--workload", workload, "--repeat", "1")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["op", "stage", "calls", "busy_ms", "self_ms"]
    by_op = {}
    for row in rows:
        op, stage, calls, *times = row.split()
        assert int(calls) >= 1 and all(float(t) >= 0 for t in times)
        # a wall time for the op's two runs, busy and self ms for a stage
        assert len(times) == (1 if stage in ("untraced", "traced") else 2)
        by_op.setdefault(op, {})[stage] = int(calls)
    assert list(by_op) == list(ops)
    for op, stages in ops.items():
        assert list(by_op[op])[:2] == ["untraced", "traced"]
        assert set(stages) <= set(by_op[op])
    if workload == "sandwich_small":
        # a stage the bound's tail stops calling by its module-level name
        # would read 0 in the benchmark's spans
        trials = importlib.import_module("workloads").SANDWICH_TRIALS
        assert {s: by_op["sandwich"][s] for s in SANDWICH_STAGES} == dict.fromkeys(
            SANDWICH_STAGES, trials)
        # the n = 1 closed form has no stage of its own: it is solve_eta, once per check
        assert by_op["sandwich"]["bounds.solve_eta"] == trials
    # the hooks are undone: no more library names carry __wrapped__ than
    # before (a functools.lru_cache does too)
    assert wrapped_functions() == before
