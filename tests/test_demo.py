"""The scripts under ``scripts/``, each run in-process: the seven-point
demo on its defaults, the power scan and the sandwich sweep on small
arguments."""

import csv
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidity.bounds import LambdaProfile, ProblemParams, rigidity_bound
from rigidity.sets import FinitePoints

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


def test_kernel_timing_stages_sum_to_a_sandwich_check(monkeypatch, capsys):
    run_script(monkeypatch, "kernel_timing", "--stages", "--repeat", "1",
               "--sandwich-sets", "5")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["stage", "us/call", "share"]
    names = [row.split()[0] for row in rows]
    assert names == ["ends", "counts", "baseline", "solve", "report", "witness",
                     "stage", "whole"]
    times = [float(row.split()[-1 if row.startswith(("stage", "whole")) else 1])
             for row in rows]
    assert all(t > 0 for t in times)
    assert sum(times[:6]) == pytest.approx(times[6], rel=1e-3, abs=0.2)


def test_extract_timing_prints_one_row_per_stage(monkeypatch, capsys):
    run_script(monkeypatch, "extract_timing", "--repeat", "1", "--scale", "20")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["input", "stage", "best_ms"]
    stages = [tuple(row.split()[:2]) for row in rows]
    assert stages == [
        ("grid3d", "from_grid_csv"), ("grid3d", "semi_axis_field"),
        ("grid3d", "near_critical_set"), ("grid3d", "dump_json"),
        ("poly10", "semi_axis_field"), ("poly10", "near_critical_set"),
        ("poly10", "measured_derivative_scale"), ("poly10", "dump_json"),
        ("stretch2d", "semi_axis_field"), ("stretch2d", "near_critical_set"),
        ("stretch2d", "dump_json"),
    ]
    assert all(float(row.split()[2]) >= 0 for row in rows)
