"""The seven-point demo script, run in-process on its defaults."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from rigidity.bounds import LambdaProfile, ProblemParams, rigidity_bound
from rigidity.sets import FinitePoints

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "seven_point_demo.py"


def run_demo(monkeypatch, *argv):
    spec = importlib.util.spec_from_file_location("seven_point_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(DEMO), *argv])
    module.main()


def test_curve_csv_holds_one_row_per_eta_curve_row(monkeypatch, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    run_demo(monkeypatch, "--curve-out", str(out))
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
