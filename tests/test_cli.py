"""End-to-end tests of the command-line interface.

Every test drives ``main`` in-process and inspects exit codes, emitted
files, and the stdout/stderr contract (machine-readable results on
stdout, warnings and errors on stderr).
"""

import contextlib
import io
import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import rigidity
from rigidity.cli import main
from rigidity.critical import SampledMap
from rigidity.maps import builtin_map

from oracles import grid_csv_text

SEVEN = {"type": "finite", "points": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]}
GAMMA7 = (7.0 / 6.0) ** 5 * 0.05


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_set(tmp_path, payload, name="set.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCover:
    def test_finite_set_curve(self, tmp_path, capsys):
        code = main([
            "cover", "--set", json.dumps({"type": "finite", "points": [0.0, 1.0]}),
            "--eps", "0.4:0.6:5", "--out", "curve.csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote curve.csv" in out
        lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
        assert lines[0] == "epsilon,count"
        rows = {float(e): int(c) for e, c in (ln.split(",") for ln in lines[1:])}
        assert rows[0.4] == 2
        assert max(rows) >= 0.5 and rows[max(rows)] == 1

    def test_power_sequence_slope_footer(self, capsys):
        code = main([
            "cover", "--power", "-1", "--eps", "1e-4:1e-2:10", "--out", "p.csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        slope_lines = [ln for ln in out.split("\n") if "slope" in ln]
        assert len(slope_lines) == 1
        slope = float(slope_lines[0].rsplit(" ", 1)[1])
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestBound:
    def test_seven_point_report(self, tmp_path, capsys):
        set_path = write_set(tmp_path, SEVEN)
        code = main(["bound", "--set", set_path, "--d", "5", "--out", "report.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma = " in out and "epsilon0 = " in out
        blob = json.loads((tmp_path / "report.json").read_text())
        assert blob["gamma"] == pytest.approx(GAMMA7, rel=1e-6)
        assert blob["epsilon0"] == pytest.approx(0.05, rel=1e-9)
        assert blob["params"]["c"] == 6.0
        assert blob["params"]["lambdas"] == [0.0]

    def test_vacuous_bound_warns_on_stderr(self, tmp_path, capsys):
        set_path = write_set(tmp_path, {"type": "finite", "points": [0.0, 1.0]})
        code = main(["bound", "--set", set_path, "--d", "2", "--out", "r.json"])
        assert code == 0
        captured = capsys.readouterr()
        assert "E empty" in captured.err
        assert json.loads((tmp_path / "r.json").read_text())["gamma"] == 0.0

    def test_power_set_bound(self, tmp_path):
        code = main([
            "bound", "--power", "-1", "--d", "3",
            "--eps", "1e-3:0.4:20", "--out", "pw.json",
        ])
        assert code == 0
        assert json.loads((tmp_path / "pw.json").read_text())["gamma"] > 0

    def test_requires_a_set(self, capsys):
        code = main(["bound", "--d", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--set" in err and "--power" in err

    def test_constant_below_an_ulp_of_one_still_scans(self, tmp_path, capsys):
        # c + 1 rounds to 1: no epsilon0, but the scan certifies
        points = json.dumps({"type": "finite", "points": [0, 0.1, 0.2, 0.3]})
        code = main(["bound", "--set", points, "--n", "2", "--c", "1e-300", "--d", "1",
                     "--eps", "1e-3:1:3", "--out", "r.json"])
        assert code == 0
        blob = json.loads((tmp_path / "r.json").read_text())
        assert blob["epsilon0"] is None
        assert 0.0 < blob["gamma"] < float("inf")
        assert capsys.readouterr().err == ""

    def test_subnormal_constant_exits_3_quietly(self, capsys):
        # count / c overflows, so no finite ratio can be certified
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["bound", "--power", "-1", "--n", "2", "--c", "1e-310", "--d", "1",
                         "--lambda", "0.5", "--eps", "1e-3:0.4:3", "--out", "r.json"])
        assert code == 3
        assert capsys.readouterr().err == "error: count / c overflows the float range at c = 1e-310\n"

    def test_threshold_count_mismatch(self, tmp_path):
        set_path = write_set(tmp_path, SEVEN)
        code = main(["bound", "--set", set_path, "--d", "5", "--lambda", "0", "0.1"])
        assert code == 3


class TestClassify:
    def test_not_excluded(self, capsys):
        code = main(["classify", "--alpha", "-3", "--d", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "NotExcludedByThisBound, exponent 0.75"
        )

    def test_excluded(self, capsys):
        code = main(["classify", "--alpha", "-1", "--d", "5"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Excluded, exponent -1.5"

    def test_higher_dimensions_need_no_constant(self, capsys):
        code = main(["classify", "--alpha", "-1", "--n", "2", "--d", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "NotExcludedByThisBound, exponent 0.25"

    def test_takes_no_constant(self):
        assert main(["classify", "--alpha", "-1", "--d", "5", "--c", "5"]) == 2

    def test_bad_alpha_is_a_parameter_error(self):
        assert main(["classify", "--alpha", "0.5", "--d", "1"]) == 3

    def test_requires_alpha(self, capsys):
        assert main(["classify", "--d", "5"]) == 2
        assert "--alpha" in capsys.readouterr().err


class TestWitness:
    def test_seven_point_sandwich(self, tmp_path, capsys):
        set_path = write_set(tmp_path, SEVEN)
        code = main([
            "witness", "--set", set_path, "--d", "5",
            "--out", "sw.json", "--samples", "sw.csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok = True" in out
        blob = json.loads((tmp_path / "sw.json").read_text())
        assert blob["ok"] is True
        assert blob["gamma"] == pytest.approx(GAMMA7, rel=1e-6)
        assert blob["witness_derivative_scale"] > blob["gamma"]
        header = (tmp_path / "sw.csv").read_text().split("\n", 1)[0]
        assert header == "x,f,f1,f2,f3,f4,f5"

    def test_single_value_is_trivially_consistent(self, tmp_path, capsys):
        set_path = write_set(tmp_path, {"type": "finite", "points": [0.3]})
        code = main(["witness", "--set", set_path, "--d", "2", "--out", "one.json"])
        assert code == 0
        assert "gamma = 0.0" in capsys.readouterr().out

    def test_falsification_exits_4(self, tmp_path, capsys, monkeypatch):
        # force the witness measurement to lie so the sandwich must fail
        monkeypatch.setattr(
            "rigidity.witness.witness_derivative_scale",
            lambda w: 0.0,
        )
        set_path = write_set(tmp_path, SEVEN)
        code = main(["witness", "--set", set_path, "--d", "5", "--out", "bad.json"])
        assert code == 4
        captured = capsys.readouterr()
        assert "falsifies" in captured.err
        assert json.loads((tmp_path / "bad.json").read_text())["ok"] is False

    def test_high_order_witness_is_continuous(self, tmp_path, capsys):
        points = {"type": "finite", "points": [float(v) for v in range(17)]}
        code = main(["witness", "--set", json.dumps(points), "--d", "15",
                     "--out", "w15.json", "--samples", "w15.csv"])
        assert code == 0
        assert capsys.readouterr().err == ""
        f = np.loadtxt(tmp_path / "w15.csv", delimiter=",", skiprows=1, usecols=1)
        assert np.max(np.abs(np.diff(f))) < 0.1

    @pytest.mark.parametrize("radius", ["1e70", "1e-70"])
    def test_extreme_radius_keeps_the_unit_radius_scale(self, capsys, radius):
        points = json.dumps({"type": "finite", "points": [0, 0.1, 0.2, 0.3]})
        argv = ["witness", "--set", points, "--d", "5", "--eps", "1e-3:1:3", "--out", "w.json"]
        assert main(argv) == 0
        scale = json.loads(Path("w.json").read_text())["witness_derivative_scale"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--r", radius]) == 0
        assert capsys.readouterr().err == ""
        wide = json.loads(Path("w.json").read_text())["witness_derivative_scale"]
        assert wide == pytest.approx(scale, rel=1e-12)

    def test_overflowing_samples_exit_3(self, capsys):
        # at r = 1e-70 the fifth derivative reaches 1e350
        points = json.dumps({"type": "finite", "points": [0, 0.1, 0.2, 0.3]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["witness", "--set", points, "--d", "5", "--r", "1e-70",
                         "--eps", "1e-3:1:3", "--out", "w.json", "--samples", "w.csv"])
        assert code == 3
        assert capsys.readouterr().err == "error: witness derivative samples overflow at radius 1e-70\n"
        assert not Path("w.csv").exists() and not Path("w.json").exists()

    def test_unwritable_samples_leave_no_report(self, tmp_path, capsys):
        # the samples land inside the report's write: both files or neither
        points = json.dumps({"type": "finite", "points": [0, 0.1, 0.2, 0.3]})
        code = main(["witness", "--set", points, "--d", "3",
                     "--out", "w.json", "--samples", "nodir/w.csv"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: [Errno 2] No such file or directory: 'nodir/w.csv'\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_report_leaves_no_samples(self, tmp_path, capsys):
        code = main(["witness", "--set", json.dumps(SEVEN), "--d", "3",
                     "--out", "nodir/w.json", "--samples", "w.csv"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: 'nodir/w.json'\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_that_fails_to_land_takes_the_samples_with_it(self, tmp_path, capsys):
        # a report that cannot land is refused before the samples are written
        (tmp_path / "out").mkdir()
        code = main(["witness", "--set", json.dumps(SEVEN), "--d", "3",
                     "--out", "out", "--samples", "w.csv"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: [Errno 21] Is a directory: 'out'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_report_that_cannot_land_keeps_an_older_samples_file(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "w.csv").write_text("old")
        code = main(["witness", "--set", json.dumps(SEVEN), "--d", "3",
                     "--out", "out", "--samples", "w.csv"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: [Errno 21] Is a directory: 'out'\n"
        assert (tmp_path / "w.csv").read_text() == "old"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("samples", ["same.json", "./same.json", "sub/../same.json"])
    def test_one_path_for_both_files_writes_nothing(self, tmp_path, capsys, samples):
        (tmp_path / "sub").mkdir()
        code = main(["witness", "--set", json.dumps(SEVEN), "--d", "3",
                     "--out", "same.json", "--samples", samples])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: --out and --samples name the same file {samples!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize("source", [["--power", "-1"],
                                        ["--set", '{"type":"power","alpha":-1,"count":50}']],
                             ids=["power", "power-with-count"])
    def test_power_sequence_is_refused(self, tmp_path, capsys, source):
        # no staircase realizes an infinite sequence; classify says none of
        # C^3 does for alpha = -1
        assert main(["witness", *source, "--d", "3", "--out", "w.json"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points, radius", [([0.5], 1e308), ([0, 1], 1e308), ([0.5], 5e-324)])
    def test_samples_span_the_domain_at_extreme_radii(self, capsys, points, radius):
        # past half the float range the span 2r overflows, but neither the
        # layout nor the samples need it; at the least subnormal radius the
        # half span is not a float
        argv = ["witness", "--set", json.dumps({"type": "finite", "points": points}),
                "--d", "2", "--r", repr(radius), "--out", "w.json", "--samples", "w.csv"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        xs = np.loadtxt("w.csv", delimiter=",", skiprows=1, usecols=0)
        assert (xs[0], xs[-1]) == (-radius, radius) and np.all(np.diff(xs) >= 0)
        pieces = json.loads(Path("w.json").read_text())["witness"]["pieces"]
        assert (pieces[0]["lo"], pieces[-1]["hi"]) == (-radius, radius)

    def test_univariate_flags_only(self, capsys):
        seven = json.dumps(SEVEN)
        assert main(["witness", "--set", seven, "--n", "2", "--out", "w.json"]) == 2
        assert main(["witness", "--set", seven, "--m", "1", "--out", "w.json"]) == 2

    def test_constant_below_d_plus_one_exits_3(self, capsys):
        # c = 0.5 certified gamma 2.0 for one point, above the witness's 0.0
        one = json.dumps({"type": "finite", "points": [0.5]})
        assert main(["witness", "--set", one, "--c", "0.5", "--out", "w.json"]) == 3
        assert "at least d + 1" in capsys.readouterr().err


class TestExtract:
    def test_poly10_with_forward_check(self, tmp_path, capsys):
        code = main([
            "extract", "--map", "poly10", "--lambda", "0", "--d", "3",
            "--check", "--out-prefix", "ex",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "extracted 5 near-critical point(s)" in out
        assert "forward bound held at every resolution: True" in out
        blob = json.loads((tmp_path / "ex.set.json").read_text())
        assert blob["type"] == "finite"
        assert len(blob["points"]) == 5
        check = (tmp_path / "ex.check.csv").read_text().strip().split("\n")
        assert check[0] == "epsilon,measured_M,bound,regime,pass"
        assert all(ln.endswith("true") for ln in check[1:])

    def test_empty_extraction_writes_an_empty_set(self, tmp_path, capsys):
        code = main([
            "extract", "--map", "linear1d", "--lambda", "0.5",
            "--out-prefix", "none",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "no near-critical points" in captured.err
        blob = json.loads((tmp_path / "none.set.json").read_text())
        assert blob == {"type": "finite", "points": []}

    @pytest.mark.parametrize("check", [[], ["--check", "--d", "2"]], ids=["plain", "check"])
    def test_tiny_radius_finds_the_critical_value_quietly(self, tmp_path, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["extract", "--map", "parabola1d", "--divisions", "5",
                         "--r", "1e-300", *check, "--out-prefix", "tiny"])
        assert code == 0
        blob = json.loads((tmp_path / "tiny.set.json").read_text())
        assert blob == {"type": "finite", "points": [0.0]}

    def test_radius_near_the_float_limit_extracts_quietly(self, tmp_path, capsys):
        # the samples are finite, their differences overflow and fail the threshold
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["extract", "--map", "bowl2d", "--r", "9e153", "--lambda", "0.5",
                         "--out-prefix", "big"])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "big.set.json").read_text())["type"] == "finite"

    def test_gradient_squares_past_the_float_range_extract_quietly(self, tmp_path, capsys):
        # saddle2d's gradient entries reach 1.8e154, whose squares overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["extract", "--map", "saddle2d", "--divisions", "5", "--r", "9e153",
                         "--out-prefix", "saddle"])
        assert code == 0
        assert capsys.readouterr().err == ""
        blob = json.loads((tmp_path / "saddle.set.json").read_text())
        assert blob == {"type": "finite", "points": [0.0]}

    @pytest.mark.parametrize("argv", [
        ["--map", "poly10", "--check", "--r", "1e400"],
        ["--map", "bowl2d", "--r", "1e300"],
    ], ids=["infinite-radius", "overflowing-samples"])
    def test_out_of_range_radius_exits_3_quietly(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["extract", *argv, "--out-prefix", "big"])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_grid_csv_source(self, tmp_path, capsys):
        entry = builtin_map("parabola1d")
        sm = SampledMap.from_callable(entry.func, 1, 1)
        grid_path = tmp_path / "grid.csv"
        grid_path.write_text(grid_csv_text(sm))
        code = main([
            "extract", "--grid", str(grid_path), "--lambda", "0.2",
            "--out-prefix", "g",
        ])
        assert code == 0
        assert "extracted 51 near-critical point(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("option, value", [("--divisions", "5"), ("--r", "2")])
    def test_grid_refuses_the_options_its_file_fixes(self, tmp_path, capsys, monkeypatch,
                                                      option, value):
        # refused before the grid is read or anything is written
        monkeypatch.chdir(tmp_path)
        grid_path = tmp_path / "grid.csv"
        grid_path.write_text("not read\n")
        code = main(["extract", "--grid", str(grid_path), option, value, "--lambda", "0.2"])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: the --grid file fixes {option}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]

    def test_malformed_grid_is_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "junk.csv"
        bad.write_text("not,a,grid\n1,2\n")
        code = main(["extract", "--grid", str(bad), "--lambda", "0.2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_two_dimensional_check_needs_the_constant(self, tmp_path):
        code = main([
            "extract", "--map", "bowl2d", "--lambda", "0.3",
            "--d", "2", "--check",
        ])
        assert code == 3
        assert list(tmp_path.glob("*.set.json")) == []

    def test_refused_check_writes_and_prints_nothing(self, tmp_path, capsys):
        argv = ["extract", "--map", "poly10", "--check", "--d", "8", "--divisions", "4",
                "--out-prefix", "run"]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: grid too coarse for this differentiation order\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_map_is_a_usage_error(self, capsys):
        code = main(["extract", "--map", "nosuchmap", "--lambda", "0"])
        assert code == 2


class TestErrorPaths:
    def test_bad_eps_spec(self, capsys):
        code = main(["cover", "--power", "-1", "--eps", "1:2", "--out", "x.csv"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["1e-3:1:1" + "0" * 400, "1e-300:1e300:10000000",
                                      "1e-300:1e300:10000"],
                             ids=["ppd-1e400", "ppd-1e7", "six-million-points"])
    def test_eps_grid_over_the_budget_exits_2(self, tmp_path, capsys, spec):
        code = main(["cover", "--set", '{"type": "finite", "points": [0, 1]}',
                     "--eps", spec, "--out", "x.csv"])
        err = capsys.readouterr().err
        assert code == 2
        assert "budget" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_set_file(self, capsys):
        code = main(["bound", "--set", "/does/not/exist.json", "--d", "5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_inline_descriptor(self, capsys):
        code = main(["bound", "--set", '{"type": "florp"}', "--d", "5"])
        assert code == 2

    def test_missing_constant_for_higher_dimensions(self, tmp_path):
        set_path = write_set(tmp_path, SEVEN)
        code = main(["bound", "--set", set_path, "--n", "2", "--m", "1", "--d", "3"])
        assert code == 3

    @pytest.mark.parametrize("argv, path", [
        (["bound", "--set", json.dumps(SEVEN), "--out", "nodir/b.json"], "nodir/b.json"),
        (["cover", "--power", "-1", "--out", "nodir/c.csv"], "nodir/c.csv"),
        (["extract", "--map", "parabola1d", "--out-prefix", "nodir/run"], "nodir/run.set.json"),
    ], ids=["bound", "cover", "extract"])
    def test_unwritable_output_names_the_path_given(self, tmp_path, capsys, argv, path):
        # not the random temporary file the write goes through
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_no_arguments_prints_usage(self):
        assert main([]) == 2

    def test_set_file_over_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        set_path = write_set(tmp_path, SEVEN)
        monkeypatch.setattr("rigidity.sets.MAX_DESCRIPTOR_BYTES", 8)
        assert main(["bound", "--set", set_path, "--d", "5"]) == 3
        err = capsys.readouterr().err
        assert "budget" in err and "Traceback" not in err

    def test_grid_file_over_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        entry = builtin_map("parabola1d")
        grid_path = tmp_path / "grid.csv"
        grid_path.write_text(grid_csv_text(SampledMap.from_callable(entry.func, 1, 1)))
        monkeypatch.setattr("rigidity.critical.MAX_GRID_NODES", 10)
        assert main(["extract", "--grid", str(grid_path), "--lambda", "0.2"]) == 3
        err = capsys.readouterr().err
        assert "budget" in err and "Traceback" not in err

    @pytest.mark.parametrize("solver", ["solve_eta", "epsilon0"])
    def test_degenerate_solver_search_exits_3(self, tmp_path, capsys, monkeypatch, solver):
        def fail(*args, **kwargs):
            raise RuntimeError("failed to find a disqualifying radius")

        monkeypatch.setattr(f"rigidity.bounds.{solver}", fail)
        set_path = write_set(tmp_path, SEVEN)
        # a grid scan runs both solvers; seven points alone scan their plateau ends
        code = main(["bound", "--set", set_path, "--d", "5", "--eps", "1e-3:1:10",
                     "--out", "rep.json"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: failed to find a disqualifying radius" in err
        assert "Traceback" not in err

    def test_huge_extract_grid_exits_3_before_allocating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid must be refused before it is built")

        monkeypatch.setattr("rigidity.critical.np.linspace", refuse)
        start = time.perf_counter()
        code = main(["extract", "--map", "stretch2d", "--divisions", "10000000"])
        assert time.perf_counter() - start < 5.0
        assert code == 3
        err = capsys.readouterr().err
        assert "error:" in err and "exceed the budget of" in err
        assert "Traceback" not in err

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("rigidity.cli.rigidity_bound", exhaust)
        set_path = write_set(tmp_path, SEVEN)
        code = main(["bound", "--set", set_path, "--d", "5", "--out", "rep.json"])
        assert code == 3
        err = capsys.readouterr().err
        assert "error: out of memory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["bound", "cover", "witness"])
    def test_values_spanning_past_the_float_range_end_quietly(self, capsys, command):
        # the extent 2e308 overflows: bound and cover scan up to the largest
        # float, the witness's scale is refused, all without a numpy warning
        desc = json.dumps({"type": "finite", "points": [1e308, -1e308]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--set", desc, "--out", "out"])
        assert code == (3 if command == "witness" else 0)
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, expected", [
        (["bound", "--set", '{"type": "finite", "points": [-1e308, 1e308]}',
          "--eps", "1e307:1.7e308:5"], 0),
        (["witness", "--set", '{"type": "finite", "points": [-1e308, 0, 1e308]}',
          "--eps", "1e-3:1:2"], 3),
        (["cover", "--set", '{"type": "finite", "points": [0, 1]}', "--eps", "1e-300:1e10:2"], 0),
        (["bound", "--set", json.dumps(SEVEN), "--eps", "1e-160:1e-150:2", "--r", "9e153",
          "--lambda", "1"], 0),
    ], ids=["overflowing-gap", "overflowing-witness-scale", "overflowing-eps-ratio",
            "overflowing-baseline"])
    def test_overflows_raise_no_warning(self, capsys, argv, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", "out"]) == expected
        err = capsys.readouterr().err
        assert "Warning" not in err and "Traceback" not in err


def run_fresh(body):
    """Stdout lines and stderr of ``body`` run in a fresh interpreter after ``main`` is imported."""
    script = "import sys\nfrom rigidity.cli import main\n" + body
    src = str(Path(rigidity.__file__).resolve().parents[1])
    # -B: the bare environment drops PYTHONDONTWRITEBYTECODE, and no run
    # should leave compiled modules in src/
    proc = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60)
    return proc.stdout.splitlines(), proc.stderr


def test_module_entry_point_runs_the_cli():
    src = str(Path(rigidity.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-B", "-m", "rigidity.cli", "classify", "--alpha",
                           "-1", "--d", "5"], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Excluded, exponent -1.5\n"


class TestColdImports:
    SEVEN_ARG = json.dumps(json.dumps(SEVEN))

    def test_bound_does_not_import_numpy_ma(self, tmp_path):
        # a bare np.unique imports numpy.ma, 15-20 ms of every process
        out, err = run_fresh(
            f"code = main(['bound', '--set', {self.SEVEN_ARG}, '--d', '5',"
            f" '--out', {str(tmp_path / 'rep.json')!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        assert out[-1] == "0 False", err

    def test_bound_does_not_import_the_witness(self, tmp_path):
        out, err = run_fresh(
            f"code = main(['bound', '--set', {self.SEVEN_ARG}, '--d', '5',"
            f" '--out', {str(tmp_path / 'rep.json')!r}])\n"
            "print('loaded', code, 'rigidity.witness' in sys.modules)\n"
            f"code = main(['witness', '--set', {self.SEVEN_ARG}, '--d', '5',"
            f" '--out', {str(tmp_path / 'sw.json')!r}])\n"
            "print('loaded', code, 'rigidity.witness' in sys.modules)\n"
        )
        loaded = [line for line in out if line.startswith("loaded")]
        assert loaded == ["loaded 0 False", "loaded 0 True"], err


class TestDeterminism:
    def test_bound_rerun_is_byte_identical(self, tmp_path):
        set_path = write_set(tmp_path, SEVEN)
        argv = ["bound", "--set", set_path, "--d", "5", "--out", "rep.json"]
        assert main(argv) == 0
        first = (tmp_path / "rep.json").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "rep.json").read_bytes() == first


class TestNegativeNumbers:
    # argparse's own pattern for a negative number takes no exponent
    @pytest.mark.parametrize("argv, plain, scientific", [
        (["bound", "--d", "1", "--eps", "1e-3:0.5:5", "--out", "out", "--power"], "-0.1", "-1e-1"),
        (["cover", "--out", "out", "--power"], "-50", "-5E+1"),
        (["classify", "--alpha"], "-0.25", "-2.5e-1"),
    ], ids=["bound", "cover", "classify"])
    def test_scientific_spelling_runs_as_the_plain_one(self, tmp_path, capsys, argv, plain,
                                                      scientific):
        runs = []
        for value in (plain, scientific):
            code = main(argv + [value])
            out = tmp_path / "out"
            runs.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else b""))
            out.unlink(missing_ok=True)
        assert runs[0][0] == 0
        assert runs[1] == runs[0]


class TestScalarCloud:
    @pytest.mark.parametrize("command", ["bound", "cover", "witness"])
    def test_one_column_cloud_runs_as_a_finite_set(self, tmp_path, command):
        # unsorted and with a repeat, a one-column cloud is the finite set of its values
        column = [[x] for x in SEVEN["points"][::-1]] + [[0.3]]
        params = [] if command == "cover" else ["--d", "3"]
        outputs = []
        for name, desc in (("cloud", {"type": "cloud", "points": column}), ("finite", SEVEN)):
            set_path = write_set(tmp_path, desc, f"{name}.json")
            assert main([command, "--set", set_path, *params, "--out", f"{name}.out"]) == 0
            outputs.append((tmp_path / f"{name}.out").read_bytes())
        assert outputs[0] == outputs[1]


class TestJsonLayout:
    def test_reports_and_set_files_keep_the_json_dump_layout(self, tmp_path):
        seven = json.dumps(SEVEN)
        assert main(["extract", "--map", "stretch2d", "--lambda", "1", "3",
                     "--divisions", "20", "--out-prefix", "st"]) == 0
        assert main(["bound", "--set", seven, "--d", "5", "--out", "bound.json"]) == 0
        assert main(["witness", "--set", seven, "--d", "5", "--out", "witness.json",
                     "--samples", "witness.csv"]) == 0
        files = sorted(tmp_path.glob("*.json"))
        assert [f.name for f in files] == ["bound.json", "st.set.json", "witness.json"]
        for f in files:
            text = f.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert len(json.loads((tmp_path / "st.set.json").read_text())["points"]) > 1


# Values for the fuzz test, valid ones first, then malformed ones.  Every
# valid choice is small: no grid, set or witness here needs more than a
# fraction of a second or a few megabytes.
_SETS = ([json.dumps(SEVEN), '{"type": "power", "alpha": -2, "count": 50}',
          '{"type": "finite", "points": [0.5]}', '{"type": "finite", "points": [0, 0.25, 1e-9]}',
          '{"type": "cloud", "points": [[0.0, 1.0], [1.0, 0.5]]}',
          '{"type": "cloud", "points": [[0.3], [0.1], [0.3]]}',
          '{"type": "finite", "points": [-1e308, 0, 1e308]}'],
         ['{"type": "finite", "points": []}', '{"type": "finite", "points": [1e308, -1e308, NaN]}',
          '{"type": "finite", "points": [0, Infinity]}', '{"type": "finite", "points": ["a"]}',
          '{"type": "finite", "points": [[0, 1], [1]]}',
          '{"type": "finite", "points": [[0, 1], [1, 0]]}', '{"type": "finite"}',
          '{"type": "power", "alpha": "x"}', '{"type": "power", "alpha": 0.5}',
          '{"type": "power"}', '{"type": "nope"}',
          "{", "[]", "null", "", "missing.json"])
_EPS = (["1e-3:0.5:5", "1e-2:0.5:3", "1e-4:1:2", "1e-300:1e10:2", "1e-6:1.7e308:1"],
        ["1e-3:0.5", "0.5:1e-3:5", "a:b:c", "0:1:5", "1e-3:0.5:0", "1e-3:0.5:-2",
         "1e-3:inf:5", "nan:1:3", "", ":::", "1e-3:0.5:2.5"])
_INTS = (["1", "2", "3", "5"], ["-1", "0", "x", "", "0.5", "1e400"])
_FLOATS = (["0.5", "1", "2.5", "1e-3"],
           ["-1", "0", "nan", "inf", "-inf", "x", "", "1e-300", "1e400"])
# radii near both float limits, and constants below an ulp of one (valid for n >= 2)
_RADII = (_FLOATS[0] + ["9e153", "1e300", "1e-70", "1e307", "1.7e308"], _FLOATS[1])
_CONSTANTS = (_FLOATS[0] + ["1e-17", "1e-300", "1e-310"], _FLOATS[1])
_LAMBDAS = (["0", "1e-3", "0.5", "1", "3"], ["-1", "nan", "inf", "x", ""])
_POWERS = (["-2", "-3", "-1e-1", "-2.5E0"], ["0.5", "0", "nan", "-inf", "x"])
_MAPS = (["linear1d", "parabola1d", "const1d", "cubic1d", "poly10", "stretch2d", "bowl2d",
          "saddle2d", "tilt2d"], ["nope", "linear", ""])
_DIVISIONS = (["2", "5", "9"], ["-1", "0", "1", "x", "2.5", "1e3"])
_FIELDS = ["command", "source", "set", "power", "eps", "map", "divisions", "alpha",
           "--d", "--r", "--c", "--n", "--m", "lambda", "extra"]


@st.composite
def cli_argv(draw):
    """A command line that is valid except, maybe, in one field."""
    broken = draw(st.sampled_from([None] * 5 + _FIELDS))

    def pick(field, choices):
        return draw(st.sampled_from(choices[1] if field == broken else choices[0]))

    command = pick("command", (["cover", "bound", "witness", "extract", "classify"],
                               ["nope", "", "--bogus"]))
    argv = [command]
    if command in ("cover", "bound", "witness"):
        source = pick("source", (["set", "set", "power"], ["both", "none"]))
        if source in ("set", "both"):
            argv += ["--set", pick("set", _SETS)]
        if source in ("power", "both"):
            argv += ["--power", pick("power", _POWERS)]
        if draw(st.booleans()):
            argv += ["--eps", pick("eps", _EPS)]
        argv += ["--out", "out.file"]
    if command == "witness" and draw(st.booleans()):
        argv += ["--samples", "samples.csv"]
    if command == "extract":
        if broken == "map" and draw(st.booleans()):
            argv += ["--grid", "missing.csv"]
        else:
            argv += ["--map", pick("map", _MAPS), "--divisions", pick("divisions", _DIVISIONS)]
        if draw(st.booleans()):
            argv.append("--check")
        argv += ["--out-prefix", "ex"]
    if command == "classify":
        argv += ["--alpha", pick("alpha", _POWERS)]
    options = {"--d": _INTS, "--r": _RADII, "--c": _CONSTANTS}
    if command == "bound":  # witness and extract take no --n/--m
        options.update({"--n": _INTS, "--m": _INTS})
    if command == "classify":  # classify reads alpha, n and d only
        options = {"--d": _INTS, "--n": _INTS}
    if command != "cover":  # cover takes no problem parameters
        for option in draw(st.lists(st.sampled_from(sorted(options)), unique=True,
                                    max_size=3)):
            argv += [option, pick(option, options[option])]
        if command != "classify" and draw(st.booleans()):
            count = draw(st.integers(1, 3))
            argv += ["--lambda", *(pick("lambda", _LAMBDAS) for _ in range(count))]
    if broken == "extra":
        argv.append(draw(st.sampled_from(["--bogus", "-x", "extra", "--help"])))
    return argv


class TestArgumentFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_argv())
    def test_exit_code_is_documented_and_no_traceback(self, argv):
        err = io.StringIO()
        # a RuntimeWarning raised here fails the example with its argv
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        event(f"exit {code}")
        # exit 4 would mean a falsified bound
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "Warning" not in err.getvalue()
