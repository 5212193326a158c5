"""Tests of the benchmark harness itself: checks, span arithmetic, metric lists.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import checks
import layers
import run
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


class FakeProc:
    def __init__(self, returncode=0, stderr=""):
        self.returncode = returncode
        self.stderr = stderr
        self.wall_s = 0.5


def _seven_points():
    case = REFERENCE["sets"][0]
    return case["values"], case["d"], case["gamma"], case["witness_scale"]


@pytest.mark.parametrize("case", REFERENCE["sets"], ids=lambda c: f"d{c['d']}-k{len(c['values'])}")
def test_reference_gamma_and_witness_match_seed_commit(case):
    ref = checks.reference_gamma(case["values"], case["d"], case["lam"])
    assert math.isclose(ref, case["gamma"], rel_tol=1e-9, abs_tol=0.0)
    scale = checks.witness_scale(case["values"], case["d"])
    assert math.isclose(scale, case["witness_scale"], rel_tol=1e-9)


def test_checks_catch_a_wrong_gamma(tmp_path):
    values, d, gamma, scale = _seven_points()
    report = tmp_path / "bound.json"
    check = workloads._bound_check(report, values, d)

    report.write_text(json.dumps({"gamma": gamma}))
    (good,) = check(FakeProc())
    assert good.error is None
    assert math.isclose(good.gamma_ratio, 1.0, rel_tol=1e-9)

    report.write_text(json.dumps({"gamma": gamma * 0.99}))
    (low,) = check(FakeProc())
    assert "below the reference" in low.error

    report.write_text(json.dumps({"gamma": scale * 1.01}))
    (high,) = check(FakeProc())
    assert "exceeds the realizing witness scale" in high.error

    report.write_text(json.dumps({"gamma": gamma}))
    (crashed,) = check(FakeProc(stderr="Traceback (most recent call last):\n"))
    assert crashed.error == "printed a traceback"
    (exit3,) = check(FakeProc(returncode=3, stderr="error: bad"))
    assert exit3.error.startswith("exit code 3")


def test_checks_catch_a_falsified_sandwich(tmp_path):
    values, d, gamma, scale = _seven_points()
    trials = [{"d": d, "lam": 0.0, "values": values}] * 4
    expected = [(gamma, scale)] * 4
    rows = [
        {"latency_s": 0.01, "pace_factor": 1.0, "gamma": gamma, "witness_scale": scale, "ok": True},
        # the program admits the falsification
        {"latency_s": 0.01, "pace_factor": 1.0, "gamma": gamma, "witness_scale": scale, "ok": False},
        # ... or hides it: gamma above the realizing map's scale
        {"latency_s": 0.01, "pace_factor": 1.0, "gamma": scale * 2, "witness_scale": scale, "ok": True},
        # ... or reports a witness scale that does not match the witness
        {"latency_s": 0.01, "pace_factor": 1.0, "gamma": gamma, "witness_scale": scale * 10, "ok": True},
    ]
    results = tmp_path / "results.json"
    results.write_text(json.dumps(rows))
    outcomes = workloads._sandwich_outcomes(FakeProc(), results, trials, expected)
    assert outcomes[0].error is None
    assert "ok = false" in outcomes[1].error
    assert "exceeds the realizing witness scale" in outcomes[2].error
    assert "differs from the rebuilt" in outcomes[3].error

    results.write_text(json.dumps(rows[:1]))
    short = workloads._sandwich_outcomes(FakeProc(), results, trials, expected)
    assert all(o.error == "1 results for 4 trials" for o in short)


def _tree():
    #  root [0, 10]
    #  +- a [1, 4]
    #  |  +- a1 [2, 3]
    #  +- b [3, 6]       overlaps a: the overlap is covered once
    #  +- c [8, 9]
    #  +- d [9.5, 11]    runs past root: only [9.5, 10] is inside it
    names = ["root", "a", "a1", "b", "c", "d"]
    return {
        "names": names,
        "name": list(range(6)),
        "start": [0.0, 1.0, 2.0, 3.0, 8.0, 9.5],
        "end": [10.0, 4.0, 3.0, 6.0, 9.0, 11.0],
        "parent": [-1, 0, 1, 0, 0, 0],
        "op": [0] * 6,
        "extra": {},
        "counts": {},
        "import_s": 0.1,
    }


def test_self_time_on_a_hand_built_span_tree():
    got = spans.self_times(_tree())
    assert got == pytest.approx({0: 10 - (5 + 1 + 0.5), 1: 3 - 1, 2: 1, 3: 3, 4: 1, 5: 1.5})
    assert spans.self_times(_tree(), [1]) == pytest.approx({1: 2.0})
    p = layers.PassSpans([_tree()])
    assert p.self_time("a", "a1") == pytest.approx(3.0)
    assert p.busy("a", "b", "a1") == pytest.approx(5.0)
    assert p.calls("a1", "b", parent="root") == 1


def test_missing_hooks_are_reported_not_fatal():
    rec = spans.Recorder()
    assert spans.install(rec, hooks=[("rigidity.no_such_module", "f", "x", None)]) == [
        "rigidity.no_such_module.f"]
    trace = _tree()
    trace["missing"] = ["rigidity.covering.exact_counter"]
    got = layers.layer_metrics([trace])
    assert got["covering.busy_s"] is None
    assert got["cli.import_s"] == pytest.approx(0.1)


def test_span_recorder_nests_and_counts():
    rec = spans.Recorder()

    def leaf(x):
        return x + 1

    counted = rec.counter(lambda: True, "probe", truthy=True)

    def outer(x):
        counted()
        return inner(x) + inner(x)

    inner = rec.span(leaf, "inner", spans._EXTRAS["result"])
    outer = rec.span(outer, "outer")
    assert outer(1) == 4
    trace = rec.to_json_dict()
    assert [trace["names"][k] for k in trace["name"]] == ["outer", "inner", "inner"]
    assert trace["parent"] == [-1, 0, 0]
    assert trace["extra"] == {"1": 2, "2": 2}
    assert trace["counts"] == {"probe@outer": 1, "probe:true@outer": 1}


def test_tail_rank_keeps_ten_samples_above_down_to_p90():
    assert run.tail_rank(1000) == 990
    assert run.tail_rank(100) == 90
    assert run.tail_rank(20) == 18
    assert run.tail_rank(1) == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {name: m[0] for name, m in layers.METRICS.items()}
    layer_units[run.OVERHEAD] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units


def test_pace_factor_and_probes_inside_a_span():
    # the factor is the mean of speeds, so one probe slowed 10x barely moves it
    ref = speed.REFERENCE_S
    assert speed.factor([ref, ref / 2]) == pytest.approx(1.5)
    assert speed.factor([ref] * 9 + [10 * ref]) == pytest.approx(0.91)
    assert speed.factor([]) == 1.0
    pacer = speed.Pacer()
    pacer.at = [1.0, 2.0, 3.0, 4.0]
    pacer.took = [0.1, 0.2, 0.3, 0.4]
    assert pacer.spent(2.0, 4.0) == pytest.approx(0.5)
    assert pacer.near(2.5, 2.6, 0.6) == [0.2, 0.3]
