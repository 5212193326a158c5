"""The benchmark's correctness gates, run on small seeded inputs.

``bench/checks.py`` rebuilds the seed commit's certified gamma and the
staircase witness scale with numpy and the stdlib only, and the benchmark
refuses a run whose outputs fail those checks.  Running the same gates
here makes a change that would break them fail the test suite first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rigidity.bounds import LambdaProfile, ProblemParams, rigidity_bound
from rigidity.sets import FinitePoints
from rigidity.witness import sandwich_check

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # numpy and the stdlib only
    return module


checks = _load_checks()


def _sandwich_trials():
    """Sets of d + 2 uniform values for d = 1..5 in turn; every fourth has lambda_1 = 1e-3."""
    rng = np.random.default_rng(7)
    for i in range(30):
        d = 1 + i % 5
        yield d, (1e-3 if i % 4 == 3 else 0.0), rng.uniform(-2.0, 2.0, d + 2)


TRIALS = list(_sandwich_trials())


@pytest.mark.parametrize("d, lam, values", TRIALS,
                         ids=[f"trial{i}-d{d}" for i, (d, _, _) in enumerate(TRIALS)])
def test_sandwich_row_passes_the_bench_gate(d, lam, values):
    res = sandwich_check(ProblemParams(n=1, m=1, d=d), LambdaProfile((lam,)),
                         FinitePoints(values))
    row = {"gamma": res.gamma, "witness_scale": res.witness_scale, "ok": bool(res.ok)}
    error = checks.check_sandwich(row, checks.reference_gamma(values, d, lam),
                                  checks.witness_scale(values, d))
    assert error is None, error


def test_stratified_bound_passes_the_bench_gate():
    # one point uniform in the middle half of each of 600 cells of [0, 1]
    rng = np.random.default_rng(11)
    k, d = 600, 5
    values = (np.arange(k) + rng.uniform(0.25, 0.75, k)) / k
    report = rigidity_bound(ProblemParams(n=1, m=1, d=d), LambdaProfile.zeros(1),
                            FinitePoints(values))
    error = checks.check_gamma(report.gamma, checks.reference_gamma(values, d),
                               checks.witness_scale(values, d))
    assert error is None, error
