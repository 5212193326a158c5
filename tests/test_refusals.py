"""The refusals and accepted values of the library's input checks, case by case.

Each check that guards an array (the radii of ``covering_counts``, the
counts and radii of ``solve_eta``, the radii and eta of ``rhs_polynomial``
and ``in_E``, the curve of ``BoundReport``, the edges of
``WitnessFunction``) is fed NaN, -0.0, 0.0, +inf, -inf, an empty array and
a 0-d value.  A refusal is pinned by its exception type and message, an
accepted input by the value it gives, so that a cheaper form of a check
must refuse and accept exactly what the old one did.
"""

import math

import numpy as np
import pytest

from rigidity.bounds import (BoundReport, LambdaProfile, ProblemParams, in_E,
                             rhs_polynomial, solve_eta)
from rigidity.covering import covering_counts
from rigidity.sets import FinitePoints, PowerSequence
from rigidity.witness import WitnessFunction

NAN, INF = math.nan, math.inf
P = ProblemParams(n=1, m=1, d=5)  # c = 6
Z1 = LambdaProfile((0.0,))
L1 = LambdaProfile((0.5,))
S = FinitePoints([0.0, 0.3, 1.0])
POWER = PowerSequence(-1.0)


def a(*values):
    return np.array(values, dtype=float)


def outcome(call):
    """("raises", type name, message) or ("value", its repr, type name, dtype, shape)."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the type is what is pinned
        return ("raises", type(exc).__name__, str(exc))
    if isinstance(value, (BoundReport, WitnessFunction)):
        value = ((value.gamma, value.eta_curve.shape) if isinstance(value, BoundReport)
                 else value.edges)
    dtype = str(value.dtype) if isinstance(value, np.ndarray) else None
    shape = value.shape if isinstance(value, np.ndarray) else None
    shown = value.tolist() if isinstance(value, np.ndarray) else value
    return ("value", repr(shown), type(value).__name__, dtype, shape)


def curve(*rows):
    return lambda: BoundReport(np.array(rows, dtype=float).reshape(-1, 2), None, None, P, Z1)


def edges(*e):
    return lambda: WitnessFunction(e, (0.0, 1.0), 1, 1.0)


CASES = [
    # covering_counts: the radii
    ("counts-nan", lambda: covering_counts(S, a(NAN))),
    ("counts-nan-second", lambda: covering_counts(S, a(0.5, NAN))),
    ("counts-neg-zero", lambda: covering_counts(S, a(-0.0))),
    ("counts-zero", lambda: covering_counts(S, a(0.0))),
    ("counts-zero-second", lambda: covering_counts(S, a(0.5, 0.0))),
    ("counts-inf", lambda: covering_counts(S, a(INF))),
    ("counts-neg-inf", lambda: covering_counts(S, a(-INF))),
    ("counts-empty", lambda: covering_counts(S, a())),
    ("counts-0d", lambda: covering_counts(S, np.float64(0.5))),
    ("counts-power-inf", lambda: covering_counts(POWER, a(INF))),
    ("counts-power-nan", lambda: covering_counts(POWER, a(NAN))),
    # solve_eta: the counts
    ("eta-count-nan", lambda: solve_eta(P, Z1, a(NAN), a(0.05))),
    ("eta-count-nan-second", lambda: solve_eta(P, Z1, a(7.0, NAN), a(0.05, 0.05))),
    ("eta-count-nan-second-lambda", lambda: solve_eta(P, L1, a(1e9, NAN), a(0.05, 0.05))),
    ("eta-count-neg-zero", lambda: solve_eta(P, Z1, -0.0, 0.05)),
    ("eta-count-zero", lambda: solve_eta(P, Z1, 0.0, 0.05)),
    ("eta-count-inf", lambda: solve_eta(P, Z1, INF, 0.05)),
    ("eta-count-neg-inf", lambda: solve_eta(P, Z1, -INF, 0.05)),
    ("eta-count-empty", lambda: solve_eta(P, Z1, a(), a())),
    ("eta-count-0d", lambda: solve_eta(P, Z1, np.float64(7.0), 0.05)),
    ("eta-count-int", lambda: solve_eta(P, Z1, np.array([7, 8, 100]), a(0.05, 0.05, 0.05))),
    ("eta-count-lambda", lambda: solve_eta(P, L1, np.array([100, 1000]), a(0.05, 0.5))),
    # solve_eta: the radii
    ("eta-radius-nan", lambda: solve_eta(P, Z1, 7.0, NAN)),
    ("eta-radius-nan-second", lambda: solve_eta(P, Z1, a(7.0, 7.0), a(0.05, NAN))),
    ("eta-radius-neg-zero", lambda: solve_eta(P, Z1, 7.0, -0.0)),
    ("eta-radius-zero", lambda: solve_eta(P, Z1, 7.0, 0.0)),
    ("eta-radius-inf", lambda: solve_eta(P, Z1, 7.0, INF)),
    ("eta-radius-inf-lambda", lambda: solve_eta(P, L1, 7.0, INF)),
    ("eta-radius-neg-inf", lambda: solve_eta(P, Z1, 7.0, -INF)),
    ("eta-radius-empty", lambda: solve_eta(P, Z1, a(), a())),
    ("eta-radius-0d", lambda: solve_eta(P, L1, 100.0, np.float64(0.05))),
    ("eta-broadcast", lambda: solve_eta(P, L1, a(100.0, 1000.0), 0.05)),
    # rhs_polynomial: the radii and eta
    ("rhs-radius-nan", lambda: rhs_polynomial(P, Z1, NAN, 2.0)),
    ("rhs-radius-neg-zero", lambda: rhs_polynomial(P, Z1, -0.0, 2.0)),
    ("rhs-radius-zero", lambda: rhs_polynomial(P, Z1, 0.0, 2.0)),
    ("rhs-radius-inf", lambda: rhs_polynomial(P, L1, INF, 2.0)),
    ("rhs-radius-neg-inf", lambda: rhs_polynomial(P, Z1, -INF, 2.0)),
    ("rhs-radius-empty", lambda: rhs_polynomial(P, Z1, a(), 2.0)),
    ("rhs-radius-0d", lambda: rhs_polynomial(P, L1, np.float64(0.05), 2.0)),
    ("rhs-radius-array", lambda: rhs_polynomial(P, Z1, a(0.05, 0.5), 1.0)),
    ("rhs-eta-nan", lambda: rhs_polynomial(P, Z1, 0.05, NAN)),
    ("rhs-eta-nan-second", lambda: rhs_polynomial(P, Z1, 0.05, a(2.0, NAN))),
    ("rhs-eta-neg-zero", lambda: rhs_polynomial(P, Z1, 0.05, -0.0)),
    ("rhs-eta-zero", lambda: rhs_polynomial(P, Z1, 0.05, 0.0)),
    ("rhs-eta-inf", lambda: rhs_polynomial(P, L1, 0.05, INF)),
    ("rhs-eta-neg-inf", lambda: rhs_polynomial(P, Z1, 0.05, -INF)),
    ("rhs-eta-empty", lambda: rhs_polynomial(P, Z1, 0.05, a())),
    ("rhs-eta-0d", lambda: rhs_polynomial(P, L1, 0.05, np.float64(2.0))),
    # in_E: the radii and the counts
    ("in-e-radius-nan", lambda: in_E(P, Z1, 7, NAN)),
    ("in-e-radius-zero", lambda: in_E(P, Z1, 7, 0.0)),
    ("in-e-radius-neg-zero", lambda: in_E(P, Z1, 7, -0.0)),
    ("in-e-radius-inf", lambda: in_E(P, Z1, 7, INF)),
    ("in-e-radius-neg-inf", lambda: in_E(P, Z1, 7, -INF)),
    ("in-e-radius-empty", lambda: in_E(P, Z1, a(), a())),
    ("in-e-radius-0d", lambda: in_E(P, L1, 7, np.float64(0.05))),
    ("in-e-radius-array", lambda: in_E(P, Z1, 7, a(0.05, 0.5))),
    ("in-e-count-nan", lambda: in_E(P, Z1, NAN, 0.05)),
    ("in-e-count-zero", lambda: in_E(P, Z1, 0.0, 0.05)),
    ("in-e-count-neg-zero", lambda: in_E(P, Z1, -0.0, 0.05)),
    ("in-e-count-inf", lambda: in_E(P, Z1, INF, 0.05)),
    ("in-e-count-neg-inf", lambda: in_E(P, Z1, -INF, 0.05)),
    ("in-e-count-0d", lambda: in_E(P, Z1, np.int64(7), 0.05)),
    # BoundReport: the curve's solved ratios, and gamma
    ("report-eta-one", curve([0.1, 1.0])),
    ("report-eta-nan-beside-one", curve([0.1, NAN], [0.2, 0.5])),
    ("report-eta-nan", curve([0.1, NAN])),
    ("report-eta-neg-zero", curve([0.1, -0.0])),
    ("report-eta-zero", curve([0.1, 0.0])),
    ("report-eta-inf", curve([0.1, INF])),
    ("report-eta-neg-inf", curve([0.1, -INF])),
    ("report-radius-nan", curve([NAN, 2.0], [0.1, 2.0])),
    ("report-radius-zero", curve([0.0, 2.0])),
    ("report-radius-neg", curve([0.1, 2.0], [-1.0, 2.0])),
    ("report-radius-neg-inf", curve([-INF, 3.0])),
    ("report-gamma-overflow", curve([1e300, 1e10])),
    ("report-empty", lambda: BoundReport(a(), None, None, P, Z1)),
    ("report-empty-list", lambda: BoundReport([], None, None, P, Z1)),
    ("report-0d", lambda: BoundReport(np.float64(2.0), None, None, P, Z1)),
    ("report-flat", lambda: BoundReport(a(0.1, 2.0), None, None, P, Z1)),
    ("report-rows", curve([0.2, 3.0], [0.1, 2.0])),
    # WitnessFunction: the edges
    ("witness-decreasing", edges(-1.0, 0.5, 0.2, 1.0)),
    ("witness-nan-inside", edges(-1.0, NAN, 0.0, 1.0)),
    ("witness-nan-end", edges(NAN, 0.0, 0.5, 1.0)),
    ("witness-neg-zero", edges(-1.0, -0.0, 0.0, 1.0)),
    ("witness-inf-inside", edges(-1.0, INF, INF, 1.0)),
    ("witness-neg-inf-inside", edges(-1.0, -INF, 0.0, 1.0)),
    ("witness-empty", lambda: WitnessFunction((), (), 1, 1.0)),
    ("witness-0d", lambda: WitnessFunction(np.float64(1.0), (0.0,), 1, 1.0)),
    ("witness-equal-edges", edges(-1.0, 0.0, 0.0, 1.0)),
]

EXPECTED = {
    'counts-nan': ('raises', 'ValueError', 'epsilon must be positive'),
    'counts-nan-second': ('raises', 'ValueError', 'epsilon must be positive'),
    'counts-neg-zero': ('raises', 'ValueError', 'epsilon must be positive'),
    'counts-zero': ('raises', 'ValueError', 'epsilon must be positive'),
    'counts-zero-second': ('raises', 'ValueError', 'epsilon must be positive'),
    'counts-inf': ('value', '[1]', 'ndarray', 'int64', (1,)),
    'counts-neg-inf': ('raises', 'ValueError', 'epsilon must be positive'),
    'counts-empty': ('value', '[]', 'ndarray', 'int64', (0,)),
    'counts-0d': ('raises', 'ValueError', 'epsilons must be a 1-d array of radii'),
    'counts-power-inf': ('value', '[1]', 'ndarray', 'int64', (1,)),
    'counts-power-nan': ('raises', 'ValueError', 'epsilon must be positive'),
    'eta-count-nan':
        ('raises', 'ValueError', 'count nan does not exceed the baseline 6; no ratio above 1'),
    'eta-count-nan-second':
        ('raises', 'ValueError', 'count nan does not exceed the baseline 6; no ratio above 1'),
    'eta-count-nan-second-lambda':
        ('raises', 'ValueError', 'count nan does not exceed the baseline 66; no ratio above 1'),
    'eta-count-neg-zero':
        ('raises', 'ValueError', 'count -0.0 does not exceed the baseline 6; no ratio above 1'),
    'eta-count-zero':
        ('raises', 'ValueError', 'count 0.0 does not exceed the baseline 6; no ratio above 1'),
    'eta-count-inf': ('raises', 'ValueError', 'count / c overflows the float range at c = 6'),
    'eta-count-neg-inf':
        ('raises', 'ValueError', 'count -inf does not exceed the baseline 6; no ratio above 1'),
    'eta-count-empty': ('value', '[]', 'ndarray', 'float64', (0,)),
    'eta-count-0d': ('value', '2.161394032921809', 'float', None, None),
    'eta-count-int':
        ('value', '[2.161394032921809, 4.213991769547319, 1286008.2304526737]',
         'ndarray', 'float64', (3,)),
    'eta-count-lambda':
        ('value', '[13168.724279835322, 124788817704.76105]', 'ndarray', 'float64', (2,)),
    'eta-radius-nan': ('raises', 'ValueError', 'epsilon must be positive'),
    'eta-radius-nan-second': ('raises', 'ValueError', 'epsilon must be positive'),
    'eta-radius-neg-zero': ('raises', 'ValueError', 'epsilon must be positive'),
    'eta-radius-zero': ('raises', 'ValueError', 'epsilon must be positive'),
    'eta-radius-inf': ('value', '2.161394032921809', 'float', None, None),
    'eta-radius-inf-lambda': ('value', '2.1613940329218067', 'float', None, None),
    'eta-radius-neg-inf': ('raises', 'ValueError', 'epsilon must be positive'),
    'eta-radius-empty': ('value', '[]', 'ndarray', 'float64', (0,)),
    'eta-radius-0d': ('value', '13168.724279835322', 'float', None, None),
    'eta-broadcast':
        ('value', '[13168.724279835322, 94380661316.87221]', 'ndarray', 'float64', (2,)),
    'rhs-radius-nan': ('raises', 'ValueError', 'epsilon must be positive'),
    'rhs-radius-neg-zero': ('raises', 'ValueError', 'epsilon must be positive'),
    'rhs-radius-zero': ('raises', 'ValueError', 'epsilon must be positive'),
    'rhs-radius-inf': ('value', '6.892190129982211', 'float', None, None),
    'rhs-radius-neg-inf': ('raises', 'ValueError', 'epsilon must be positive'),
    'rhs-radius-empty': ('value', '[]', 'ndarray', 'float64', (0,)),
    'rhs-radius-0d': ('value', '66.89219012998221', 'float', None, None),
    'rhs-radius-array': ('value', '[6.0, 6.0]', 'ndarray', 'float64', (2,)),
    'rhs-eta-nan': ('raises', 'ValueError', 'eta must be at least 1'),
    'rhs-eta-nan-second': ('raises', 'ValueError', 'eta must be at least 1'),
    'rhs-eta-neg-zero': ('raises', 'ValueError', 'eta must be at least 1'),
    'rhs-eta-zero': ('raises', 'ValueError', 'eta must be at least 1'),
    'rhs-eta-inf': ('value', 'inf', 'float', None, None),
    'rhs-eta-neg-inf': ('raises', 'ValueError', 'eta must be at least 1'),
    'rhs-eta-empty': ('value', '[]', 'ndarray', 'float64', (0,)),
    'rhs-eta-0d': ('value', '66.89219012998221', 'float', None, None),
    'in-e-radius-nan': ('raises', 'ValueError', 'epsilon must be positive'),
    'in-e-radius-zero': ('raises', 'ValueError', 'epsilon must be positive'),
    'in-e-radius-neg-zero': ('raises', 'ValueError', 'epsilon must be positive'),
    'in-e-radius-inf': ('value', 'True', 'bool', None, None),
    'in-e-radius-neg-inf': ('raises', 'ValueError', 'epsilon must be positive'),
    'in-e-radius-empty': ('value', '[]', 'ndarray', 'bool', (0,)),
    'in-e-radius-0d': ('value', 'False', 'bool', None, None),
    'in-e-radius-array': ('value', '[True, True]', 'ndarray', 'bool', (2,)),
    'in-e-count-nan': ('raises', 'ValueError', 'covering count must be at least 1'),
    'in-e-count-zero': ('raises', 'ValueError', 'covering count must be at least 1'),
    'in-e-count-neg-zero': ('raises', 'ValueError', 'covering count must be at least 1'),
    'in-e-count-inf': ('value', 'True', 'bool', None, None),
    'in-e-count-neg-inf': ('raises', 'ValueError', 'covering count must be at least 1'),
    'in-e-count-0d': ('value', 'True', 'bool', None, None),
    'report-eta-one': ('raises', 'ValueError', 'every solved ratio must exceed 1'),
    'report-eta-nan-beside-one': ('raises', 'ValueError', 'every solved ratio must exceed 1'),
    'report-eta-nan': ('raises', 'ValueError', 'every solved ratio must exceed 1'),
    'report-eta-neg-zero': ('raises', 'ValueError', 'every solved ratio must exceed 1'),
    'report-eta-zero': ('raises', 'ValueError', 'every solved ratio must exceed 1'),
    'report-eta-inf': ('raises', 'ValueError', 'gamma = eps * eta overflows the float range'),
    'report-eta-neg-inf': ('raises', 'ValueError', 'every solved ratio must exceed 1'),
    'report-radius-nan': ('raises', 'ValueError', 'every resolution must be positive and finite'),
    'report-radius-zero': ('raises', 'ValueError', 'every resolution must be positive and finite'),
    'report-radius-neg': ('raises', 'ValueError', 'every resolution must be positive and finite'),
    'report-radius-neg-inf':
        ('raises', 'ValueError', 'every resolution must be positive and finite'),
    'report-gamma-overflow':
        ('raises', 'ValueError', 'gamma = eps * eta overflows the float range'),
    'report-empty': ('value', '(0.0, (0, 2))', 'tuple', None, None),
    'report-empty-list': ('value', '(0.0, (0, 2))', 'tuple', None, None),
    'report-0d': ('raises', 'ValueError', 'need a (k, 2) eta curve'),
    'report-flat': ('raises', 'ValueError', 'need a (k, 2) eta curve'),
    'report-rows': ('value', '(0.6000000000000001, (2, 2))', 'tuple', None, None),
    'witness-decreasing': ('raises', 'ValueError', 'edges must be nondecreasing'),
    'witness-nan-inside': ('raises', 'ValueError', 'edges must be nondecreasing'),
    'witness-nan-end': ('raises', 'ValueError', 'edges must tile the full domain'),
    'witness-neg-zero': ('value', '(-1.0, -0.0, 0.0, 1.0)', 'tuple', None, None),
    'witness-inf-inside': ('raises', 'ValueError', 'edges must be nondecreasing'),
    'witness-neg-inf-inside': ('raises', 'ValueError', 'edges must be nondecreasing'),
    'witness-empty': ('raises', 'ValueError', 'a witness needs k >= 1 values and 2k edges'),
    'witness-0d': ('raises', 'TypeError', "'numpy.float64' object is not iterable"),
    'witness-equal-edges': ('value', '(-1.0, 0.0, 0.0, 1.0)', 'tuple', None, None),
}


@pytest.mark.parametrize("name, call", CASES, ids=[case[0] for case in CASES])
def test_check_refuses_and_accepts_as_pinned(name, call):
    assert outcome(call) == EXPECTED[name]


def test_every_case_is_pinned():
    assert sorted(EXPECTED) == sorted(case[0] for case in CASES)
