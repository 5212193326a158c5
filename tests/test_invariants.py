"""Relations the best certified bound satisfies in exact arithmetic, tested
where the program's floats keep them exactly, and the bound against its
exact rational reference."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import c_floor
from rigidity import bounds
from rigidity.bounds import LambdaProfile, ProblemParams, rigidity_bound
from rigidity.covering import covering_counts
from rigidity.sets import FinitePoints, PowerSequence
from rigidity.util import log_grid

# scaled by 2**-40, every value, gap and ulp of these stays a normal float
NORMAL_AFTER_SCALING = st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) > 2.0**-900)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(NORMAL_AFTER_SCALING, min_size=2, max_size=bounds._PLATEAU_SCAN_MAX),
       n=st.integers(1, 2), d=st.integers(1, 6), c=st.floats(1.0, 10.0),
       e=st.sampled_from([10, 20, 40]))
@example(points=(np.arange(7) * 0.1).tolist(), n=1, d=3, c=4.0, e=40)
def test_gamma_scales_with_the_set(points, n, d, c, e):
    # with lambda_1 = 0, gamma(2**-e X) = 2**-e gamma(X): every plateau end
    # scales by 2**-e and keeps its count, and eta depends on the count alone
    p = ProblemParams(n, 1, d, c=None if n == 1 else max(c, c_floor(n, d)))
    zeros = LambdaProfile.zeros(1)
    gamma = rigidity_bound(p, zeros, FinitePoints(points)).gamma
    scaled = rigidity_bound(p, zeros, FinitePoints([math.ldexp(v, -e) for v in points])).gamma
    assert scaled == math.ldexp(gamma, -e)


# dyadic points k/2**20 with |k| < 2**20, and shifts by multiples of 2**-20
# up to 2**12: every x + t is exact
DYADIC = st.integers(-2**20, 2**20).map(lambda k: math.ldexp(k, -20))


@settings(max_examples=100, deadline=None)
@given(points=st.lists(DYADIC, min_size=2, max_size=bounds._PLATEAU_SCAN_MAX // 2),
       shift=st.integers(-2**32, 2**32).map(lambda k: math.ldexp(k, -20)),
       d=st.integers(1, 6), lam=st.sampled_from([0.0, 1e-3]))
@example(points=[0.0, 0.0625, 0.125], shift=1.0, d=1, lam=0.0)
def test_gamma_is_invariant_under_exact_translation(points, shift, d, lam):
    # every x + t is exact, so X + t has the gaps of X and the same exact
    # counts; the float sweep gave gamma(X) = 0x1.7fffffffffffep-5 and
    # gamma(X + 1) = 0x1.7fffffffffff3p-5 on the example
    moved = [x + shift for x in points]
    assert all(Fraction(m) == Fraction(x) + Fraction(shift) for x, m in zip(points, moved))
    p, profile = ProblemParams(1, 1, d), LambdaProfile((lam,))
    gamma = rigidity_bound(p, profile, FinitePoints(points)).gamma
    assert rigidity_bound(p, profile, FinitePoints(moved)).gamma == gamma


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.floats(-1e6, 1e6) | st.floats(-1e-300, 1e-300), min_size=2,
                       max_size=bounds._PLATEAU_SCAN_MAX),
       n=st.integers(1, 2), d=st.integers(1, 6), lam=st.sampled_from([0.0, 1e-3]))
@example(points=[1 + 2.0**-52, 1 + 2.0**-51, 1 + 3 * 2.0**-52], n=1, d=1, lam=0.0)
def test_gamma_is_invariant_under_reflection(points, n, d, lam):
    # -X has the gaps of X, so it has the same exact counts at every radius
    p = ProblemParams(n, 1, d, c=None if n == 1 else c_floor(n, d))
    profile = LambdaProfile((lam,))
    gamma = rigidity_bound(p, profile, FinitePoints(points)).gamma
    assert rigidity_bound(p, profile, FinitePoints([-x for x in points])).gamma == gamma


FAMILY_GRID = log_grid(1e-5, 0.5, 50)


def test_a_power_sequence_qualifies_wherever_its_prefix_does():
    # the prefix {m**alpha : m <= J} lies in the sequence, so at every shared
    # grid radius where the prefix's count beats the baseline, the
    # sequence's does too, and by at least as much
    rng = np.random.default_rng(37)
    for _ in range(120):
        alpha, size = float(rng.uniform(-4.0, -0.3)), int(rng.integers(2, 401))
        p = ProblemParams(1, 1, int(rng.integers(1, 6)))
        profile = LambdaProfile((float(rng.choice([0.0, 1e-3])),))
        prefix = FinitePoints([m**alpha for m in range(1, size + 1)])
        rows = rigidity_bound(p, profile, prefix, FAMILY_GRID).eta_curve
        power = rigidity_bound(p, profile, PowerSequence(alpha), FAMILY_GRID).eta_curve
        power = dict(power.tolist())
        for eps, eta in rows[np.isin(rows[:, 0], FAMILY_GRID)].tolist():
            assert power.get(eps, 1.0) >= eta, (alpha, size, eps)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="one float below a half gap t = fl(q - 2*eps) rounds down past "
                          "a term the exact ball misses: the power sweep covers it and "
                          "needs one ball fewer than the exact count of its own prefix")
@pytest.mark.parametrize("alpha, size, eps, exact", [
    (-3.8809637888806394, 40, 0.00021499408657168185, 8),
    (-2.5833766823551665, 60, 0.00609836758424472, 6),
])
def test_a_power_sequence_counts_at_least_its_prefix(alpha, size, eps, exact):
    # the prefix's count is the greedy count of its terms in exact rational
    # arithmetic; the sequence's reads one below it
    terms = [m**alpha for m in range(1, size + 1)]
    exact_terms = sorted(map(Fraction, terms))
    anchors = exact_terms[:1]
    for x in exact_terms:
        if x > anchors[-1] + 2 * Fraction(eps):
            anchors.append(x)
    assert len(anchors) == exact
    assert covering_counts(FinitePoints(terms), [eps])[0] == exact
    assert covering_counts(PowerSequence(alpha), [eps])[0] >= exact


# the plateau scan's sets: every product eps * eta is taken at the last
# float of its plateau, so these relations hold exactly, not up to a grid step
SMALL_SETS = st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=bounds._PLATEAU_SCAN_MAX // 2)


@settings(max_examples=150, deadline=None)
@given(points=SMALL_SETS, more=SMALL_SETS, n=st.integers(1, 2), d=st.integers(1, 6),
       c=st.floats(1.0, 10.0), lam=st.sampled_from([0.0, 1e-3, 0.1]))
def test_gamma_does_not_fall_as_the_set_grows(points, more, n, d, c, lam):
    # every greedy anchor of X is at or past the same-numbered one of X u Y,
    # so X's count at any radius is at most the union's
    p = ProblemParams(n, 1, d, c=None if n == 1 else max(c, c_floor(n, d)))
    profile = LambdaProfile((lam,))
    gamma = rigidity_bound(p, profile, FinitePoints(points)).gamma
    assert gamma <= rigidity_bound(p, profile, FinitePoints(points + more)).gamma


@settings(max_examples=150, deadline=None)
@given(points=SMALL_SETS, n=st.integers(1, 2), d=st.integers(1, 6),
       cs=st.lists(st.floats(1.0, 10.0), min_size=2, max_size=2),
       lam=st.sampled_from([0.0, 1e-3, 0.1]))
def test_gamma_does_not_rise_with_c(points, n, d, cs, lam):
    low, high = sorted([(d + 1.0 if n == 1 else c_floor(n, d) - 1.0) + v for v in cs])
    profile, s = LambdaProfile((lam,)), FinitePoints(points)
    gamma = rigidity_bound(ProblemParams(n, 1, d, c=low), profile, s).gamma
    assert rigidity_bound(ProblemParams(n, 1, d, c=high), profile, s).gamma <= gamma


@settings(max_examples=150, deadline=None)
@given(points=SMALL_SETS, n=st.integers(1, 2), d=st.integers(1, 6), c=st.floats(1.0, 10.0),
       lams=st.lists(st.floats(0.0, 10.0) | st.just(0.0), min_size=2, max_size=2))
def test_gamma_does_not_rise_with_lambda_1(points, n, d, c, lams):
    p = ProblemParams(n, 1, d, c=None if n == 1 else max(c, c_floor(n, d)))
    s = FinitePoints(points)
    low, high = sorted(lams)
    gamma = rigidity_bound(p, LambdaProfile((low,)), s).gamma
    assert rigidity_bound(p, LambdaProfile((high,)), s).gamma <= gamma


def test_exact_bound_of_the_seven_point_set():
    # only the plateau below the least half gap h counts 7 > c = 6, and
    # there t = eta**(1/5) = 7/6: the kept lower end is within 2**-80 of it
    points = (np.arange(7) * 0.1).tolist()
    h = min(Fraction(y) - Fraction(x) for x, y in zip(points, points[1:])) / 2
    want = h * Fraction(7, 6) ** 5
    got = oracles.exact_bound(points, ProblemParams(1, 1, 5), LambdaProfile.zeros(1))
    assert want * (1 - Fraction(1, 2**78)) <= got <= want


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=oracles.BRUTE_FORCE_LIMIT),
       n=st.integers(1, 2), d=st.integers(1, 6), c=st.floats(1.0, 10.0),
       lam=st.sampled_from([0.0, 1e-3]))
@example(points=[1 + 2.0**-52, 1 + 2.0**-51, 1 + 3 * 2.0**-52], n=2, d=1, c=2.0, lam=0.0)
def test_gamma_is_at_most_the_exact_bound(points, n, d, c, lam):
    # the scan takes every plateau at its last float, so gamma is the exact
    # sup up to the roundings of the plateau end, eta and the product: 1e-12
    # either way (the float sweep gave half the sup on the example)
    p = ProblemParams(n, 1, d, c=None if n == 1 else max(c, c_floor(n, d)))
    profile = LambdaProfile((lam,))
    gamma = Fraction(rigidity_bound(p, profile, FinitePoints(points)).gamma)
    exact = oracles.exact_bound(points, p, profile)
    assert exact * (1 - Fraction(1, 10**12)) <= gamma <= exact * (1 + Fraction(1, 10**12))
