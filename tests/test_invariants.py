"""Relations the best certified bound satisfies in exact arithmetic, tested
where the program's floats keep them exactly."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity import bounds
from rigidity.bounds import LambdaProfile, ProblemParams, rigidity_bound
from rigidity.sets import FinitePoints

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
    p, zeros = ProblemParams(n, 1, d, c=None if n == 1 else c), LambdaProfile.zeros(1)
    gamma = rigidity_bound(p, zeros, FinitePoints(points)).gamma
    scaled = rigidity_bound(p, zeros, FinitePoints([math.ldexp(v, -e) for v in points])).gamma
    assert scaled == math.ldexp(gamma, -e)


# the plateau scan's sets: every product eps * eta is taken at the last
# float of its plateau, so these relations hold exactly, not up to a grid step
SMALL_SETS = st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=bounds._PLATEAU_SCAN_MAX // 2)


@settings(max_examples=150, deadline=None)
@given(points=SMALL_SETS, more=SMALL_SETS, n=st.integers(1, 2), d=st.integers(1, 6),
       c=st.floats(1.0, 10.0), lam=st.sampled_from([0.0, 1e-3, 0.1]))
def test_gamma_does_not_fall_as_the_set_grows(points, more, n, d, c, lam):
    # every greedy anchor of X is at or past the same-numbered one of X u Y,
    # so X's count at any radius is at most the union's
    p, profile = ProblemParams(n, 1, d, c=None if n == 1 else c), LambdaProfile((lam,))
    gamma = rigidity_bound(p, profile, FinitePoints(points)).gamma
    assert gamma <= rigidity_bound(p, profile, FinitePoints(points + more)).gamma


@settings(max_examples=150, deadline=None)
@given(points=SMALL_SETS, n=st.integers(1, 2), d=st.integers(1, 6),
       cs=st.lists(st.floats(1.0, 10.0), min_size=2, max_size=2),
       lam=st.sampled_from([0.0, 1e-3, 0.1]))
def test_gamma_does_not_rise_with_c(points, n, d, cs, lam):
    low, high = sorted(cs if n == 2 else [d + 1.0 + v for v in cs])
    profile, s = LambdaProfile((lam,)), FinitePoints(points)
    gamma = rigidity_bound(ProblemParams(n, 1, d, c=low), profile, s).gamma
    assert rigidity_bound(ProblemParams(n, 1, d, c=high), profile, s).gamma <= gamma


@settings(max_examples=150, deadline=None)
@given(points=SMALL_SETS, n=st.integers(1, 2), d=st.integers(1, 6), c=st.floats(1.0, 10.0),
       lams=st.lists(st.floats(0.0, 10.0) | st.just(0.0), min_size=2, max_size=2))
def test_gamma_does_not_rise_with_lambda_1(points, n, d, c, lams):
    p, s = ProblemParams(n, 1, d, c=None if n == 1 else c), FinitePoints(points)
    low, high = sorted(lams)
    gamma = rigidity_bound(p, LambdaProfile((low,)), s).gamma
    assert rigidity_bound(p, LambdaProfile((high,)), s).gamma <= gamma
