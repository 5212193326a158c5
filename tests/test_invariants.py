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
