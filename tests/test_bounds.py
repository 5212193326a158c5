"""Tests for the inverse-bound machinery.

Covers the ratio polynomial and its inverse (in closed form at n = 1, by
Newton above), the count-threshold radius, closed-form agreement on the
canonical equally-spaced instance, the power-sequence dichotomy, and the
report invariants.
"""

import json
import math
import re
import signal
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rigidity.bounds import (
    EXCLUDED,
    BoundReport,
    LambdaProfile,
    ProblemParams,
    classify_power_sequence,
    critical_point_rigidity_reduction,
    epsilon0,
    gamma_closed_form,
    in_E,
    rhs_polynomial,
    rigidity_bound,
    solve_eta,
)
from rigidity import bounds
from rigidity.covering import (
    covering_counts,
    covering_number_power,
    default_grid,
    exact_counter,
)
from rigidity.sets import FinitePoints, PowerSequence, SampledCloud, diameter
from rigidity.util import log_grid

from conftest import cantor_like, stratified_uniform
from oracles import (BRUTE_FORCE_LIMIT, bisect_epsilon0, brute_force_covering_oracle,
                     newton_line_eta, plateau_sup, c_floor)


def seven_points():
    return FinitePoints(np.arange(7) * 0.1)


P15 = ProblemParams(n=1, m=1, d=5)  # c defaults to 6
Z1 = LambdaProfile.zeros(1)


class TestProblemParams:
    def test_default_constant_one_dimensional(self):
        assert ProblemParams(1, 1, 5).c == 6.0
        assert ProblemParams(1, 1, 1).c == 2.0

    def test_higher_dimensions_need_explicit_constant(self):
        with pytest.raises(ValueError):
            ProblemParams(2, 1, 3)
        assert ProblemParams(2, 1, 3, c=2.0).c == 2.0

    def test_one_dimensional_constant_is_at_least_d_plus_one(self):
        # below d + 1 the bound is unsound; above it only weakens
        with pytest.raises(ValueError, match="at least d \\+ 1"):
            ProblemParams(1, 1, 5, c=5.999)
        assert ProblemParams(1, 1, 5, c=6).c == 6.0
        assert ProblemParams(1, 1, 5, c=9.5).c == 9.5

    @pytest.mark.parametrize("c", [0.5, 1 - 2.0**-53, 1e-300])
    def test_constant_below_one_is_refused(self, c):
        # at eta = 1 and lambda = 0 the bound is c, but two critical values
        # need two balls: the floor max(2, (d - 2)**n) speaks for n >= 2
        with pytest.raises(ValueError, match=re.escape("at least max(2, (d - 2)**n) = 2, ")):
            ProblemParams(2, 1, 1, c=c)
        # for n = 1 the d + 1 rule speaks first
        with pytest.raises(ValueError, match="at least d \\+ 1"):
            ProblemParams(1, 1, 1, c=c)
        assert ProblemParams(2, 1, 1, c=2.0).c == 2.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", [1, 2])
    def test_floor_on_the_constant_for_n_at_least_2(self, n, d, m):
        # two critical values set the floor 2 up to d = 3, the separable
        # family sum_i p(z_i) with deg p = d - 1 sets (d - 2)**n from d = 4 on
        floor = c_floor(n, d)
        assert ProblemParams(n, m, d, c=floor).c == floor
        named = "2" if d <= 3 else f"{d - 2}**{n}"
        with pytest.raises(ValueError, match=re.escape(f"(d - 2)**n) = {named}, the count of")):
            ProblemParams(n, m, d, c=math.nextafter(floor, 0.0))

    def test_floor_past_the_float_range_is_never_built(self):
        # 998**1e9 has about 3e9 digits: the floor compares logs there
        start = time.perf_counter()
        with pytest.raises(ValueError, match="998\\*\\*1000000000, the count"):
            ProblemParams(n=10**9, m=1, d=1000, c=5.0)
        with pytest.raises(ValueError, match="c must be at least max"):
            ProblemParams(n=10**9, m=1, d=1000, c=sys.float_info.max)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=1, d=1),
            dict(n=1, m=0, d=1),
            dict(n=1, m=2, d=1),  # m > n
            dict(n=1, m=1, d=0),
            dict(n=1, m=1, d=1, r=0.0),
            dict(n=1, m=1, d=1, r=-2.0),
            dict(n=1, m=1, d=1, r=math.inf),
            dict(n=1, m=1, d=1, c=0.0),
            dict(n=1, m=1, d=1, c=-3.0),
            dict(n=1.5, m=1, d=1),
            dict(n=True, m=1, d=2),  # a bool is not an integer
            dict(n=2, m=True, d=2, c=1.0),
            dict(n=1, m=1, d=True),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ProblemParams(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            P15.n = 2

    def test_m_above_n_keeps_its_range_message(self):
        with pytest.raises(ValueError, match="m must be an integer with 1 <= m <= n"):
            ProblemParams(1, 2, 1)

    def test_numpy_integers_are_stored_as_python_ints(self):
        p = ProblemParams(np.int64(1), np.int64(1), np.int64(3))
        assert [type(v) for v in (p.n, p.m, p.d)] == [int, int, int]
        assert p.c == 4.0
        report = rigidity_bound(p, Z1, seven_points())
        blob = json.loads(json.dumps(report.to_json_dict()))
        assert blob["params"] == {"n": 1, "m": 1, "d": 3, "r": 1.0, "c": 4.0, "lambdas": [0.0]}


class TestLambdaProfile:
    def test_zeros(self):
        prof = LambdaProfile.zeros(3)
        assert prof.lambdas == (0.0, 0.0, 0.0)
        assert not any(prof.lambdas)
        assert len(prof) == 3

    def test_nondecreasing_required(self):
        LambdaProfile((0.1, 0.1, 0.5))  # ties allowed
        with pytest.raises(ValueError):
            LambdaProfile((0.5, 0.1))

    @pytest.mark.parametrize("bad", [(), (-1.0,), (math.nan,), (math.inf,)])
    def test_rejects_bad_thresholds(self, bad):
        with pytest.raises(ValueError):
            LambdaProfile(bad)


def separable_critical_values(n: int, d: int) -> list:
    """The (d - 2)**n distinct critical values of g(z) = sum_i a_i p(z_i),
    where p has degree d - 1 and the d - 2 critical points 1 + j/10 + j**2/100,
    and the weights a_i are generic: g has a zero d-th derivative."""
    roots = [1.0 + j / 10.0 + j * j / 100.0 for j in range(d - 2)]
    p = np.polynomial.Polynomial.fromroots(roots).integ()
    weights = [1.0, math.pi / 3.0, math.e / 5.0, math.sqrt(2.0) / 7.0][:n]
    values = {0.0}
    for a in weights:
        values = {v + a * p(r) for v in values for r in roots}
    return sorted(values)


class TestConstantFloor:
    """At c = max(2, (d - 2)**n) two critical values D apart get gamma <= mu_d * D
    (mu_1 = mu_2 = 1/2, mu_3 = 1/4, 0 from d = 4 on), below the scale of every
    map that realizes them, and the separable family, of scale 0, gets 0; one
    float below the floor, ``bound`` exits 3."""

    MU = {1: 0.5, 2: 0.5, 3: 0.25}

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_two_points_and_the_separable_family(self, n, d, tmp_path):
        from rigidity.cli import main

        p = ProblemParams(n, 1, d, c=c_floor(n, d))
        for D in (1.0, 3e-7, 2e300):
            report = rigidity_bound(p, Z1, FinitePoints([0.0, D]))
            assert report.gamma <= self.MU.get(d, 0.0) * D
        if d >= 3:
            values = separable_critical_values(n, d)
            assert len(values) == (d - 2) ** n
            assert rigidity_bound(p, Z1, FinitePoints(values)).gamma == 0.0
        below = repr(math.nextafter(p.c, 0.0))
        argv = ["bound", "--set", '{"type": "finite", "points": [0, 1]}', "--n", str(n),
                "--d", str(d), "--c", below, "--out", str(tmp_path / "r.json")]
        assert main(argv) == 3


class TestRhsPolynomial:
    def test_baseline_is_the_constant(self):
        # zero first threshold kills every term past i = 0; eta = 1 leaves c
        for eps in (1e-6, 0.3, 7.0):
            assert rhs_polynomial(P15, Z1, eps, 1.0) == 6.0

    def test_two_term_hand_value(self):
        # c=2: 2 * (8^(2/3) + 0.5*(1/0.25)*8^(1/3)) = 2 * (4 + 4)
        p = ProblemParams(n=2, m=1, d=3, r=1.0, c=2.0)
        val = rhs_polynomial(p, LambdaProfile((0.5,)), 0.25, 8.0)
        assert val == pytest.approx(16.0, rel=1e-14)

    def test_all_zero_profile_single_power(self):
        p = ProblemParams(n=1, m=1, d=5)
        assert rhs_polynomial(p, Z1, 0.017, 32.0) == pytest.approx(12.0, rel=1e-14)
        p2 = ProblemParams(n=3, m=2, d=2, c=2.5)
        eta = 4.0
        got = rhs_polynomial(p2, LambdaProfile.zeros(2), 1.0, eta)
        assert got == pytest.approx(2.5 * eta ** 1.5, rel=1e-14)

    def test_overflow_reads_inf_without_a_warning(self):
        # r/eps = 9e307 is finite, c times it is not: that radius never qualifies
        p = ProblemParams(1, 1, 1, r=9e153)  # c = 2
        assert rhs_polynomial(p, LambdaProfile((1.0,)), 1e-154, 1.0) == math.inf

    def test_preconditions(self):
        with pytest.raises(ValueError):
            rhs_polynomial(P15, Z1, 0.0, 2.0)
        with pytest.raises(ValueError):
            rhs_polynomial(P15, Z1, 0.5, 0.9)
        with pytest.raises(ValueError):
            rhs_polynomial(P15, LambdaProfile.zeros(2), 0.5, 2.0)

    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 6),
        c=st.floats(1.0, 8.0),
        r=st.floats(0.25, 4.0),
        lams=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
        eps=st.floats(0.01, 2.0),
        eta1=st.floats(1.0, 50.0),
        bump=st.floats(0.01, 50.0),
    )
    @settings(max_examples=150)
    def test_strictly_increasing_in_eta(self, n, d, c, r, lams, eps, eta1, bump):
        m = min(len(lams), n)
        profile = LambdaProfile(tuple(sorted(lams))[:m])
        # the constant is at least d + 1 for n = 1, the floor for n >= 2
        p = ProblemParams(n=n, m=m, d=d, r=r, c=c + (d + 1 if n == 1 else c_floor(n, d)))
        eta2 = eta1 + bump
        v1 = rhs_polynomial(p, profile, eps, eta1)
        v2 = rhs_polynomial(p, profile, eps, eta2)
        assert v2 > v1


class TestForwardUpperBound:
    """The forward bound at derivative scale R is rhs_polynomial at eta = max(R/eps, 1)."""

    def test_coarse_regime_is_flat(self):
        for d in (1, 2, 5):
            p = ProblemParams(1, 1, d)
            for eps in (1.0, 2.0, 10.0):
                assert rhs_polynomial(p, Z1, eps, max(1.0 / eps, 1.0)) == d + 1.0

    def test_fine_regime_hand_value(self):
        # (scale/eps)^(1/5) = 32^(1/5) = 2, so the bound doubles the constant
        eps = 1.0 / 32.0
        assert rhs_polynomial(P15, Z1, eps, max(1.0 / eps, 1.0)) == pytest.approx(
            12.0, rel=1e-14
        )

    @given(
        d=st.integers(1, 6),
        c=st.floats(0.5, 8.0),
        lam=st.floats(0.0, 2.0),
        scale=st.floats(0.01, 10.0),
    )
    @settings(max_examples=100)
    def test_regimes_agree_at_the_seam(self, d, c, lam, scale):
        p = ProblemParams(n=1, m=1, d=d, c=c + d + 1)  # c >= d + 1 for n = 1
        profile = LambdaProfile((lam,))
        flat = rhs_polynomial(p, profile, scale, 1.0)
        ratio = rhs_polynomial(p, profile, scale, scale / scale)
        assert abs(flat - ratio) <= 1e-12 * flat

    def test_rejects_negative_scale(self):
        # a negative scale gives a ratio below 1, which the polynomial refuses
        with pytest.raises(ValueError, match="eta must be at least 1"):
            rhs_polynomial(P15, Z1, 0.5, -1.0 / 0.5)

    def test_rejects_zero_resolution(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            rhs_polynomial(P15, Z1, 0.0, 1.0)


class TestInE:
    def test_strictness(self):
        # baseline is exactly c = 6 here
        assert in_E(P15, Z1, 7, 0.05)
        assert not in_E(P15, Z1, 6, 0.05)
        assert not in_E(P15, Z1, 1, 0.05)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            in_E(P15, Z1, 0, 0.05)


class TestSolveEta:
    def test_plain_threshold_power_solution(self):
        # c*eta^(1/d) = nu  =>  eta = (nu/c)^d
        eta = solve_eta(P15, Z1, 7, 0.05)
        assert eta == pytest.approx((7.0 / 6.0) ** 5, rel=1e-9)

    def test_two_term_hand_solution(self):
        # substitution t = eta^(1/3): 2 * (t^2 + 2t) = 16  =>  t = 2, eta = 8
        p = ProblemParams(n=2, m=1, d=3, r=1.0, c=2.0)
        eta = solve_eta(p, LambdaProfile((0.5,)), 16, 0.25)
        assert eta == pytest.approx(8.0, rel=1e-9)

    def test_approaches_one_at_the_boundary(self):
        p = ProblemParams(n=1, m=1, d=5, c=6.999999)
        eta = solve_eta(p, Z1, 7, 0.05)
        assert 1.0 < eta < 1.00001

    def test_requires_qualifying_count(self):
        with pytest.raises(ValueError):
            solve_eta(P15, Z1, 6, 0.05)

    def test_overflowing_count_over_c_is_refused(self):
        # an infinite count makes every start bound inf; any finite start
        # would lie above the root and be unsound
        p = ProblemParams(2, 1, 1, c=2)
        with pytest.raises(ValueError, match="overflows the float range at c = 2"):
            solve_eta(p, LambdaProfile((0.5,)), math.inf, 0.5)

    def test_overflowing_eta_is_refused(self):
        # the root t = 7**(1/2) is finite but t**d is not: eta, and gamma
        # with it, would read inf, where numpy used to warn of an overflow
        p = ProblemParams(2, 1, 2000, c=c_floor(2, 2000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="eta overflows"):
                solve_eta(p, LambdaProfile((0.0,)), 7 * p.c, 0.6)

    def test_the_floor_keeps_a_plateau_scans_eta_finite(self):
        # n = 2, c = 1 and lambda_1 = 0 gave eta = (nu / c)^(d/2) past the
        # float range for the count 4 at d = 1100.  The floor refuses c = 1,
        # and at the floor (d - 2)**2 no count of at most 24 points beats the
        # baseline, as c >= d + 1 keeps a scan's eta finite at n = 1
        s = FinitePoints([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="c must be at least max"):
            ProblemParams(n=2, m=1, d=1100, c=1.0)
        report = rigidity_bound(ProblemParams(n=2, m=1, d=1100, c=c_floor(2, 1100)), Z1, s)
        assert report.gamma == 0.0 and report.epsilon0 is None

    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 6),
        c=st.floats(1.0, 8.0),
        r=st.floats(0.25, 4.0),
        lams=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
        eps=st.floats(0.01, 2.0),
        factor=st.floats(1.01, 50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_residual_and_monotonicity(self, n, d, c, r, lams, eps, factor):
        m = min(len(lams), n)
        profile = LambdaProfile(tuple(sorted(lams))[:m])
        # the constant is at least d + 1 for n = 1, the floor for n >= 2
        p = ProblemParams(n=n, m=m, d=d, r=r, c=c + (d + 1 if n == 1 else c_floor(n, d)))
        baseline = rhs_polynomial(p, profile, eps, 1.0)
        nu = int(math.ceil(baseline * factor))
        eta = solve_eta(p, profile, nu, eps)
        assert eta > 1.0
        assert abs(rhs_polynomial(p, profile, eps, eta) - nu) <= 1e-9 * nu
        # a larger count never loosens the ratio
        eta_bigger = solve_eta(p, profile, nu + 3, eps)
        assert eta_bigger > eta


LAMBDAS = st.sampled_from([0.0, 1e-300, 2.0**-53, 1e-3, 0.5, 1.0, 3.0, 1e150, 1e300,
                           sys.float_info.max])


class TestSolveEtaBaseline:
    """``solve_eta`` refuses exactly the counts at or below
    ``rhs_polynomial(..., 1.0)``, which it takes from its own coefficient
    table: a count one ulp above it passes the check, a count equal to it
    is refused, entry by entry."""

    @given(
        n=st.integers(1, 3),
        drop=st.integers(0, 2),
        d=st.integers(1, 6),
        c=st.floats(1.0, 8.0) | st.sampled_from([1e300]),
        r=st.floats(0.25, 4.0),
        lams=st.lists(LAMBDAS | st.floats(0.0, 1e308), min_size=3, max_size=3),
        eps=st.lists(st.floats(1e-300, 4.0) | st.sampled_from([5e-324, 1e-100]),
                     min_size=1, max_size=4),
    )
    @example(n=3, drop=0, d=2, c=1e300, r=4.0, lams=[0.0, 1e300, 1e300], eps=[1e-3, 1.0])
    @example(n=2, drop=0, d=1, c=1.0, r=1.0, lams=[1e300, 1e300, 1e300], eps=[1e-10, 0.5])
    # terms 1, u/2, u/2, u/2 (u = ulp(1)): summed in another order they round to 1 + u
    @example(n=3, drop=0, d=1, c=1.0, r=1.0, lams=[2.0**-53, 1.0, 1.0], eps=[1.0, 0.5])
    @settings(max_examples=300, deadline=None)
    def test_refuses_exactly_at_the_baseline(self, n, drop, d, c, r, lams, eps):
        m = max(1, n - drop)
        profile = LambdaProfile(tuple(sorted(lams))[:m])
        # the constant is at least d + 1 for n = 1, the floor for n >= 2
        p = ProblemParams(n=n, m=m, d=d, r=r, c=c + (d + 1 if n == 1 else c_floor(n, d) - 1))
        eps = np.array(eps)
        base = rhs_polynomial(p, profile, eps, 1.0)
        # one entry appended at its baseline is refused; the error names the
        # first refused entry, so naming the last says every other one passed
        eps_all = np.append(eps, eps[0])
        above = np.nextafter(base, math.inf)
        for k in range(eps_all.size):
            nu = np.append(above, above[0])
            nu[k] = np.append(base, base[0])[k]
            first = min([k] + np.flatnonzero(np.isinf(nu)).tolist())
            with pytest.raises(ValueError, match="does not exceed the baseline") as info:
                solve_eta(p, profile, nu, eps_all)
            assert str(info.value).startswith(f"count {nu[first]} does not exceed")
        for e, b in zip(eps.tolist(), base.tolist()):
            with pytest.raises(ValueError, match="does not exceed the baseline"):
                solve_eta(p, profile, b, e)

    def test_refuses_bad_radii_and_profiles(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            solve_eta(P15, Z1, 7, 0.0)
        with pytest.raises(ValueError, match="profile length must equal m"):
            solve_eta(P15, LambdaProfile.zeros(2), 7, 0.05)


def outcome(call):
    """The bytes of the array a call returns, or the message of its ValueError."""
    try:
        return call().tobytes()
    except ValueError as exc:
        return str(exc)


class TestSolveEtaErrorScope:
    """At n >= 2 ``solve_eta`` runs Newton inside the one error-state scope
    that lets the baseline, the start bounds and eta overflow.  Run with
    overflow, division by zero and invalid operations raised, Newton's
    scaling and steps raise none, from counts just above the baseline up to
    the float range, so the scope hides nothing Newton would report."""

    @given(
        n=st.integers(2, 4),
        drop=st.integers(0, 3),
        d=st.integers(1, 200),
        c=st.floats(1.0, 8.0) | st.sampled_from([1e150, 1e300]),
        r=st.floats(0.25, 4.0),
        lams=st.lists(LAMBDAS | st.floats(0.0, 1e308), min_size=4, max_size=4),
        eps=st.lists(st.floats(1e-300, 4.0) | st.sampled_from([5e-324, 1e-100]),
                     min_size=1, max_size=4),
        lift=st.sampled_from([0.0, 2.0**-40, 1.0, 1e6, 1e100, 1e300]),
    )
    @example(n=2, drop=0, d=2000, c=1.0, r=1.0, lams=[0.0] * 4, eps=[0.6], lift=6.0)
    @example(n=4, drop=0, d=1, c=1e300, r=4.0, lams=[1e300] * 4, eps=[5e-324, 1e-3], lift=0.0)
    # counts within a factor (n+1)**2 of the float range, where c * f overflows unscaled
    @example(n=4, drop=0, d=1, c=2.0, r=2.0, lams=[0.5, 0.5, 3.0, 1.896004478175099e307],
             eps=[1.5], lift=0.0)
    @example(n=4, drop=0, d=1, c=1.0, r=2.0, lams=[0.5, 1.0, 3.0, 1.896004478175099e307],
             eps=[1.5], lift=0.0)
    # 1.0 + a_1 rounds to a_1 = 2.5e99, and a step lands on a negative t: eta reads 1 + ulp
    @example(n=2, drop=1, d=4, c=7.5, r=0.25, lams=[1.0] * 4, eps=[1e-100], lift=0.0)
    @settings(max_examples=300, deadline=None)
    def test_newton_steps_raise_no_float_error(self, n, drop, d, c, r, lams, eps, lift):
        m = max(1, n - drop)
        profile = LambdaProfile(tuple(sorted(lams))[:m])
        p = ProblemParams(n=n, m=m, d=d, r=r, c=max(c, c_floor(n, d)))
        eps = np.array(eps)
        with np.errstate(over="ignore"):
            nu = np.nextafter(rhs_polynomial(p, profile, eps, 1.0) * (1.0 + lift), math.inf)
        keep = np.isfinite(nu)
        assume(keep.any())
        nu, eps = nu[keep], eps[keep]
        newton_root = bounds._newton_root

        def raising(*args):
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return newton_root(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_newton_root", raising)
            solved = outcome(lambda: solve_eta(p, profile, nu, eps))
        # the etas, or eta past the float range, refused after Newton
        assert isinstance(solved, bytes) or "eta overflows" in solved


class TestArraySolver:
    def test_arrays_match_scalar_calls(self):
        p = ProblemParams(n=2, m=2, d=3, r=1.5, c=2.0)
        profile = LambdaProfile((0.25, 0.5))
        eps = np.array([0.05, 0.2, 1.0])
        etas = np.array([1.0, 3.5, 40.0])
        vals = rhs_polynomial(p, profile, eps, etas)
        assert isinstance(vals, np.ndarray) and vals.shape == (3,)
        for e, eta, v in zip(eps.tolist(), etas.tolist(), vals.tolist()):
            assert v == pytest.approx(rhs_polynomial(p, profile, e, eta), rel=1e-14)
        nu = np.ceil(rhs_polynomial(p, profile, eps, 1.0) * 1.5).astype(int)
        assert in_E(p, profile, nu, eps).tolist() == [True] * 3
        solved = solve_eta(p, profile, nu, eps)
        for n_, e, eta in zip(nu.tolist(), eps.tolist(), solved.tolist()):
            assert eta == pytest.approx(solve_eta(p, profile, n_, e), rel=1e-12)

    def test_scalars_give_python_scalars(self):
        assert type(rhs_polynomial(P15, Z1, 0.05, 2.0)) is float
        assert type(in_E(P15, Z1, 7, 0.05)) is bool
        assert type(solve_eta(P15, Z1, 7, 0.05)) is float
        assert type(solve_eta(P15, LambdaProfile((0.5,)), 12, 1.0)) is float

    def test_counts_broadcast_against_one_radius(self):
        etas = solve_eta(P15, Z1, np.array([7, 8, 9]), 0.05)
        assert etas.tolist() == pytest.approx([(k / 6.0) ** 5 for k in (7, 8, 9)], rel=1e-14)

    def test_one_short_count_rejects_the_call(self):
        with pytest.raises(ValueError, match="count 6 does not exceed"):
            solve_eta(P15, Z1, np.array([7, 6, 9]), np.array([0.05, 0.05, 0.05]))
        with pytest.raises(ValueError):
            in_E(P15, Z1, np.array([3, 0]), 0.05)

    def test_closed_form_stays_above_one(self):
        # nu / c rounds to 1 + ulp; the (d/n)-th root would round back to 1
        p = ProblemParams(n=3, m=1, d=1, c=math.nextafter(7.0, 0.0))
        assert solve_eta(p, Z1, 7, 0.05) > 1.0

    def test_lockstep_entries_stop_on_their_own(self):
        # entries whose Newton runs take very different numbers of steps give
        # the same ratios as one call each; with n = d = 1 the start
        # (nu/c)^(1/n) and the final t^d need no inexact pow
        p = ProblemParams(n=1, m=1, d=1)
        profile = LambdaProfile((1e-3,))
        eps = np.array([0.5, 0.01, 1e-4])
        nu = np.array([7, 200, 10**6])
        solved = solve_eta(p, profile, nu, eps).tolist()
        assert solved == [solve_eta(p, profile, k, e) for k, e in zip(nu.tolist(), eps.tolist())]

    def test_closed_form_matches_exact_power(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2308)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(300):
                n, d = int(rng.integers(1, 4)), int(rng.integers(1, 16))
                c = float(rng.uniform(1.0, 1000.0))
                c = max(c, d + 1.0) if n == 1 else max(c, c_floor(n, d))
                p = ProblemParams(n=n, m=1, d=d, c=c)
                counts = rng.integers(math.floor(c) + 1, 10**6, 20)
                # the array call and a scalar call take different pow routines
                etas = solve_eta(p, Z1, counts, 1.0).tolist()
                etas.append(solve_eta(p, Z1, int(counts[0]), 1.0))
                for nu, eta in zip(counts.tolist() + [int(counts[0])], etas):
                    exact = (mpmath.mpf(nu) / mpmath.mpf(c)) ** (mpmath.mpf(d) / n)
                    worst = max(worst, float(abs(mpmath.mpf(eta) / exact - 1)))
        assert worst <= 1e-13

    def test_matches_exact_root(self):
        mpmath = pytest.importorskip("mpmath")

        def exact(p, profile, nu, eps):
            """40-digit root eta and its condition number f / (t f') in t."""
            ratio, prod, coeffs = mpmath.mpf(p.r) / mpmath.mpf(eps), mpmath.mpf(1), []
            for i in range(p.m + 1):
                prod *= mpmath.mpf(profile.lambdas[i - 1]) if i > 0 else 1
                coeffs.append(prod * ratio**i)
            f = lambda t: sum(a * t ** (p.n - i) for i, a in enumerate(coeffs))
            df = lambda t: sum((p.n - i) * a * t ** (p.n - i - 1) for i, a in enumerate(coeffs))
            top = (mpmath.mpf(nu) / p.c) ** (mpmath.mpf(1) / p.n)
            t = mpmath.findroot(lambda t: p.c * f(t) - nu, (mpmath.mpf(1), top), solver="anderson")
            return t ** p.d, f(t) / (t * df(t))

        rng = np.random.default_rng(2308)
        with mpmath.workdps(40):
            for _ in range(100):
                n = int(rng.integers(1, 4))
                m, d = int(rng.integers(1, n + 1)), int(rng.integers(1, 16))
                c = float(rng.uniform(1.0, 8.0)) + (d + 1 if n == 1 else c_floor(n, d))
                p = ProblemParams(n=n, m=m, d=d, r=float(rng.uniform(0.5, 2.0)), c=c)
                profile = LambdaProfile(tuple(np.sort(rng.uniform(1e-3, 2.0, m))))
                eps = 10.0 ** rng.uniform(-3, 0, 10)
                baseline = rhs_polynomial(p, profile, eps, 1.0)
                nu = np.maximum(np.floor(baseline) + 1,
                                np.ceil(baseline * 10.0 ** rng.uniform(0, 4, 10))).astype(np.int64)
                for k, e, eta in zip(nu.tolist(), eps.tolist(), solve_eta(p, profile, nu, eps).tolist()):
                    root, kappa = exact(p, profile, k, e)
                    # float coefficients and a float polynomial resolve t only
                    # to a few kappa ulps, and eta = t^d multiplies that by d;
                    # kappa <= 1 for m < n, large near the baseline for m = n
                    assert abs(eta / root - 1) <= 8 * d * kappa * 2.0**-53
            # counts one above the baseline put the root just above 1; for m = n
            # the start is about r/eps, far above it
            for n, m, low in ((3, 1, -9), (2, 2, -4), (3, 3, -3)):
                p, profile = ProblemParams(n=n, m=m, d=15, c=c_floor(n, 15)), LambdaProfile((1.0,) * m)
                eps = np.logspace(low, 0, 19)
                nu = np.floor(rhs_polynomial(p, profile, eps, 1.0)).astype(np.int64) + 1
                for k, e, eta in zip(nu.tolist(), eps.tolist(), solve_eta(p, profile, nu, eps).tolist()):
                    root, kappa = exact(p, profile, k, e)
                    assert eta > 1.0
                    assert abs(eta / root - 1) <= 8 * 15 * kappa * 2.0**-53


def exact_line_root(p, profile, nu, eps) -> Fraction:
    """The exact root t* = nu/c - lambda_1 * r/eps of the n = 1 ratio equation."""
    return Fraction(nu) / Fraction(p.c) - Fraction(profile.lambdas[0]) * Fraction(p.r) / Fraction(eps)


class TestLineSolve:
    """At n = 1 the ratio equation c * (t + a_1) = nu is linear, and
    ``solve_eta`` takes its root in closed form, each rounding stepped one
    float toward a smaller t, so that t and eta = t^d never exceed the exact
    root and its power: the bound stays certified in floating point."""

    @given(
        d=st.integers(1, 9),
        c=st.floats(2.0, 40.0),
        r=st.floats(1e-3, 1e3),
        lam=st.just(0.0) | st.floats(1e-300, 1e300),
        eps=st.floats(1e-300, 1e300),
        lift=st.just(0.0) | st.floats(2.0**-40, 1e300),
    )
    @example(d=2, c=13.5, r=0.25, lam=1.0, eps=1e-100, lift=0.0)  # the cancellation draw
    @settings(max_examples=300, deadline=None)
    def test_closed_form_never_exceeds_the_exact_root(self, d, c, r, lam, eps, lift):
        profile = LambdaProfile((lam,))
        p = ProblemParams(1, 1, d, r, max(c, d + 1.0))
        with np.errstate(over="ignore"):
            nu = np.nextafter(rhs_polynomial(p, profile, eps, 1.0) * (1.0 + lift), math.inf)
        assume(math.isfinite(nu))
        root, floor = exact_line_root(p, profile, nu, eps), math.nextafter(1.0, 2.0)
        # at d = 1 eta is the rounded t itself, or 1 + ulp where t <= 1
        t = solve_eta(ProblemParams(1, 1, 1, r, p.c), profile, nu, eps)
        assert t == floor or Fraction(t) <= root
        try:
            eta = solve_eta(p, profile, nu, eps)
        except ValueError as exc:  # refused only where the exact eta passes the float range
            assert str(exc) == f"eta overflows the float range at c = {p.c:g}"
            assert root**d > Fraction(sys.float_info.max)
            return
        assert eta == floor or Fraction(eta) <= root**d

    def test_no_eta_exceeds_newtons_on_a_seeded_sample(self):
        # Newton, as solved before the closed form, ends within a few ulps of
        # nu/c of the root on either side, the closed form 0.25 to about 5 below
        rng = np.random.default_rng(41)
        for _ in range(2000):
            d, c = int(rng.integers(1, 10)), float(rng.uniform(2.0, 40.0))
            p = ProblemParams(1, 1, d, float(10 ** rng.uniform(-3, 3)), max(c, d + 1.0))
            profile = LambdaProfile((0.0 if rng.random() < 0.3 else float(10 ** rng.uniform(-8, 8)),))
            eps = float(10 ** rng.uniform(-6, 1))
            base = rhs_polynomial(p, profile, eps, 1.0)
            nu = float(math.floor(base * 10 ** rng.uniform(0, 3)) + 1)
            assert solve_eta(p, profile, nu, eps) <= newton_line_eta(p, profile, nu, eps)
        # but Newton may end further below: here 3.3 ulps of nu/c below t*,
        # the closed form 2.4 below
        p, profile = ProblemParams(1, 1, 6, 0.18741405225766386, 22.248730729325693), \
            LambdaProfile((5.395474546809725e-08,))
        nu, eps = 535.0, 4.395505094129282e-10
        eta, newton = solve_eta(p, profile, nu, eps), newton_line_eta(p, profile, nu, eps)
        assert newton < eta and Fraction(eta) <= exact_line_root(p, profile, nu, eps) ** 6

    @pytest.mark.parametrize("d", [1, 2, 4, 5])
    def test_the_cancellation_draw_keeps_eta_below_its_root(self, d):
        # a_1 = 2.5e99 rounds by about 1e83, which swamps the root t* = 3.96e83:
        # the rounded t is about -9.7e83, whose square would read 9.4e167, above
        # t*^2 = 1.56e167, were eta not 1 + ulp for every t <= 1
        p, profile, eps = ProblemParams(1, 1, d, 0.25, 13.5), LambdaProfile((1.0,)), 1e-100
        nu = math.nextafter(rhs_polynomial(p, profile, eps, 1.0), math.inf)
        root = exact_line_root(p, profile, nu, eps)
        assert 3.9e83 < root < 4.0e83
        up = lambda x: math.nextafter(x, math.inf)  # noqa: E731
        down = lambda x: math.nextafter(x, -math.inf)  # noqa: E731
        t = down(down(nu / p.c) - up(1.0 * up(p.r / eps)))
        assert t < -9e83 and Fraction(t) ** 2 > root**2
        eta = solve_eta(p, profile, nu, eps)
        assert eta == math.nextafter(1.0, 2.0) and Fraction(eta) <= root**d

    def test_newton_never_runs(self):
        calls, newton_root = [], bounds._newton_root

        def spy(*args):
            calls.append(args)
            return newton_root(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_newton_root", spy)
            solve_eta(P15, LambdaProfile((1e-3,)), np.arange(7, 1007), np.full(1000, 0.5))
            rigidity_bound(P15, Z1, seven_points())
            assert calls == []
            solve_eta(ProblemParams(2, 1, 5, c=9.0), Z1, np.array([10, 12]), 0.5)
        assert len(calls) == 1

    def test_float16_and_float32_counts_return(self):
        # Newton copied each float64 step into a float32 t, which rounded it
        # back up, and never stopped; a hang now fails instead of stalling the run
        def stalled(signum, frame):
            raise TimeoutError("solve_eta did not return")

        previous = signal.signal(signal.SIGALRM, stalled)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            for counts, dtype in (([7.5, 9.25], np.float32), ([7, 9], np.float16)):
                args = ProblemParams(1, 1, 5), LambdaProfile((1e-3,))
                etas = solve_eta(*args, np.array(counts, dtype=dtype), [0.5, 0.05])
                assert etas.tobytes() == solve_eta(*args, np.array(counts, dtype=float),
                                                   [0.5, 0.05]).tobytes()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint64, np.float16, np.float32,
                                       np.float64, np.longdouble])
    def test_counts_of_every_dtype_solve_as_float64(self, dtype):
        nu, eps = np.array([7, 9, 40]).astype(dtype), np.array([0.5, 0.2, 0.05])
        for profile in (Z1, LambdaProfile((1e-3,))):
            if dtype is bool:  # a true count is 1, below every baseline
                with pytest.raises(ValueError, match="count True does not exceed the baseline 6"):
                    solve_eta(P15, profile, nu, eps)
                continue
            etas = solve_eta(P15, profile, nu, eps)
            assert etas.dtype == float
            assert etas.tobytes() == solve_eta(P15, profile, nu.astype(float), eps).tobytes()

    @pytest.mark.parametrize("nu, eps, message", [
        ([7.0, 1e300], [0.5, 0.5], "eta overflows the float range at c = 6"),
        ([7.0, 1e308], [0.5, 0.5], "eta overflows the float range at c = 6"),
        ([7.0, 7.0], [0.5, 0.0], "epsilon must be positive"),
        ([7.0, 6.0], [0.5, 0.5], "count 6.0 does not exceed the baseline 6; no ratio above 1"),
        ([7.0, math.nan], [0.5, 0.5], "count nan does not exceed the baseline 6; no ratio above 1"),
    ], ids=["eta", "eta-scaled", "radius", "count", "count-nan"])
    def test_each_refusal_names_the_first_entry_it_refuses(self, nu, eps, message):
        with pytest.raises(ValueError) as refused:
            solve_eta(P15, Z1, np.array(nu), np.array(eps))
        assert str(refused.value) == message

    def test_refusals_come_in_order_over_the_batch(self):
        # a radius, then a count at or below its baseline, then count / c, then eta
        with pytest.raises(ValueError, match="epsilon must be positive"):
            solve_eta(P15, Z1, np.array([1e300, 6.0, math.inf]), np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="count 6.0 does not exceed"):
            solve_eta(P15, Z1, np.array([1e300, math.inf, 6.0]), np.full(3, 0.5))
        with pytest.raises(ValueError, match="count / c overflows"):
            solve_eta(P15, Z1, np.array([1e300, math.inf]), np.full(2, 0.5))


class TestEpsilon0:
    def test_equally_spaced_is_half_the_spacing(self):
        assert epsilon0(seven_points(), P15) == pytest.approx(0.05, rel=1e-9)
        pts = FinitePoints(np.arange(4) * 0.7)
        p = ProblemParams(1, 1, 2)  # c = 3, so the threshold count is 4
        assert epsilon0(pts, p) == pytest.approx(0.35, rel=1e-9)

    def test_tightest_pair_controls(self):
        pts = FinitePoints([0.0, 1.0, 2.0, 10.0])
        p = ProblemParams(1, 1, 2)  # c = 3
        assert epsilon0(pts, p) == pytest.approx(0.5, rel=1e-9)

    def test_too_few_points(self):
        p = ProblemParams(1, 1, 2)  # c = 3
        with pytest.raises(ValueError):
            epsilon0(FinitePoints([0.0, 1.0]), p)

    def test_fractional_constant_that_exceeds_reachable_counts(self):
        # 4 distinct values can beat c = 3.5 in cardinality but the covering
        # count never reaches c + 1 = 4.5
        pts = FinitePoints([0.0, 1.0, 2.0, 10.0])
        p = ProblemParams(1, 1, 2, c=3.5)
        with pytest.raises(ValueError):
            epsilon0(pts, p)

    def test_first_sweep_can_count_below_the_cardinality(self):
        # epsilon0's first count, at the least positive float, is the set's
        # largest, which two points one subnormal ulp apart keep below the
        # cardinality.  Three consecutive floats count 3 up to the float below
        # half their gap u, where xs[0] + 2*eps rounds onto xs[1] but the
        # exact ball misses it
        assert covering_counts(FinitePoints([0.0, 5e-324]), [5e-324]).tolist() == [1]
        u = math.ulp(1.0)
        pts = FinitePoints([1 + u, 1 + 2 * u, 1 + 3 * u])
        assert covering_counts(pts, [u / 4.0]).tolist() == [3]
        p = ProblemParams(1, 1, 1)  # c = 2, so the threshold count is 3
        eps0 = epsilon0(pts, p)
        assert eps0 == math.nextafter(u / 2.0, 0.0) == 1.1102230246251564e-16
        assert covering_counts(pts, [eps0, math.nextafter(eps0, math.inf)]).tolist() == [3, 2]
        report = rigidity_bound(p, LambdaProfile.zeros(1), pts)
        assert report.epsilon0 == eps0
        assert report.gamma_closed_form == gamma_closed_form(eps0, p)

    @pytest.mark.parametrize("make, eps0", [
        (lambda: FinitePoints(stratified_uniform(np.random.default_rng(2308), 600)),
         0.0826546253482378),
        (lambda: FinitePoints(cantor_like(np.random.default_rng(2308), 10)),
         0.049566561477810585),
        (lambda: PowerSequence(-0.5), 0.06487825599846088),
    ], ids=["stratified600", "cantor1024", "power-0.5"])
    def test_pinned_bits(self, make, eps0):
        # recorded with the all-lockstep counters; where the counter hands
        # over to the scalar finish must not move a bit of the search
        s = make()
        assert epsilon0(s, P15) == eps0
        # the last float of the count-7 plateau
        assert covering_counts(s, [eps0, math.nextafter(eps0, math.inf)]).tolist() == [7, 6]

    def test_power_sequence_boundary_certificate(self):
        p = ProblemParams(1, 1, 3)  # c = 4
        eps0 = epsilon0(PowerSequence(-1.0), p)
        assert 0.0 < eps0 < 0.5
        assert covering_number_power(-1.0, eps0 * (1 - 1e-9)) >= 5
        assert covering_number_power(-1.0, eps0 * (1 + 1e-9)) <= 4

    def test_magnitudes_far_apart_converge(self):
        # from the bracket [1/4, 1e200] the bisection needs about 700 halvings
        p = ProblemParams(1, 1, 1)  # c = 2
        eps0 = epsilon0(FinitePoints([0.0, 1e-200, 1.0, 1e200]), p)
        assert eps0 == pytest.approx(0.5, rel=1e-12)

    def test_diameter_past_the_float_limit(self):
        # the diameter 2e308 overflows; the bracket stops at the largest float
        pts = [-1e308, 0.0, 1.0, 1e308]
        eps0 = epsilon0(FinitePoints(pts), ProblemParams(1, 1, 1))
        assert math.isfinite(eps0)
        assert brute_force_covering_oracle(pts, eps0 * (1 - 1e-9)) >= 3
        assert brute_force_covering_oracle(pts, eps0 * (1 + 1e-9)) < 3

    def test_power_sequence_with_a_far_boundary(self):
        # c = 2, so J = 3: the bracket is [(2^-700 - 3^-700)/4, 2^-700], 2^-700 about 2e-211
        eps0 = epsilon0(PowerSequence(-700.0), ProblemParams(1, 1, 1))
        assert covering_number_power(-700.0, eps0 * (1 - 1e-9)) >= 3
        assert covering_number_power(-700.0, eps0 * (1 + 1e-9)) < 3

    @pytest.mark.parametrize("alpha", [-700.0, -2000.0])
    def test_power_sequence_that_never_qualifies(self, alpha):
        # 3^alpha underflows, so no positive radius separates four terms
        p = ProblemParams(1, 1, 2)  # c = 3
        with pytest.raises(ValueError, match="never reaches"):
            epsilon0(PowerSequence(alpha), p)
        report = rigidity_bound(p, LambdaProfile.zeros(1), PowerSequence(alpha),
                                log_grid(1e-3, 0.4, 10))
        assert report.epsilon0 is None and report.gamma_closed_form is None

    def test_subnormal_gaps_never_qualify(self):
        # at the least positive float 0's ball reaches 1e-323: 2 balls, below c + 1 = 3
        pts = FinitePoints([0.0, 5e-324, 1e-323, 1.5e-323])
        with pytest.raises(ValueError, match="never reaches"):
            epsilon0(pts, ProblemParams(1, 1, 1))

    def test_subnormal_bracket_returns_its_qualifying_end(self):
        # the bracket closes on adjacent subnormals, where its midpoint
        # could round onto the end that no longer qualifies
        p = ProblemParams(1, 1, 2)  # c = 3
        for k in range(3, 40):
            pts = FinitePoints(np.arange(4) * k * 5e-324)
            eps0 = epsilon0(pts, p)
            above = math.nextafter(eps0, 1.0)
            assert covering_counts(pts, [eps0, above]).tolist() == [4, 2]

    @settings(max_examples=150, deadline=None)
    @given(
        logs=st.lists(st.floats(-300.0, 300.0), min_size=2, max_size=BRUTE_FORCE_LIMIT),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=BRUTE_FORCE_LIMIT,
                       max_size=BRUTE_FORCE_LIMIT),
        d=st.integers(1, 6),
    )
    def test_two_sided_certificate(self, logs, signs, d):
        pts = [s * 10.0**u for s, u in zip(signs, logs)]
        p = ProblemParams(1, 1, d)
        try:
            eps0 = epsilon0(FinitePoints(pts), p)
        except ValueError:
            return
        # a relative margin of 1e-9 is only resolved in normal floats
        assume(eps0 >= sys.float_info.min)
        assert brute_force_covering_oracle(pts, eps0 * (1 - 1e-9)) >= p.c + 1
        assert brute_force_covering_oracle(pts, eps0 * (1 + 1e-9)) < p.c + 1


@st.composite
def ulp_spaced_sets(draw):
    """Up to eight points: signed magnitudes from 1e-300 to 1e300, runs of
    points a few ulps apart, also across a power of two, and the largest floats."""
    base = draw(st.sampled_from([-1.0, 1.0])) * draw(
        st.floats(-300.0, 300.0).map(lambda u: 10.0**u)
        | st.integers(-990, 990).map(lambda k: math.nextafter(2.0**k, 0.0)))
    points = []
    for kind in draw(st.lists(st.integers(0, 3), min_size=1, max_size=8)):
        if kind == 0:
            points.append(draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 300.0)))
        elif kind == 1:
            v = base
            for _ in range(draw(st.integers(0, 12))):
                v = math.nextafter(v, math.inf)
            points.append(v)
        elif kind == 2:
            points.append(base * (1.0 + draw(st.integers(0, 20)) * 1e-9))
        else:
            points.append(draw(st.sampled_from([-sys.float_info.max, 0.0, sys.float_info.max])))
    return points


class TestEpsilon0Replay:
    """``epsilon0`` gives the bits of a bisection that counts at every
    midpoint down to adjacent floats (``oracles.bisect_epsilon0``), or its
    error."""

    @staticmethod
    def outcome(f, s, p):
        try:
            return f(s, p).hex()
        except ValueError as exc:
            return str(exc)

    @settings(max_examples=300, deadline=None)
    @given(points=ulp_spaced_sets(), n=st.integers(1, 3), d=st.integers(1, 6),
           c=st.floats(1.0, 10.0) | st.integers(1, 9).map(float))
    def test_bits_of_the_counting_bisection(self, points, n, d, c):
        # c + 1 above the point count raises "never reaches" in both
        p = ProblemParams(n, 1, d, c=max(c, d + 1.0) if n == 1 else max(c, c_floor(n, d)))
        s = FinitePoints(points)
        assert self.outcome(epsilon0, s, p) == self.outcome(bisect_epsilon0, s, p)

    @settings(max_examples=200, deadline=None)
    @given(points=ulp_spaced_sets() | st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                                min_size=1, max_size=8),
           c=st.floats(1.0, 10.0) | st.integers(1, 9).map(float))
    @example(points=[1 + 2.0**-52, 1 + 2.0**-51, 1 + 3 * 2.0**-52], c=2.0)
    def test_refuses_exactly_the_sets_that_never_count_c_plus_1(self, points, c):
        # counts never rise with the radius: the least positive float counts the most
        p, s = ProblemParams(2, 1, 1, c=max(c, 2.0)), FinitePoints(points)
        c = p.c
        most = covering_counts(s, [math.ulp(0.0)])[0]
        try:
            eps0 = epsilon0(s, p)
        except ValueError as exc:
            assert "never reaches" in str(exc) and most < c + 1
            return
        assert most >= c + 1
        assert covering_counts(s, [eps0])[0] >= c + 1 > covering_counts(
            s, [math.nextafter(eps0, math.inf)])[0]

    @pytest.mark.parametrize("points", [
        np.arange(7) * 0.1,
        # three floats an ulp apart count 3 up to the float below half their gap
        [1 + 2.0**-52, 1 + 2.0**-51, 1 + 3 * 2.0**-52],
        # the gaps u/2 below 1 and u above it, across the binade at 1
        [1 - 2.0**-52, 1.0, 1 + 2.0**-52],
        [-sys.float_info.max, 0.0, sys.float_info.max],
        [-sys.float_info.max, -1.0, 1.0, sys.float_info.max],
        [0.0, 1e-200, 1.0, 1e200],
        np.arange(4) * 7 * 5e-324,
    ], ids=["seven", "trap", "binade", "largest", "largest-four", "far-apart", "subnormal"])
    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0, 4.0, 6.0])
    def test_pinned_sets(self, points, c):
        if c < c_floor(2, 1):  # refused before any count
            with pytest.raises(ValueError, match="c must be at least max"):
                ProblemParams(2, 1, 1, c=c)
            return
        p, s = ProblemParams(2, 1, 1, c=c), FinitePoints(points)
        assert self.outcome(epsilon0, s, p) == self.outcome(bisect_epsilon0, s, p)

    @pytest.mark.parametrize("alpha", [-0.2, -0.5, -1.0, -3.0, -10.0, -100.0, -700.0])
    def test_power_sequences(self, alpha):
        # the bisection starts from the closed-form bracket, the oracle from 1/2
        for d in (1, 3, 6):
            p, s = ProblemParams(1, 1, d), PowerSequence(alpha)
            assert self.outcome(epsilon0, s, p) == self.outcome(bisect_epsilon0, s, p)

    def test_few_counts_on_a_small_set(self, monkeypatch):
        made = []

        def counting(s):
            count_at = exact_counter(s)
            return lambda e: made.append(e) or count_at(e)

        monkeypatch.setattr(bounds, "exact_counter", counting)
        s = seven_points()
        eps0 = epsilon0(s, P15)
        assert eps0 == bisect_epsilon0(s, P15)
        # one count per halving of [ulp(0), diameter] down to adjacent
        # floats, 58 here
        width = diameter(s) - math.ulp(0.0)
        assert len(made) <= math.ceil(math.log2(width / math.ulp(eps0))) + 1

    @pytest.mark.parametrize("c", [1.0, 2.5, 6.0, 100.0])
    @pytest.mark.parametrize("alpha", [-0.2, -0.5, -1.0, -3.0, -10.0, -100.0, -700.0, -2000.0])
    def test_power_bracket_within_its_count_budget(self, monkeypatch, alpha, c):
        if c < c_floor(2, 1):  # refused before any count
            with pytest.raises(ValueError, match="c must be at least max"):
                ProblemParams(2, 1, 1, c=c)
            return
        p, s = ProblemParams(2, 1, 1, c=c), PowerSequence(alpha)
        expected = self.outcome(bisect_epsilon0, s, p)
        made = []

        def counting(s):
            count_at = exact_counter(s)
            return lambda e: made.append(e) or count_at(e)

        def counts(s, radii):
            made.extend(radii)
            return covering_counts(s, radii)

        monkeypatch.setattr(bounds, "exact_counter", counting)
        monkeypatch.setattr(bounds, "covering_counts", counts)
        assert self.outcome(epsilon0, s, p) == expected
        if expected.startswith("covering count never reaches"):
            return
        # the check at the low end, then one count per halving of the
        # bracket [(x_{J-1} - x_J)/4, x_{J-1}] down to an ulp of eps0
        j = math.ceil(c + 1.0)
        hi = float(j - 1) ** alpha
        lo = (hi - float(j) ** alpha) / 4.0
        eps0 = float.fromhex(expected)
        assert len(made) <= math.ceil(math.log2((hi - lo) / math.ulp(eps0))) + 1


@pytest.mark.parametrize("alpha, c, eps0", [
    (-0.1, 10.0, "0x1.9693577fedbcdp-5"),
    (-0.2, 10.0, "0x1.7e290556f87dbp-5"),
    (-0.5, 10.0, "0x1.0ea19bfd4c4a9p-5"),
    (-1.0, 10.0, "0x1.e1e1e1e1e1e1dp-7"),
    (-2.0, 10.0, "0x1.397829cbc14e1p-9"),
    (-5.0, 10.0, "0x1.d167e6bd7502dp-19"),
    (-0.1, 1e3, "0x1.61ec2ca8822a0p-12"),
    (-0.2, 1e3, "0x1.a8b695aab3300p-13"),
    (-0.5, 1e3, "0x1.34a15c5f54900p-15"),
    (-1.0, 1e3, "0x1.cf85e52a718ffp-20"),
    (-2.0, 1e3, "0x1.85380fa6694bfp-29"),
    (-5.0, 1e3, "0x1.c33882944167fp-58"),
])
def test_power_bracket_low_end_counts_near_its_threshold(monkeypatch, alpha, c, eps0):
    # the bits were recorded with the low end (x_{J-1} - x_J)/4, which counts
    # 20,007 balls at alpha = -0.1, c = 1e3; the low end is the only count
    # made through ``bounds.covering_counts``, the bisection's go through
    # ``exact_counter``
    lows = []

    def counts(s, radii):
        out = covering_counts(s, radii)
        lows.extend(out.tolist())
        return out

    monkeypatch.setattr(bounds, "covering_counts", counts)
    assert epsilon0(PowerSequence(alpha), ProblemParams(2, 1, 1, c=c)).hex() == eps0
    assert c + 1.0 <= lows[-1] <= 2.0 * (c + 1.0)


class TestEpsilon0Plateau:
    """``epsilon0`` is the last float of the count-(c+1) plateau: the count
    reaches c + 1 there and falls below it one float up."""

    @staticmethod
    def assert_last_float(count, eps0, p):
        assert count(eps0) >= p.c + 1 > count(math.nextafter(eps0, math.inf))

    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=BRUTE_FORCE_LIMIT)
           | ulp_spaced_sets(),
           n=st.integers(1, 3), d=st.integers(1, 6),
           c=st.floats(1.0, 10.0) | st.integers(1, 9).map(float))
    @example(points=(np.arange(7) * 0.1).tolist(), n=1, d=5, c=6.0)
    @example(points=(np.arange(7) * 0.1).tolist(), n=1, d=4, c=5.0)
    def test_finite_sets_by_the_exhaustive_oracle(self, points, n, d, c):
        p = ProblemParams(n, 1, d, c=max(c, d + 1.0) if n == 1 else max(c, c_floor(n, d)))
        try:
            eps0 = epsilon0(FinitePoints(points), p)
        except ValueError:  # one distinct point, or a count short of c + 1
            return
        self.assert_last_float(lambda e: brute_force_covering_oracle(points, e), eps0, p)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(-100.0, -0.2) | st.just(-700.0), d=st.integers(1, 6))
    @example(alpha=-0.5, d=5)
    @example(alpha=-1.0, d=3)
    def test_power_sequences(self, alpha, d):
        p = ProblemParams(1, 1, d)
        try:
            eps0 = epsilon0(PowerSequence(alpha), p)
        except ValueError as exc:  # far terms underflow to 0 at alpha = -700
            assert alpha == -700.0 and "never reaches" in str(exc)
            return
        self.assert_last_float(lambda e: covering_number_power(alpha, e), eps0, p)


class TestPlateauScan:
    """With no grid, a finite set of at most ``_PLATEAU_SCAN_MAX`` points
    scans the last float of every plateau of its count: gamma is the best
    product over every float radius (``oracles.plateau_sup``), never below
    the default grid's, and epsilon0 is ``epsilon0``'s."""

    @staticmethod
    def product(points, p, profile, eps):
        """eps * eta(eps) at one radius, counted by the exhaustive oracle; 0 if it fails."""
        nu, e = np.array([brute_force_covering_oracle(points, eps)]), np.array([eps])
        if not in_E(p, profile, nu, e)[0]:
            return 0.0
        with np.errstate(over="ignore"):
            return (e * solve_eta(p, profile, nu, e))[0]

    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=BRUTE_FORCE_LIMIT)
           | ulp_spaced_sets(),
           n=st.integers(1, 2), d=st.integers(1, 6),
           c=st.floats(1.0, 10.0) | st.integers(1, 9).map(float),
           lam=st.sampled_from([0.0, 1e-3]),
           spots=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    @example(points=(np.arange(7) * 0.1).tolist(), n=1, d=3, c=4.0, lam=0.0,
             spots=[0.0, 0.5, 0.9, 1.0])
    @example(points=[1 + 2.0**-52, 1 + 2.0**-51, 1 + 3 * 2.0**-52], n=2, d=1, c=2.0, lam=0.0,
             spots=[0.0, 0.5, 0.9, 1.0])
    def test_gamma_is_the_best_over_every_float(self, points, n, d, c, lam, spots):
        p = ProblemParams(n, 1, d, c=None if n == 1 else max(c, c_floor(n, d)))
        profile, s = LambdaProfile((lam,)), FinitePoints(points)
        assert s.values.size <= bounds._PLATEAU_SCAN_MAX
        best = plateau_sup(points, p, profile)
        if not math.isfinite(best):
            with pytest.raises(ValueError, match="overflows the float range"):
                rigidity_bound(p, profile, s)
            return
        report = rigidity_bound(p, profile, s)
        assert report.gamma == best
        assert report.gamma >= rigidity_bound(p, profile, s, default_grid(s)).gamma
        try:
            eps0 = epsilon0(s, p)
        except ValueError:
            eps0 = None
        assert (report.epsilon0 is None and eps0 is None) or report.epsilon0.hex() == eps0.hex()
        if s.values.size < 2:
            return
        # from below every plateau end to half the diameter, past the last,
        # spread evenly over the float bit patterns in between
        top, xs = diameter(s) / 2.0, s.values.tolist()
        gap = min(map(float.__sub__, xs[1:], xs))
        lo, hi = np.array([min(gap / 8.0, top), top]).view(np.int64).tolist()
        for u in spots:
            eps = np.array([lo + round(u * (hi - lo))]).view(float)[0].item()
            if eps > 0.0:
                assert self.product(points, p, profile, eps) <= report.gamma

    def test_a_subnormal_gap_has_an_epsilon0(self):
        # 0 and 5e-324 share every ball, so the set counts c + 1 = 3 below
        # 1/2, up to pred(1/2): 5e-324 + 2*pred(1/2) falls short of 1 exactly;
        # the grid scan's best row is its boundary point 0.49999999949999994
        p, s = ProblemParams(1, 1, 1), FinitePoints([0.0, 5e-324, 1.0, 2.0])
        for grid, gamma in ((None, 0.7499999999999998),
                            (log_grid(1e-3, 1.0, 10), 0.7499999992499998)):
            report = rigidity_bound(p, LambdaProfile.zeros(1), s, grid)
            assert report.epsilon0 == math.nextafter(0.5, 0.0) == epsilon0(s, p)
            assert report.gamma_closed_form == 0.7499999999999999
            assert report.gamma == gamma

    def test_sets_above_the_size_keep_the_grid(self):
        rng = np.random.default_rng(3)
        s = FinitePoints(rng.uniform(0.0, 1.0, bounds._PLATEAU_SCAN_MAX + 1))
        for lam in (0.0, 1e-3):
            profile = LambdaProfile((lam,))
            plain = rigidity_bound(P15, profile, s)
            grid = rigidity_bound(P15, profile, s, default_grid(s))
            assert plain.to_json_dict() == grid.to_json_dict()


class TestGammaClosedForm:
    def test_formula(self):
        assert gamma_closed_form(0.05, P15) == (7.0 / 6.0) ** 5 * 0.05
        p = ProblemParams(1, 1, 1)  # c = 2
        assert gamma_closed_form(0.2, p) == pytest.approx(0.3, rel=1e-14)

    def test_canonical_decimal(self):
        assert abs(gamma_closed_form(0.05, P15) - 0.108064) <= 1e-4

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            gamma_closed_form(0.0, P15)

    def test_overflowing_power_is_a_value_error(self):
        # (1 + 1/c)^(d/n) = 2^1024 at c = 1 and d/n = 1024 is past the float
        # range; the floor on c refuses such a constant first, with a
        # ValueError, and above it the power is at most e
        with pytest.raises(ValueError, match="c must be at least max") as info:
            gamma_closed_form(0.5, ProblemParams(2, 1, 2048, c=1))
        assert not isinstance(info.value, OverflowError)
        for p in (ProblemParams(2, 1, 2048, c=c_floor(2, 2048)), ProblemParams(2, 1, 3, c=2.0),
                  ProblemParams(1, 1, 2048), ProblemParams(4, 1, 4, c=c_floor(4, 4))):
            assert gamma_closed_form(0.5, p) <= 0.5 * math.e


def _scalar_rhs(p, profile, epsilon, eta):
    """The forward polynomial for one (epsilon, eta), in Python floats."""
    total, prod, ratio = 0.0, 1.0, p.r / epsilon
    for i in range(p.m + 1):
        if i > 0:
            prod *= profile.lambdas[i - 1]
            if prod == 0.0:
                break
        try:
            total += prod * ratio**i * eta ** ((p.n - i) / p.d)
        except OverflowError:
            # every term is nonnegative: saturate to +inf as float64 arrays do
            return math.inf
    return p.c * total


def _scalar_solve_eta(p, profile, nu, epsilon):
    """One ratio by bracket doubling and bisection to a relative 1e-12."""
    lo, hi = 1.0, 2.0
    while _scalar_rhs(p, profile, epsilon, hi) < nu:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if _scalar_rhs(p, profile, epsilon, mid) < nu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_scan(p, profile, s, grid):
    """Reference scan: one radius at a time, per-count cache when lambda_1 = 0.

    Returns the qualifying radii and the (radius, eta) curve.
    """
    eval_eps = set(float(e) for e in grid)
    if np.unique(s.values).size > p.c:
        try:
            eval_eps.add(epsilon0(s, p) * (1.0 - 1e-9))
        except ValueError:
            pass
    cache = {} if profile.lambdas[0] == 0.0 else None
    qualifying, curve = [], []
    scan = sorted(eval_eps, reverse=True)
    for eps, nu in zip(scan, covering_counts(s, scan).tolist()):
        if not nu > _scalar_rhs(p, profile, eps, 1.0):
            continue
        if cache is None:
            eta = _scalar_solve_eta(p, profile, nu, eps)
        else:
            eta = cache.get(nu)
            if eta is None:
                eta = cache[nu] = _scalar_solve_eta(p, profile, nu, eps)
        qualifying.append(eps)
        curve.append((eps, eta))
    return tuple(qualifying), curve


class TestRigidityBound:
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        d=st.integers(1, 6),
        c=st.floats(1.0, 6.0),
        r=st.floats(0.25, 4.0),
        lams=st.lists(st.floats(-5.0, 0.3).map(lambda t: 10.0**t), min_size=3, max_size=3),
        zeros=st.integers(-3, 3),
        values=st.lists(
            st.one_of(st.integers(-16, 16).map(lambda k: k / 8), st.floats(-2.0, 2.0)),
            min_size=1, max_size=12,
        ),
        per_decade=st.sampled_from([10, 25, 60]),
    )
    # a gap near the bottom of the float range: (r/eps)^2 overflows, so the
    # polynomial is +inf there and that radius never qualifies
    @example(n=2, m=2, d=1, c=1.0, r=1.0, lams=[1.0, 1.0, 1.0], zeros=0,
             values=[0.0, 6.563716836163157e-293], per_decade=10)
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_scan(self, n, m, d, c, r, lams, zeros, values, per_decade):
        # the array scan against a copy of the radius-by-radius scan it
        # replaced: same qualifying radii, ratios within a relative 1e-12
        m = min(m, n)
        p = ProblemParams(n=n, m=m, d=d, r=r, c=None if n == 1 else max(c, c_floor(n, d)))
        k = min(max(zeros, 0), m)  # leading zero thresholds
        profile = LambdaProfile((0.0,) * k + tuple(sorted(lams))[:m - k])
        s = FinitePoints(values)
        grid = log_grid(1e-5, 4.0, per_decade)
        report = rigidity_bound(p, profile, s, grid)
        qualifying, curve = _scalar_scan(p, profile, s, grid)
        assert report.e_intervals.tolist() == list(qualifying)
        assert len(report.eta_curve) == len(curve)
        for (e_new, eta_new), (e_old, eta_old) in zip(report.eta_curve, curve):
            assert e_new == e_old
            assert eta_new == pytest.approx(eta_old, rel=1e-12, abs=0.0)
        gamma = max((e * eta for e, eta in curve), default=0.0)
        assert report.gamma == pytest.approx(gamma, rel=1e-12, abs=0.0)

    def test_seven_point_instance_matches_closed_form(self):
        report = rigidity_bound(P15, Z1, seven_points())
        assert report.epsilon0 == pytest.approx(0.05, rel=1e-9)
        assert report.gamma_closed_form == pytest.approx(
            (7.0 / 6.0) ** 5 * 0.05, rel=1e-12
        )
        assert abs(report.gamma - report.gamma_closed_form) <= 1e-6 * report.gamma_closed_form
        assert len(report.e_intervals) > 0
        assert all(eta > 1.0 for _, eta in report.eta_curve)
        assert report.gamma == max(e * eta for e, eta in report.eta_curve)

    def test_two_points_never_qualify(self):
        p = ProblemParams(1, 1, 2)  # c = 3
        # nor does one point, which has no plateau end to scan
        for points in ([0.0, 1.0], [0.5]):
            report = rigidity_bound(p, Z1, FinitePoints(points))
            assert report.gamma == 0.0
            assert report.e_intervals.tolist() == []
            assert report.eta_curve.tolist() == []
            assert report.epsilon0 is None
            assert report.gamma_closed_form is None

    def test_power_sequence_bound_grows_with_finer_grids(self):
        p = ProblemParams(1, 1, 3)  # c = 4
        coarse = rigidity_bound(p, Z1, PowerSequence(-1.0), log_grid(1e-3, 0.5, 30))
        fine = rigidity_bound(p, Z1, PowerSequence(-1.0), log_grid(1e-4, 0.5, 30))
        assert 0.0 < coarse.gamma < fine.gamma

    def test_shared_resolutions_agree_across_grids(self):
        p = ProblemParams(1, 1, 3)  # c = 4
        base = np.logspace(-3, -0.5, 25)
        extended = np.concatenate([np.logspace(-4, -3, 8, endpoint=False), base])
        small = dict(rigidity_bound(p, Z1, PowerSequence(-1.0), base).eta_curve)
        big = dict(rigidity_bound(p, Z1, PowerSequence(-1.0), extended).eta_curve)
        shared = set(small) & set(big)
        assert shared
        for eps in shared:
            assert small[eps] == pytest.approx(big[eps], rel=1e-12)

    def test_value_scaling_scales_gamma(self):
        rng = np.random.default_rng(7)
        p = ProblemParams(1, 1, 2)  # c = 3
        for a in (0.25, 3.0, 17.0):
            pts = np.sort(rng.uniform(0.0, 1.0, size=8))
            base_set = FinitePoints(pts)
            grid = log_grid(1e-4, 2.0, 25)
            plain = rigidity_bound(p, Z1, base_set, grid)
            scaled = rigidity_bound(p, Z1, FinitePoints(a * pts), a * grid)
            assert plain.gamma > 0
            assert scaled.gamma == pytest.approx(a * plain.gamma, rel=1e-9)

    def test_json_round_trip_and_keys(self):
        report = rigidity_bound(P15, Z1, seven_points())
        blob = report.to_json_dict()
        assert set(blob) == {
            "gamma",
            "epsilon0",
            "gamma_closed_form",
            "eta_curve",
            "E_intervals",
            "params",
        }
        assert set(blob["params"]) == {"n", "m", "d", "r", "c", "lambdas"}
        text = json.dumps(blob)  # must be plain python scalars throughout
        assert json.loads(text)["gamma"] == report.gamma

    def test_refuses_a_profile_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="profile length must equal m"):
            rigidity_bound(P15, LambdaProfile.zeros(2), seven_points())

    def test_refuses_estimated_covering(self):
        cloud = SampledCloud(np.zeros((5, 2)))
        p = ProblemParams(2, 2, 3, c=2.0)
        with pytest.raises(ValueError):
            rigidity_bound(p, LambdaProfile.zeros(2), cloud)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rigidity_bound(P15, Z1, seven_points(), np.array([]))
        with pytest.raises(ValueError):
            rigidity_bound(P15, Z1, seven_points(), np.array([0.1, -0.2]))
        # radii above 1/2 count the whole power sequence in one ball, which
        # never beats the baseline c = 4: only the epsilon0 point qualifies
        p = ProblemParams(1, 1, 3)
        report = rigidity_bound(p, Z1, PowerSequence(-1.0), np.array([1.5, 2.0]))
        assert report.e_intervals.tolist() == [report.epsilon0 * (1 - 1e-9)]
        assert report.gamma == report.eta_curve[0, 0] * report.eta_curve[0, 1]

    @pytest.mark.parametrize("lam, gamma", [
        (0.0, 61361.437578057434),
        (1e-3, 55766.69101813076),
    ])
    def test_gamma_pinned_on_seeded_set(self, lam, gamma):
        # the lambda_1 = 0 value was recorded with the one-ball-at-a-time
        # counter and a scalar bisection, whose midpoint the Newton root may
        # move by up to a relative 1e-12 (here -1.6e-13).  The 1e-3 value is
        # the closed-form root, rounded down; the 50-digit gamma is
        # 55766.691018130888..., which Newton's 55766.69101813091 lay above and
        # the bisection's 55766.6910181239 sat -1.25e-13 from.
        rng = np.random.default_rng(2308)
        pts = (np.arange(200) + rng.uniform(0.25, 0.75, 200)) / 200
        report = rigidity_bound(P15, LambdaProfile((lam,)), FinitePoints(pts))
        if lam == 0.0:
            assert report.gamma == pytest.approx(gamma, rel=1e-12, abs=0.0)
        else:
            assert report.gamma == gamma

    def test_report_fields_are_read_only_arrays(self):
        report = rigidity_bound(P15, Z1, seven_points())
        k = len(report.e_intervals)
        assert report.e_intervals.shape == (k,) and report.eta_curve.shape == (k, 2)
        for arr in (report.e_intervals, report.eta_curve):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        assert np.array_equal(report.eta_curve[:, 0], report.e_intervals)
        # sequences in, the same arrays out, and the same derived fields
        again = BoundReport(report.eta_curve.tolist(), None, None, P15, Z1)
        assert np.array_equal(again.eta_curve, report.eta_curve)
        assert np.array_equal(again.e_intervals, report.e_intervals)
        assert not again.e_intervals.flags.writeable
        assert again.gamma == report.gamma
        empty = BoundReport((), None, None, P15, Z1)
        assert empty.e_intervals.shape == (0,) and empty.eta_curve.shape == (0, 2)
        assert empty.gamma == 0.0
        with pytest.raises(ValueError):
            BoundReport((0.1, 2.0, 3.0), None, None, P15, Z1)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            BoundReport(((0.1, 0.5),), None, None, P15, Z1)
        # an infinite resolution is refused: its product overflows gamma
        with pytest.raises(ValueError, match="gamma = eps"):
            BoundReport(((math.inf, 2.0),), None, None, P15, Z1)
        # gamma and the qualifying radii come from the curve, not the caller
        for name in ("gamma", "e_intervals"):
            with pytest.raises(TypeError):
                BoundReport(((0.1, 2.0),), None, None, P15, Z1, **{name: 0.2})

    def test_overflowing_gamma_is_refused(self):
        # a product past the float range would report gamma = inf
        with pytest.raises(ValueError, match="overflows the float range"):
            BoundReport(((1e308, 2.0), (1.0, 2.0)), None, None, P15, Z1)
        with pytest.raises(ValueError, match="overflows the float range"):
            rigidity_bound(ProblemParams(1, 1, 3), Z1,
                           FinitePoints([k * 2e307 for k in range(-5, 6)]))

    def test_gamma_is_the_best_row_product_exactly(self):
        rows = ((0.3, 1.5), (0.2, 2.5), (0.1, 4.0000000000001))
        report = BoundReport(rows, None, None, P15, Z1)
        assert report.gamma == max(e * eta for e, eta in rows) == 0.2 * 2.5
        for seed in range(5):
            report = rigidity_bound(P15, Z1, FinitePoints(
                stratified_uniform(np.random.default_rng(seed), 40)))
            products = report.eta_curve[:, 0] * report.eta_curve[:, 1]
            assert report.gamma == products.max()


class TestClassifyPowerSequence:
    def test_steep_decay_excluded(self):
        verdict = classify_power_sequence(-1.0, 5)
        assert verdict.exponent == pytest.approx(-1.5, rel=1e-14)
        assert verdict.verdict == "Excluded"
        assert verdict.verdict == EXCLUDED

    def test_low_smoothness_not_excluded(self):
        verdict = classify_power_sequence(-1.0, 1)
        assert verdict.exponent == pytest.approx(0.5, rel=1e-14)
        assert verdict.verdict == "NotExcludedByThisBound"
        assert verdict.verdict != EXCLUDED

    def test_very_fast_decay_escapes(self):
        verdict = classify_power_sequence(-200.0, 5)
        assert verdict.exponent > 0.9
        assert verdict.verdict != EXCLUDED

    @given(alpha=st.floats(-4.0, -0.2), n=st.integers(1, 3))
    @settings(max_examples=100)
    def test_verdict_flips_at_the_smoothness_threshold(self, alpha, n):
        thresh = n * (1.0 - alpha)
        for d in range(1, int(thresh) + 3):
            assume(abs(d - thresh) > 1e-9 or d == thresh)
            verdict = classify_power_sequence(alpha, d, n)
            assert (verdict.verdict == EXCLUDED) == (d > thresh)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, math.nan, -math.inf, pytest.param("x", id="str"),
                                       pytest.param(-10**400, id="-1e400")])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be a finite negative number$"):
            classify_power_sequence(alpha, 5)

    def test_higher_dimensions_need_no_constant(self):
        verdict = classify_power_sequence(-1.0, 3, n=2)
        assert verdict.exponent == 0.25
        assert verdict.verdict != EXCLUDED

    @pytest.mark.parametrize("d, n", [(0, 1), (1, 0), (2.0, 1), (1, 1.5), (True, 1), (2, True)])
    def test_rejects_bad_dimensions(self, d, n):
        with pytest.raises(ValueError):
            classify_power_sequence(-1.0, d, n)



class TestCriticalPointReduction:
    def test_values(self):
        assert critical_point_rigidity_reduction(2.0, 4) == 1.0
        assert critical_point_rigidity_reduction(0.0, 9) == 0.0
        assert critical_point_rigidity_reduction(3.7, 1) == 3.7

    def test_general_formula(self):
        assert critical_point_rigidity_reduction(5.0, 3) == pytest.approx(
            5.0 / math.sqrt(3), rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_point_rigidity_reduction(-1.0, 2)
        with pytest.raises(ValueError):
            critical_point_rigidity_reduction(1.0, 0)
