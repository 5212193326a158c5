"""Tests for the inverse-bound machinery.

Covers the ratio polynomial and its Newton inverse, the count-threshold
radius, closed-form agreement on the canonical equally-spaced instance, the
power-sequence dichotomy, and the report invariants.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rigidity.bounds import (
    BoundReport,
    LambdaProfile,
    ProblemParams,
    classify_power_sequence,
    critical_point_rigidity_reduction,
    epsilon0,
    forward_upper_bound,
    gamma_closed_form,
    in_E,
    rhs_polynomial,
    rigidity_bound,
    solve_eta,
)
from rigidity.covering import (
    BRUTE_FORCE_LIMIT,
    brute_force_covering_oracle,
    covering_counts,
    covering_number_power,
)
from rigidity.sets import FinitePoints, PowerSequence, SampledCloud, min_gap
from rigidity.util import log_grid

from conftest import cantor_like, stratified_uniform


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
        assert ProblemParams(2, 1, 3, c=1.0).c == 1.0

    def test_one_dimensional_constant_is_at_least_d_plus_one(self):
        # below d + 1 the bound is unsound; above it only weakens
        with pytest.raises(ValueError, match="at least d \\+ 1"):
            ProblemParams(1, 1, 5, c=5.999)
        assert ProblemParams(1, 1, 5, c=6).c == 6.0
        assert ProblemParams(1, 1, 5, c=9.5).c == 9.5

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
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ProblemParams(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            P15.n = 2


class TestLambdaProfile:
    def test_zeros(self):
        prof = LambdaProfile.zeros(3)
        assert prof.lambdas == (0.0, 0.0, 0.0)
        assert prof.all_zero
        assert len(prof) == 3

    def test_nondecreasing_required(self):
        LambdaProfile((0.1, 0.1, 0.5))  # ties allowed
        with pytest.raises(ValueError):
            LambdaProfile((0.5, 0.1))

    @pytest.mark.parametrize("bad", [(), (-1.0,), (math.nan,), (math.inf,)])
    def test_rejects_bad_thresholds(self, bad):
        with pytest.raises(ValueError):
            LambdaProfile(bad)

    def test_not_all_zero(self):
        assert not LambdaProfile((0.0, 0.5)).all_zero


class TestRhsPolynomial:
    def test_baseline_is_the_constant(self):
        # zero first threshold kills every term past i = 0; eta = 1 leaves c
        for eps in (1e-6, 0.3, 7.0):
            assert rhs_polynomial(P15, Z1, eps, 1.0) == 6.0

    def test_two_term_hand_value(self):
        # c=1: 8^(2/3) + 0.5*(1/0.25)*8^(1/3) = 4 + 4
        p = ProblemParams(n=2, m=1, d=3, r=1.0, c=1.0)
        val = rhs_polynomial(p, LambdaProfile((0.5,)), 0.25, 8.0)
        assert val == pytest.approx(8.0, rel=1e-14)

    def test_all_zero_profile_single_power(self):
        p = ProblemParams(n=1, m=1, d=5)
        assert rhs_polynomial(p, Z1, 0.017, 32.0) == pytest.approx(12.0, rel=1e-14)
        p2 = ProblemParams(n=3, m=2, d=2, c=1.5)
        eta = 4.0
        got = rhs_polynomial(p2, LambdaProfile.zeros(2), 1.0, eta)
        assert got == pytest.approx(1.5 * eta ** 1.5, rel=1e-14)

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
        c=st.floats(0.5, 8.0),
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
        # for n = 1 the constant is at least d + 1
        p = ProblemParams(n=n, m=m, d=d, r=r, c=c + (d + 1 if n == 1 else 0))
        eta2 = eta1 + bump
        v1 = rhs_polynomial(p, profile, eps, eta1)
        v2 = rhs_polynomial(p, profile, eps, eta2)
        assert v2 > v1


class TestForwardUpperBound:
    def test_coarse_regime_is_flat(self):
        for d in (1, 2, 5):
            p = ProblemParams(1, 1, d)
            for eps in (1.0, 2.0, 10.0):
                assert forward_upper_bound(p, Z1, 1.0, eps) == d + 1.0

    def test_fine_regime_hand_value(self):
        # (scale/eps)^(1/5) = 32^(1/5) = 2, so the bound doubles the constant
        assert forward_upper_bound(P15, Z1, 1.0, 1.0 / 32.0) == pytest.approx(
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
        with pytest.raises(ValueError):
            forward_upper_bound(P15, Z1, -1.0, 0.5)

    def test_rejects_zero_resolution(self):
        with pytest.raises(ValueError):
            forward_upper_bound(P15, Z1, 1.0, 0.0)


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
        # substitution t = eta^(1/3): t^2 + 2t = 8  =>  t = 2, eta = 8
        p = ProblemParams(n=2, m=1, d=3, r=1.0, c=1.0)
        eta = solve_eta(p, LambdaProfile((0.5,)), 8, 0.25)
        assert eta == pytest.approx(8.0, rel=1e-9)

    def test_approaches_one_at_the_boundary(self):
        p = ProblemParams(n=1, m=1, d=5, c=6.999999)
        eta = solve_eta(p, Z1, 7, 0.05)
        assert 1.0 < eta < 1.00001

    def test_requires_qualifying_count(self):
        with pytest.raises(ValueError):
            solve_eta(P15, Z1, 6, 0.05)

    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 6),
        c=st.floats(0.5, 8.0),
        r=st.floats(0.25, 4.0),
        lams=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
        eps=st.floats(0.01, 2.0),
        factor=st.floats(1.01, 50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_residual_and_monotonicity(self, n, d, c, r, lams, eps, factor):
        m = min(len(lams), n)
        profile = LambdaProfile(tuple(sorted(lams))[:m])
        # for n = 1 the constant is at least d + 1
        p = ProblemParams(n=n, m=m, d=d, r=r, c=c + (d + 1 if n == 1 else 0))
        baseline = rhs_polynomial(p, profile, eps, 1.0)
        nu = int(math.ceil(baseline * factor))
        eta = solve_eta(p, profile, nu, eps)
        assert eta > 1.0
        assert abs(rhs_polynomial(p, profile, eps, eta) - nu) <= 1e-9 * nu
        # a larger count never loosens the ratio
        eta_bigger = solve_eta(p, profile, nu + 3, eps)
        assert eta_bigger > eta


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
                c = float(rng.uniform(0.5, 1000.0))
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
                c = float(rng.uniform(0.5, 8.0)) + (d + 1 if n == 1 else 0)
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
                p, profile = ProblemParams(n=n, m=m, d=15, c=1.0), LambdaProfile((1.0,) * m)
                eps = np.logspace(low, 0, 19)
                nu = np.floor(rhs_polynomial(p, profile, eps, 1.0)).astype(np.int64) + 1
                for k, e, eta in zip(nu.tolist(), eps.tolist(), solve_eta(p, profile, nu, eps).tolist()):
                    root, kappa = exact(p, profile, k, e)
                    assert eta > 1.0
                    assert abs(eta / root - 1) <= 8 * 15 * kappa * 2.0**-53


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
        # at min_gap/4, xs[0] + 2*eps rounds half to even onto xs[1], so three
        # consecutive floats count 2 there, not 3
        u = math.ulp(1.0)
        pts = FinitePoints([1 + u, 1 + 2 * u, 1 + 3 * u])
        assert covering_counts(pts, [min_gap(pts) / 4.0]).tolist() == [2]
        p = ProblemParams(1, 1, 1)  # c = 2, so the threshold count is 3
        try:
            eps0 = epsilon0(pts, p)
        except ValueError:
            return
        assert covering_counts(pts, [eps0 * (1 - 1e-9)])[0] >= 3

    def test_constant_below_an_ulp_of_one(self):
        # c + 1 rounds to 1, so even the one-ball count reaches it
        p = ProblemParams(2, 1, 1, c=1e-300)
        with pytest.raises(RuntimeError, match="disqualifying radius"):
            epsilon0(FinitePoints([0.0, 1.0, 2.0]), p)

    @pytest.mark.parametrize("make, eps0", [
        (lambda: FinitePoints(stratified_uniform(np.random.default_rng(2308), 600)),
         0.08265462534826103),
        (lambda: FinitePoints(cantor_like(np.random.default_rng(2308), 10)),
         0.04956656147781427),
        (lambda: PowerSequence(-0.5), 0.06487825599844044),
    ], ids=["stratified600", "cantor1024", "power-0.5"])
    def test_pinned_bits(self, make, eps0):
        # recorded with the all-lockstep counters; where the counter hands
        # over to the scalar finish must not move a bit of the bisection
        assert epsilon0(make(), P15) == eps0

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
        # 2^-700 is about 2e-211: the lower end halves about 700 times
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
        # min_gap/4 underflows to zero, which is no radius
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
        c=st.floats(0.5, 6.0),
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
        p = ProblemParams(n=n, m=m, d=d, r=r, c=None if n == 1 else c)
        k = min(max(zeros, 0), m)  # leading zero thresholds
        profile = LambdaProfile((0.0,) * k + tuple(sorted(lams))[:m - k])
        s = FinitePoints(values)
        grid = log_grid(1e-5, 4.0, per_decade)
        report = rigidity_bound(p, profile, s, grid)
        qualifying, curve = _scalar_scan(p, profile, s, grid)
        assert report.e_intervals == qualifying
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
        report = rigidity_bound(p, Z1, FinitePoints([0.0, 1.0]))
        assert report.gamma == 0.0
        assert report.e_intervals == ()
        assert report.eta_curve == ()
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

    def test_eta_curve_csv(self):
        report = rigidity_bound(P15, Z1, seven_points())
        lines = report.eta_curve_csv_text().strip().split("\n")
        assert lines[0] == "epsilon,eta,product"
        for line in lines[1:]:
            e, eta, prod = map(float, line.split(","))
            assert prod == e * eta

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
        p = ProblemParams(1, 1, 3)
        with pytest.raises(ValueError):
            rigidity_bound(p, Z1, PowerSequence(-1.0), np.array([1.5, 2.0]))

    @pytest.mark.parametrize("lam, gamma", [
        (0.0, 61361.437578057434),
        (1e-3, 55766.69101813091),
    ])
    def test_gamma_pinned_on_seeded_set(self, lam, gamma):
        # the lambda_1 = 0 value was recorded with the one-ball-at-a-time
        # counter and a scalar bisection, whose midpoint the Newton root may
        # move by up to a relative 1e-12 (here -1.6e-13).  The 1e-3 value is
        # the Newton root; the 50-digit gamma is 55766.691018130888..., and
        # the bisection's 55766.6910181239 sat -1.25e-13 from it.
        rng = np.random.default_rng(2308)
        pts = (np.arange(200) + rng.uniform(0.25, 0.75, 200)) / 200
        report = rigidity_bound(P15, LambdaProfile((lam,)), FinitePoints(pts))
        if lam == 0.0:
            assert report.gamma == pytest.approx(gamma, rel=1e-12, abs=0.0)
        else:
            assert report.gamma == gamma

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            BoundReport((0.1,), ((0.1, 0.5),), 0.05, None, None, P15, Z1)
        with pytest.raises(ValueError):
            BoundReport((0.1,), ((0.1, 2.0),), 0.7, None, None, P15, Z1)
        with pytest.raises(ValueError):
            BoundReport((0.1,), (), 0.0, None, None, P15, Z1)


class TestClassifyPowerSequence:
    def test_steep_decay_excluded(self):
        verdict = classify_power_sequence(-1.0, 5)
        assert verdict.exponent == pytest.approx(-1.5, rel=1e-14)
        assert verdict.verdict == "Excluded"
        assert verdict.excluded

    def test_low_smoothness_not_excluded(self):
        verdict = classify_power_sequence(-1.0, 1)
        assert verdict.exponent == pytest.approx(0.5, rel=1e-14)
        assert verdict.verdict == "NotExcludedByThisBound"
        assert not verdict.excluded

    def test_very_fast_decay_escapes(self):
        verdict = classify_power_sequence(-200.0, 5)
        assert verdict.exponent > 0.9
        assert not verdict.excluded

    @given(alpha=st.floats(-4.0, -0.2), n=st.integers(1, 3))
    @settings(max_examples=100)
    def test_verdict_flips_at_the_smoothness_threshold(self, alpha, n):
        thresh = n * (1.0 - alpha)
        for d in range(1, int(thresh) + 3):
            assume(abs(d - thresh) > 1e-9 or d == thresh)
            verdict = classify_power_sequence(alpha, d, n)
            assert verdict.excluded == (d > thresh)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, math.nan, -math.inf])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            classify_power_sequence(alpha, 5)

    def test_higher_dimensions_need_no_constant(self):
        verdict = classify_power_sequence(-1.0, 3, n=2)
        assert verdict.exponent == 0.25
        assert not verdict.excluded

    @pytest.mark.parametrize("d, n", [(0, 1), (1, 0), (2.0, 1), (1, 1.5)])
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
