"""Tests for the staircase witness construction.

The smoothstep coefficients are checked against their binomial closed
form and its exact end conditions in integer arithmetic, the step maximum
against a 50-digit oracle, the assembled function against finite
differences and dense critical-point sampling, and the measured
derivative scale against the certified lower bound (the sandwich).
"""

import json
import math

import numpy as np
import pytest
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

import oracles
from rigidity.bounds import LambdaProfile, ProblemParams
from rigidity import witness
from rigidity.sets import FinitePoints, PowerSequence, SampledCloud
from rigidity.witness import (
    WitnessFunction,
    build_witness,
    sandwich_check,
    smoothstep_coefficients,
    witness_derivative_scale,
)


def smoothstep_integers(order):
    """Closed form for the flat-contact step polynomial, as Python ints.

    s(u) = u^(order+1) * sum_k C(order+k, k) C(2*order+1, order-k) (-u)^k,
    a standard identity for the polynomial with flat contact of the given
    order at both endpoints.
    """
    return [0] * (order + 1) + [
        (-1) ** k * math.comb(order + k, k) * math.comb(2 * order + 1, order - k)
        for k in range(order + 1)
    ]


def smoothstep_binomial(order):
    return np.array(smoothstep_integers(order), dtype=float)


def integer_polyder(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


# one step of jump 1 over width 1 between plateaus of width 1/2
UNIT_STEP = (-1.0, -0.5, 0.5, 1.0)


class TestSmoothstep:
    def test_order_one_closed_form(self):
        assert np.allclose(smoothstep_coefficients(1), [0, 0, 3, -2], atol=1e-12)

    def test_order_two_closed_form(self):
        assert np.allclose(
            smoothstep_coefficients(2), [0, 0, 0, 10, -15, 6], atol=1e-11
        )

    @pytest.mark.parametrize("order", range(1, 9))
    def test_matches_binomial_identity(self, order):
        got = smoothstep_coefficients(order)
        want = smoothstep_binomial(order)
        # the linear system loses digits to conditioning as the order grows
        assert np.allclose(got, want, rtol=1e-9, atol=2e-6 * np.max(np.abs(want)))

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
    def test_symmetry_and_midpoint(self, order):
        coeffs = smoothstep_coefficients(order)
        tol = 1e-9 if order <= 5 else 2e-6
        u = np.linspace(0.0, 1.0, 513)
        s = npoly.polyval(u, coeffs)
        assert np.allclose(s + s[::-1], 1.0, atol=tol)
        assert npoly.polyval(0.5, coeffs) == pytest.approx(0.5, abs=tol)

    @pytest.mark.parametrize("order", [1, 2, 4, 7])
    def test_flat_contact_at_endpoints(self, order):
        coeffs = smoothstep_coefficients(order)
        scale = np.max(np.abs(coeffs))
        deriv = coeffs
        for _ in range(order):
            deriv = npoly.polyder(deriv)
            for endpoint in (0.0, 1.0):
                assert abs(npoly.polyval(endpoint, deriv)) <= 1e-8 * scale

    def test_monotone_on_unit_interval(self):
        for order in (1, 3, 6):
            deriv = npoly.polyder(smoothstep_coefficients(order))
            vals = npoly.polyval(np.linspace(0.0, 1.0, 401), deriv)
            assert vals.min() >= -1e-7 * vals.max()

    def test_order_validation(self):
        for order in (0, -1, 2.0, True):
            with pytest.raises(ValueError, match="order must be a positive integer"):
                smoothstep_coefficients(order)

    @pytest.mark.parametrize("order", range(1, 31))
    def test_integer_coefficients_are_exact(self, order):
        # in integer arithmetic s(1) = 1 and s^(j)(1) = 0 for j = 1..order hold exactly
        exact = smoothstep_integers(order)
        deriv = exact
        assert sum(deriv) == 1
        for _ in range(order):
            deriv = integer_polyder(deriv)
            assert sum(deriv) == 0
        got = smoothstep_coefficients(order)
        assert got.tolist() == [float(c) for c in exact]


class TestBuildWitness:
    def test_single_value_is_constant(self):
        w = build_witness(FinitePoints([0.7]), order=3, radius=2.0)
        assert w.edges == (-2.0, 2.0) and w.values == (0.7,)
        xs = np.linspace(-2.0, 2.0, 101)
        assert np.all(w.evaluate(xs) == 0.7)
        assert np.all(w.evaluate(xs, 1) == 0.0)
        assert witness_derivative_scale(w) == 0.0

    def test_two_value_layout(self):
        # ratio 0.5 with two values: transition width 1 centered at 0
        w = build_witness(FinitePoints([0.0, 1.0]), order=1, radius=1.0)
        # interior junctions only; the domain endpoints are not breakpoints
        assert np.allclose(w.edges[1:-1], [-0.5, 0.5])
        assert len(w.edges) == 4
        assert w.edges[2] - w.edges[1] == pytest.approx(1.0, rel=1e-12)
        assert w.evaluate(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_pieces_tile_the_domain(self):
        rng = np.random.default_rng(3)
        w = build_witness(FinitePoints(rng.standard_normal(6)), order=2, radius=1.5)
        assert len(w.edges) == 12 and len(w.values) == 6
        assert (w.edges[0], w.edges[-1]) == (-1.5, 1.5)
        widths = np.diff(w.edges)
        # plateaus are half as wide as the transitions between them
        assert np.allclose(widths[::2], 0.5 * widths[1], rtol=1e-12)
        assert np.allclose(widths[1::2], widths[1], rtol=1e-12)
        assert all(type(v) is float for v in w.edges + w.values)

    def test_critical_values_are_exactly_the_prescribed_set(self):
        rng = np.random.default_rng(11)
        delta = np.sort(rng.uniform(-2.0, 2.0, size=7))
        w = build_witness(FinitePoints(delta), order=5)
        xs = np.linspace(-1.0, 1.0, 20001)
        fx = w.evaluate(xs)
        slope = w.evaluate(xs, 1)
        flat = np.abs(slope) < 1e-10
        # interior criterion: drop the domain endpoints themselves
        flat[0] = flat[-1] = False
        attained = fx[flat]
        assert attained.size > 0
        # every flat sample sits on a prescribed level ...
        dist = np.min(np.abs(attained[:, None] - delta[None, :]), axis=1)
        assert np.max(dist) < 1e-6
        # ... and every prescribed level is attained
        for v in delta:
            assert np.min(np.abs(attained - v)) < 1e-9

    def test_wider_transitions_lower_the_scale(self):
        def staircase(width):
            # the same two plateaus, joined by one step of the given width
            h = width / 2.0
            return WitnessFunction((-1.0, -h, h, 1.0), (0.0, 2.5), order=2, radius=1.0)

        gentle, steep = staircase(1.0), staircase(0.25)
        assert witness_derivative_scale(gentle) < witness_derivative_scale(steep)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_witness(FinitePoints([0.0, 1.0]), order=1, radius=0.0)

    @pytest.mark.parametrize("radius", [1e-314, 1e-320])
    def test_a_radius_too_small_to_lay_out_is_refused_by_name(self, radius):
        # four plateaus' widths round to a few subnormal ulps and miss the right end
        with pytest.raises(ValueError, match=f"radius {radius!r} is too small to lay out 4 plateaus"):
            build_witness(FinitePoints([0.0, 1.0, 2.0, 3.0]), order=1, radius=radius)

    @pytest.mark.parametrize("values, radius", [([0.0, 1.0], 1e-314), ([0.0, 1.0, 2.0, 3.0], 2e-308)])
    def test_tiny_radii_that_lay_out_still_build(self, values, radius):
        w = build_witness(FinitePoints(values), order=1, radius=radius)
        assert w.edges[0] == -radius and w.edges[-1] == radius
        assert all(map(float.__le__, w.edges, w.edges[1:]))

    @pytest.mark.parametrize("edges, values", [
        ((-1.0, 1.0), ()),                        # no value
        ((-1.0, 0.0, 1.0), (0.0, 1.0)),           # 3 edges for 2 values
        ((-0.9, 0.0, 0.5, 1.0), (0.0, 1.0)),      # misses the left end
        ((-1.0, 0.0, 0.5, 0.9), (0.0, 1.0)),      # misses the right end
        ((-1.0, 0.5, 0.0, 1.0), (0.0, 1.0)),      # decreasing edge
    ])
    def test_sequences_must_tile_the_domain(self, edges, values):
        with pytest.raises(ValueError):
            WitnessFunction(edges, values, order=1, radius=1.0)

    def test_zero_width_pieces_are_allowed(self):
        w = WitnessFunction((-1.0, -1.0, 1.0, 1.0), (0.0, 2.0), order=1, radius=1.0)
        assert w.evaluate(-1.0) == 0.0 and w.evaluate(1.0) == 2.0
        assert w.evaluate(0.0) == 1.0


class TestEvaluate:
    def test_vectorized_matches_scalar(self):
        w = build_witness(FinitePoints([0.0, 1.0, 3.0]), order=2)
        xs = np.linspace(-1.0, 1.0, 57)
        for j in (0, 1, 2):
            vec = w.evaluate(xs, j)
            scal = np.array([w.evaluate(float(x), j) for x in xs])
            assert np.array_equal(vec, scal)

    def test_domain_enforced(self):
        w = build_witness(FinitePoints([0.0, 1.0]), order=1)
        with pytest.raises(ValueError):
            w.evaluate(1.001)
        with pytest.raises(ValueError):
            w.evaluate(np.array([0.0, -1.5]))

    def test_endpoints_hit_the_extreme_plateaus(self):
        w = build_witness(FinitePoints([-2.0, 5.0]), order=3, radius=0.5)
        assert w.evaluate(-0.5) == -2.0
        assert w.evaluate(0.5) == 5.0

    def test_derivatives_beyond_the_degree_vanish(self):
        w = build_witness(FinitePoints([0.0, 1.0]), order=1)  # cubic transitions
        xs = np.linspace(-1.0, 1.0, 33)
        assert np.all(w.evaluate(xs, 4) == 0.0)
        assert np.all(w.evaluate(xs, 9) == 0.0)


class TestDerivativeScale:
    def test_canonical_step(self):
        # max of the cubic step slope is 1.5; jump 1 over width 1
        w = build_witness(FinitePoints([0.0, 1.0]), order=1)
        assert witness_derivative_scale(w) == pytest.approx(1.5, rel=1e-12)

    def test_scales_linearly_with_values(self):
        delta = np.array([0.0, 0.4, 1.0, 2.2])
        base = witness_derivative_scale(build_witness(FinitePoints(delta), order=3))
        for a in (0.1, 7.0):
            scaled = witness_derivative_scale(build_witness(FinitePoints(a * delta), order=3))
            assert scaled == pytest.approx(a * base, rel=1e-12)

    @pytest.mark.parametrize("order", [3, 5, 15])
    def test_scale_does_not_depend_on_the_radius(self, order):
        # power-of-two radii scale every width exactly, so the bits agree
        s = FinitePoints([0.0, 0.1, 0.25, 0.3, 1.7])
        base = witness_derivative_scale(build_witness(s, order))
        for radius in (2.0**200, 2.0**-200):
            assert witness_derivative_scale(build_witness(s, order, radius)) == base

    def test_step_maximum_matches_a_50_digit_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        for order in range(1, 31):
            # jump 1 over width 1 at radius 1: the scale is max|s^(order)| / order!
            w = WitnessFunction(UNIT_STEP, (0.0, 1.0), order=order, radius=1.0)
            got = witness_derivative_scale(w) * math.factorial(order)
            # extremes of s^(order) sit at the roots of s^(order+1), refined by
            # mpmath's secant solver from the shifted Gauss nodes and evaluated
            # on the integer coefficients
            deriv = smoothstep_integers(order)
            for _ in range(order):
                deriv = integer_polyder(deriv)
            slope = integer_polyder(deriv)
            top = max(abs(c) for c in slope)
            with mpmath.workdps(50):
                slope_mp = [mpmath.mpf(c) / top for c in reversed(slope)]
                roots = [
                    mpmath.findroot(lambda u: mpmath.polyval(slope_mp, u), (x + 1) / 2)
                    for x in np.polynomial.legendre.legroots([0] * order + [1])
                ]
                want = max(abs(mpmath.polyval(list(reversed(deriv)), u)) for u in roots)
                assert abs(got - want) <= 1e-14 * want, order

    def test_memoized_step_maximum_is_the_uncached_expression(self):
        for order in range(1, 31):
            nodes = legendre.legroots([0] * order + [1])
            peak = np.max(np.abs(legendre.legval(nodes, [0] * (order - 1) + [1])))
            want = (math.factorial(2 * order + 1)
                    / (2 * math.factorial(order) * (order + 1)) * peak)
            for _ in range(2):  # computed, then cached
                got = witness._step_max(order)
                assert type(got) is type(want) and got == want, order

    @pytest.mark.parametrize("order", [3, 16, 20, 25])
    def test_numpy_integer_order_is_a_python_int(self, order):
        # in np.int64 the step maximum's factorials round at 16, wrap
        # negative at 20 and overflow at 21
        w = WitnessFunction(UNIT_STEP, (0.0, 1.0), order=np.int64(order), radius=1.0)
        assert type(w.order) is int
        plain = WitnessFunction(UNIT_STEP, (0.0, 1.0), order=order, radius=1.0)
        assert witness_derivative_scale(w) == witness_derivative_scale(plain) > 0.0

    def test_witness_needs_a_positive_integer_order(self):
        for order in (0, -1, 2.0, True, np.bool_(True)):
            with pytest.raises(ValueError, match="order must be a positive integer"):
                WitnessFunction((-1.0, 1.0), (0.0,), order=order, radius=1.0)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_finite_difference_cross_check(self, order):
        delta = [0.0, 0.3, 0.7, 1.1, 2.0]
        w = build_witness(FinitePoints(delta), order)
        exact = witness_derivative_scale(w)
        h = 0.002
        xs = np.linspace(-1.0, 1.0, 1001)
        g = w.evaluate(xs)
        for _ in range(order):
            g = np.gradient(g, h)
        trim = 4 * order
        fd = np.max(np.abs(g[trim:-trim])) / math.factorial(order)
        assert fd == pytest.approx(exact, rel=0.01)


class TestJunctionContinuity:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_one_sided_limits_agree(self, order):
        delta = [0.0, 0.3, 0.7, 1.1, 2.0]
        w = build_witness(FinitePoints(delta), order)
        xs = np.linspace(-1.0, 1.0, 4001)
        tiny = 1e-9
        for j in range(order + 1):
            gmax = max(float(np.max(np.abs(w.evaluate(xs, j)))), 1e-30)
            for b in w.edges[1:-1]:
                if abs(b) >= 1.0 - tiny:
                    continue
                left = w.evaluate(b - tiny, j)
                right = w.evaluate(b + tiny, j)
                assert abs(left - right) <= 1e-6 * gmax

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_one_sided_stencils_match_analytic_junction_derivatives(self, order):
        # fourth-order one-sided stencils stay inside a single piece, so the
        # comparison isolates the assembly from the stencil's own error
        delta = [0.0, 0.3, 0.7, 1.1, 2.0]
        w = build_witness(FinitePoints(delta), order)
        h = 1e-4
        xs = np.linspace(-1.0, 1.0, 4001)
        for j in range(1, order + 1):
            gmax = float(np.max(np.abs(w.evaluate(xs, j))))

            def g(t, jj=j):
                return w.evaluate(t, jj - 1)

            for b in w.edges[1:-1]:
                if abs(b) >= 1.0 - 5 * h:
                    continue
                forward = (
                    -25 * g(b) + 48 * g(b + h) - 36 * g(b + 2 * h)
                    + 16 * g(b + 3 * h) - 3 * g(b + 4 * h)
                ) / (12 * h)
                backward = (
                    25 * g(b) - 48 * g(b - h) + 36 * g(b - 2 * h)
                    - 16 * g(b - 3 * h) + 3 * g(b - 4 * h)
                ) / (12 * h)
                exact = w.evaluate(b, j)
                assert abs(forward - exact) <= 1e-6 * gmax
                assert abs(backward - exact) <= 1e-6 * gmax


def _bits(values) -> list:
    """Each float's exact bits, so that -0.0 and 0.0 differ and a NaN matches itself."""
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _assert_matches_pieces(w, pieces):
    d, r = w.order, w.radius
    edges = np.array(w.edges)
    assert _bits(edges) == _bits([p.lo for p in pieces] + [r])
    xs = np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1]), np.linspace(-r, r, 513),
                         np.random.default_rng(len(pieces)).uniform(-r, r, 256)])
    # tiny radii push high derivatives past float range on both sides alike
    with np.errstate(all="ignore"):
        for j in range(d + 2):
            want = oracles.reference_witness_evaluate(pieces, d, xs, j)
            assert _bits(w.evaluate(xs, j)) == _bits(want), j
    want = oracles.reference_witness_scale(pieces, d, r)
    if math.isfinite(want):
        assert _bits([witness_derivative_scale(w)]) == _bits([want])
    else:
        with pytest.raises(ValueError, match="beyond float range"):
            witness_derivative_scale(w)
    blob = json.dumps(w.to_json_dict(), sort_keys=True)
    assert blob == json.dumps(oracles.reference_witness_json(pieces, d, r), sort_keys=True)


class TestMatchesPieceOracle:
    """The two-sequence witness gives the bits of one stored and evaluated
    one piece object at a time (``tests/oracles.py``)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_built_layouts(self, seed):
        rng = np.random.default_rng(seed)
        k, d = int(rng.integers(1, 201)), int(rng.integers(1, 16))
        radius = [1.0, 0.37, 1e5, 2.0**200, 2.0**-200][seed % 5]
        values = rng.uniform(-3.0, 3.0, k) * 10.0 ** rng.integers(-5, 6)
        w = build_witness(FinitePoints(values), d, radius)
        _assert_matches_pieces(w, oracles.reference_witness_pieces(values, radius))

    @pytest.mark.parametrize("seed", range(20))
    def test_uneven_edges(self, seed):
        rng = np.random.default_rng(1000 + seed)
        k, d = int(rng.integers(1, 30)), int(rng.integers(1, 16))
        radius = [1.0, 0.37, 1e5, 2.0**200, 2.0**-200][seed % 5]
        inner = np.sort(rng.uniform(-radius, radius, 2 * k - 2))
        inner[rng.random(inner.size) < 0.2] = inner[0]  # some zero-width pieces
        edges = [-radius] + np.sort(inner).tolist() + [radius]
        values = rng.normal(size=k).tolist()  # neither sorted nor distinct is required
        w = WitnessFunction(edges, values, d, radius)
        _assert_matches_pieces(w, oracles.pieces_from_sequences(edges, values))


class TestSerialization:
    def test_sample_csv_header_tracks_the_order(self):
        w = build_witness(FinitePoints([0.0, 1.0]), order=2)
        lines = w.sample_csv_text().strip().split("\n")
        assert lines[0] == "x,f,f1,f2"
        assert len(lines) == 2002
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == -1.0 and first[1] == 0.0

    def test_json_dict(self):
        w = build_witness(FinitePoints([0.0, 1.0, 2.0]), order=2, radius=1.5)
        blob = w.to_json_dict()
        assert blob["order"] == 2
        assert blob["radius"] == 1.5
        assert blob["plateau_ratio"] == 0.5
        assert blob["plateau_values"] == [0.0, 1.0, 2.0]
        kinds = [p["kind"] for p in blob["pieces"]]
        assert kinds == ["plateau", "transition"] * 2 + ["plateau"]
        json.dumps(blob)  # plain python scalars only


class TestSandwich:
    def test_seven_point_instance(self):
        p = ProblemParams(1, 1, 5)  # c = 6
        result = sandwich_check(p, LambdaProfile.zeros(1), FinitePoints(np.arange(7) * 0.1))
        assert result.ok
        assert result.gamma == pytest.approx((7.0 / 6.0) ** 5 * 0.05, rel=1e-6)
        assert result.witness_scale > result.gamma

    def test_tiny_set_is_trivially_consistent(self):
        p = ProblemParams(1, 1, 5)
        result = sandwich_check(p, LambdaProfile.zeros(1), FinitePoints([0.0, 1.0]))
        assert result.gamma == 0.0
        assert result.ok

    def test_univariate_only(self):
        p = ProblemParams(2, 1, 3, c=2.0)
        with pytest.raises(ValueError):
            sandwich_check(p, LambdaProfile.zeros(1), FinitePoints([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("s", [PowerSequence(-1.0), SampledCloud([[0.0, 1.0], [1.0, 0.0]])],
                             ids=["power", "cloud"])
    def test_finite_sets_only_refused_before_the_bound(self, monkeypatch, s):
        # a staircase has finitely many plateaus: it realizes no power sequence
        def bound_must_not_run(*args):
            raise AssertionError("rigidity_bound ran before the refusal")

        monkeypatch.setattr(witness, "rigidity_bound", bound_must_not_run)
        with pytest.raises(ValueError, match="finite sets only"):
            sandwich_check(ProblemParams(1, 1, 3), LambdaProfile.zeros(1), s)

    def test_random_sweep(self):
        rng = np.random.default_rng(1234)
        for trial in range(20):
            d = 1 + trial % 3
            p = ProblemParams(1, 1, d)
            delta = FinitePoints(rng.uniform(-1.0, 1.0, size=d + 2))
            result = sandwich_check(p, LambdaProfile.zeros(1), delta)
            assert result.ok, f"bound exceeded the witness scale on trial {trial}"

    def test_json_payload(self):
        p = ProblemParams(1, 1, 2)  # c = 3
        result = sandwich_check(p, LambdaProfile.zeros(1), FinitePoints([0.0, 0.5, 1.0, 2.0]))
        blob = result.to_json_dict()
        for key in ("gamma", "witness_derivative_scale", "witness", "ok"):
            assert key in blob
        assert blob["ok"] is True
        json.dumps(blob)
