"""Top-level acceptance checks for the whole package.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single ``ACCEPTANCE <name>: PASS`` line on success (visible with
``pytest -s``; ``pytest -v`` gives the same one-line-per-check view).
Budgeted tests carry an explicit wall-clock guard.
"""

import math
import time

import numpy as np
import numpy.polynomial.polynomial as npoly

from rigidity.bounds import (
    EXCLUDED,
    LambdaProfile,
    ProblemParams,
    classify_power_sequence,
    critical_point_rigidity_reduction,
    rhs_polynomial,
    rigidity_bound,
    solve_eta,
)
from rigidity.covering import covering_counts, covering_number_1d
from rigidity.critical import SampledMap, empirical_forward_check
from rigidity.sets import FinitePoints, PowerSequence
from rigidity.util import fit_loglog_slope, log_grid
from rigidity.witness import build_witness, witness_derivative_scale, sandwich_check

from oracles import brute_force_covering_oracle


def _announce(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_seven_point_closed_form_agreement():
    start = time.perf_counter()
    p = ProblemParams(n=1, m=1, d=5)          # c defaults to 6
    profile = LambdaProfile.zeros(1)
    s = FinitePoints(np.arange(7) * 0.1)
    report = rigidity_bound(p, profile, s)
    elapsed = time.perf_counter() - start

    assert math.isclose(report.epsilon0, 0.05, rel_tol=1e-9)
    closed = (7.0 / 6.0) ** 5 * report.epsilon0
    assert math.isclose(report.gamma_closed_form, closed, rel_tol=1e-12)
    assert abs(report.gamma - report.gamma_closed_form) <= 1e-6 * report.gamma_closed_form
    assert abs(report.gamma - 0.1080637) <= 1e-4
    assert elapsed < 1.0, f"seven-point bound took {elapsed:.3f}s"
    _announce("seven_point_closed_form_agreement")


def test_ratio_solver_analytic_instance_and_residuals():
    # hand-solvable instance: with c = 2, lambda_1 = 1/2, r/eps = 4, n = 2,
    # d = 3 the polynomial at eta = 8 is 2 * (8^(2/3) + 2 * 8^(1/3)) = 2 * (4 + 4)
    p = ProblemParams(n=2, m=1, d=3, r=1.0, c=2.0)
    profile = LambdaProfile((0.5,))
    eta = solve_eta(p, profile, nu=16, epsilon=0.25)
    assert math.isclose(eta, 8.0, rel_tol=1e-9)

    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, n + 1))
        d = int(rng.integers(1, 6))
        r = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(1.0, 8.0))
        # the constant is at least d + 1 for n = 1, max(2, (d - 2)**n) for n >= 2
        pp = ProblemParams(n=n, m=m, d=d, r=r, c=c + (d + 1 if n == 1 else max(2, (d - 2) ** n)))
        prof = LambdaProfile(tuple(np.sort(rng.uniform(0.0, 2.0, size=m))))
        eps = float(10.0 ** rng.uniform(-4, 0))
        baseline = rhs_polynomial(pp, prof, eps, 1.0)
        nu = max(int(math.ceil(baseline)) + 1,
                 int(math.ceil(baseline * rng.uniform(1.1, 40.0))))
        eta = solve_eta(pp, prof, nu, eps)
        residual = abs(rhs_polynomial(pp, prof, eps, eta) - nu)
        assert residual <= 1e-9 * nu, (pp, prof, eps, nu, residual)
    _announce("ratio_solver_analytic_instance_and_residuals")


def test_covering_greedy_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(991)
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        pts = rng.uniform(-5.0, 5.0, size=k)
        eps = float(10.0 ** rng.uniform(-2, 1))
        greedy = covering_number_1d(pts, eps)
        oracle = brute_force_covering_oracle(pts, eps)
        assert greedy == oracle, (pts.tolist(), eps, greedy, oracle)

    # monotonicity in the radius on a fixed set
    pts = rng.uniform(-5.0, 5.0, size=12)
    counts = [covering_number_1d(pts, e) for e in np.geomspace(1e-3, 20.0, 60)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))

    # affine invariance, with exactly-representable scale factors
    for _ in range(200):
        pts = rng.uniform(-5.0, 5.0, size=int(rng.integers(2, 13)))
        eps = float(10.0 ** rng.uniform(-2, 0.5))
        base = covering_number_1d(pts, eps)
        for a in (2.0, 0.5, -4.0):
            assert covering_number_1d(a * pts + 0.75, abs(a) * eps) == base
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"covering sweep took {elapsed:.3f}s"
    _announce("covering_greedy_matches_brute_force")


def test_power_sequence_asymptotics_and_classifier():
    grid = log_grid(1e-5, 1e-3, 40)
    counts = covering_counts(PowerSequence(-1.0), grid)
    slope = fit_loglog_slope(grid, counts)
    assert abs(slope - (-0.5)) <= 0.05, slope

    fast = classify_power_sequence(-1.0, d=5)
    assert fast.verdict == EXCLUDED and math.isclose(fast.exponent, -1.5)
    slow = classify_power_sequence(-1.0, d=1)
    assert slow.verdict != EXCLUDED and math.isclose(slow.exponent, 0.5)
    _announce("power_sequence_asymptotics_and_classifier")


def test_sandwich_falsification_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    for trial in range(100):
        d = 1 + trial % 3
        values = rng.uniform(-2.0, 2.0, size=d + 2)
        p = ProblemParams(n=1, m=1, d=d)      # c = d + 1
        res = sandwich_check(p, LambdaProfile.zeros(1), FinitePoints(values))
        assert res.ok, (trial, d, values.tolist(), res.gamma, res.witness_scale)
        assert res.gamma <= res.witness_scale * (1.0 + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sandwich sweep took {elapsed:.3f}s"
    _announce("sandwich_falsification_sweep")


def test_forward_bound_on_random_polynomials():
    rng = np.random.default_rng(77)
    p = ProblemParams(n=1, m=1, d=3, c=4.0)
    profile = LambdaProfile.zeros(1)
    grid = log_grid(1e-4, 1e-2, 50)
    checked = 0
    for _ in range(200):
        if checked == 20:
            break
        coeffs = rng.uniform(-1.0, 1.0, size=11)
        sm = SampledMap.from_callable(lambda X: npoly.polyval(X[:, 0], coeffs), 1, 1)
        report = empirical_forward_check(sm, p, profile, eps_grid=grid)
        assert report.all_passed, report.flag
        if not report.rows:
            # monotone draw: nothing near-critical, the check is vacuous
            continue
        checked += 1
        assert report.flag is None
        assert math.isclose(report.slope_reference, -1.0 / 3.0, rel_tol=1e-12)
        if report.slope is not None:
            assert report.slope >= -1.0 / 3.0 - 0.1, report.slope
    assert checked == 20
    _announce("forward_bound_on_random_polynomials")


def test_witness_regularity():
    values = np.array([0.0, 0.3, 0.7, 1.1, 2.0])
    for d in (1, 2, 3, 4):
        w = build_witness(FinitePoints(values), d)
        scale = witness_derivative_scale(w)

        # finite differences recover the derivative scale within 1%
        xs = np.linspace(-1.0, 1.0, 1001)
        g = w.evaluate(xs)
        for _ in range(d):
            g = np.gradient(g, xs)
        trim = 4 * d
        fd_scale = np.max(np.abs(g[trim:-trim])) / math.factorial(d)
        assert abs(fd_scale - scale) <= 0.01 * scale, (d, fd_scale, scale)

        # derivatives up to order d are continuous across every junction
        dense = np.linspace(-1.0, 1.0, 4001)
        gmax = [np.max(np.abs(w.evaluate(dense, j))) for j in range(d + 1)]
        tiny, h = 1e-9, 1e-4
        for b in w.edges[1:-1]:
            for j in range(d + 1):
                left = w.evaluate(b - tiny, j)
                right = w.evaluate(b + tiny, j)
                assert abs(left - right) <= 1e-6 * gmax[j], (d, b, j)
            for j in range(1, d + 1):
                exact = w.evaluate(b, j)
                xs_r = b + h * np.arange(5)
                fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
                est_r = fwd @ w.evaluate(xs_r, j - 1) / (12 * h)
                xs_l = b - h * np.arange(5)
                est_l = -(fwd @ w.evaluate(xs_l, j - 1)) / (12 * h)
                assert abs(est_r - exact) <= 1e-6 * gmax[j], (d, b, j, "right")
                assert abs(est_l - exact) <= 1e-6 * gmax[j], (d, b, j, "left")
    _announce("witness_regularity")


def test_critical_point_reduction_arithmetic():
    assert critical_point_rigidity_reduction(2.0, 4) == 1.0
    assert critical_point_rigidity_reduction(5.0, 3) == 5.0 / math.sqrt(3)
    for b in (0.0, 0.37, 2.0, 19.5):
        assert critical_point_rigidity_reduction(b, 1) == b
    _announce("critical_point_reduction_arithmetic")
