"""Lower bounds on the d-th derivative scale from covering counts.

The forward direction says: a map on the radius-r ball whose d-th
derivative scale is R can only produce near-critical values whose covering
count at resolution eps stays under a fixed polynomial in r/eps and
eta = R/eps.  Inverting that statement pointwise gives the machinery here:
wherever the observed covering count of a value set strictly beats the
eta = 1 baseline, the monotone equation for eta has a unique root above 1,
and eps * eta(eps) is a certified lower bound on R for any smooth map
realizing the set.  The reported bound gamma is the best such product over
the radii scanned: the last float of every plateau of a small finite set's
count, where the product peaks on that plateau, or else a resolution grid,
whose coarseness can cost sharpness but never soundness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .covering import covering_counts, default_grid, exact_counter, plateau_ends
from .sets import FinitePoints, PowerSequence, SetDescriptor, diameter, min_gap
from .util import check_grid, frozen_array, sorted_distinct

# boundary refinements are placed just inside the qualifying region
_BOUNDARY_SHRINK = 1.0 - 1e-9
# a finite set of at most this many points and no grid scans its k(k-1)/2
# plateau ends; above it the default grid is cheaper
_PLATEAU_SCAN_MAX = 24

EXCLUDED = "Excluded"
NOT_EXCLUDED = "NotExcludedByThisBound"

__all__ = [
    "ProblemParams",
    "LambdaProfile",
    "BoundReport",
    "PowerVerdict",
    "EXCLUDED",
    "NOT_EXCLUDED",
    "rhs_polynomial",
    "in_E",
    "solve_eta",
    "epsilon0",
    "gamma_closed_form",
    "rigidity_bound",
    "classify_power_sequence",
    "critical_point_rigidity_reduction",
]


@dataclass(frozen=True)
class ProblemParams:
    """Dimensions and constants of a bound instance.

    n: domain dimension; m: target dimension (m <= n); d: smoothness order;
    r: domain ball radius; c: the entropy constant of the forward bound.
    For n = 1 the constant is known explicitly and defaults to d + 1 (a
    smaller c would make the bound unsound, a larger one only weakens it);
    for n >= 2 no default is sound, so it must be supplied by the caller.
    """

    n: int
    m: int
    d: int
    r: float = 1.0
    c: float | None = None

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not (isinstance(self.m, (int, np.integer)) and 1 <= self.m <= self.n):
            raise ValueError("m must be an integer with 1 <= m <= n")
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError("d must be a positive integer")
        for name in ("n", "m", "d"):  # numpy integers do not serialize to JSON
            object.__setattr__(self, name, int(getattr(self, name)))
        if not (isinstance(self.r, (int, float)) and math.isfinite(self.r) and self.r > 0):
            raise ValueError("r must be a positive finite number")
        object.__setattr__(self, "r", float(self.r))
        if self.c is None:
            if self.n == 1:
                object.__setattr__(self, "c", float(self.d + 1))
            else:
                raise ValueError("the entropy constant c must be given explicitly for n >= 2")
        else:
            if not (isinstance(self.c, (int, float)) and math.isfinite(self.c) and self.c > 0):
                raise ValueError("c must be a positive finite number")
            if self.n == 1 and self.c < self.d + 1:
                raise ValueError("for n = 1 the entropy constant c must be at least d + 1")
            object.__setattr__(self, "c", float(self.c))


@dataclass(frozen=True)
class LambdaProfile:
    """Nondecreasing near-criticality thresholds (lambda_1 .. lambda_m).

    The implicit zeroth entry is always 1 and is never stored.
    """

    lambdas: tuple

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambdas)
        if len(lams) == 0:
            raise ValueError("profile needs at least one threshold")
        if any(not math.isfinite(v) or v < 0 for v in lams):
            raise ValueError("thresholds must be finite and nonnegative")
        if any(b < a for a, b in zip(lams, lams[1:])):
            raise ValueError("thresholds must be nondecreasing")
        object.__setattr__(self, "lambdas", lams)

    @classmethod
    def zeros(cls, m: int) -> "LambdaProfile":
        return cls((0.0,) * m)

    def __len__(self) -> int:
        return len(self.lambdas)


def _scalar_or_array(x):
    """Plain Python scalar for a numpy scalar, anything else unchanged."""
    return x.item() if isinstance(x, np.generic) else x


def _coefficients(p: ProblemParams, profile: LambdaProfile, epsilon) -> list:
    """a_i = (threshold product)_i * (r/eps)^i for i = 0..m, up to the first zero product."""
    if len(profile) != p.m:
        raise ValueError("profile length must equal m")
    if not (epsilon > 0).all():
        raise ValueError("epsilon must be positive")
    coeffs, prod = [np.ones_like(epsilon)], 1.0
    for i, lam in enumerate(profile.lambdas, 1):
        prod *= lam
        if prod == 0.0:
            break
        # an overflowing power is +inf, the right value: that radius never qualifies
        with np.errstate(over="ignore"):
            coeffs.append(prod * (p.r / epsilon) ** i)
    return coeffs


def rhs_polynomial(p: ProblemParams, profile: LambdaProfile, epsilon, eta):
    """Forward-bound polynomial at ratio eta = (derivative scale) / epsilon.

    Sum over i = 0..m of the cumulative threshold products times
    (r/eps)^i * eta^((n-i)/d), scaled by c.  Every coefficient is
    nonnegative and the i = 0 exponent n/d is positive, so the value is
    strictly increasing in eta.  epsilon and eta broadcast; scalars in give
    a scalar out.
    """
    # [()] makes 0-d input numpy scalars, whose ** is Python's libm pow
    epsilon = np.asarray(epsilon, dtype=float)[()]
    eta = np.asarray(eta, dtype=float)[()]
    coeffs = _coefficients(p, profile, epsilon)
    if not (eta >= 1.0).all():
        raise ValueError("eta must be at least 1")
    with np.errstate(over="ignore"):  # +inf, as in _coefficients
        total = sum(a * eta ** ((p.n - i) / p.d) for i, a in enumerate(coeffs))
        return _scalar_or_array(p.c * total)


def in_E(p: ProblemParams, profile: LambdaProfile, nu, epsilon):
    """Whether a covering count strictly beats the eta = 1 baseline.

    Strict inequality: equality carries no information and the ratio
    equation would only return eta = 1 there.  Counts and radii broadcast.
    """
    nu = np.asarray(nu)[()]
    if not (nu >= 1).all():
        raise ValueError("covering count must be at least 1")
    return _scalar_or_array(nu > rhs_polynomial(p, profile, epsilon, 1.0))


def solve_eta(p: ProblemParams, profile: LambdaProfile, nu, epsilon):
    """Unique ratio eta > 1 at which the forward polynomial equals each count.

    Counts and radii broadcast; every count must beat its eta = 1 baseline.
    In t = eta^(1/d) the equation is c * f(t) = nu with the polynomial
    f(t) = sum_i a_i t^(n-i) and every a_i >= 0, so f is increasing and
    convex for t > 0.  Newton started at or above the root falls to it
    monotonically; every entry runs in lockstep and stops at its first
    step that does not lower it.
    """
    nu, epsilon = np.asarray(nu), np.asarray(epsilon, dtype=float)
    if nu.shape != epsilon.shape:
        nu, epsilon = np.broadcast_arrays(nu, epsilon)
    nu, epsilon = nu[()], epsilon[()]
    coeffs = _coefficients(p, profile, epsilon)
    with np.errstate(over="ignore"):  # rhs_polynomial at eta = 1, each term a * 1.0
        baseline = p.c * sum(coeffs)
    short = ~(nu > baseline)
    if short.any():
        k = int(np.argmax(short))
        raise ValueError(f"count {np.ravel(nu)[k]} does not exceed the baseline "
                         f"{np.ravel(baseline)[k]:.6g}; no ratio above 1")
    # at the root every term a_i t^(n-i) is at most nu/c, so each bounds t
    # from above; starting at the least bound keeps every term of f finite
    with np.errstate(divide="ignore", over="ignore"):
        tops = [(nu / (p.c * a)) ** (1.0 / (p.n - i)) for i, a in enumerate(coeffs) if i < p.n]
        t = np.asarray(tops[0] if len(tops) == 1 else np.min(tops, axis=0))
    if not np.isfinite(t).all():  # a bound above the root would be unsound
        raise ValueError(f"count / c overflows the float range at c = {p.c:g}")
    coeffs += [0.0] * (p.n + 1 - len(coeffs))
    falling = True
    while True:
        # Horner for f and f', from its second step: the first gives a_0 and 0
        f, df = coeffs[0] * t + coeffs[1], coeffs[0]
        for a in coeffs[2:]:
            f, df = f * t + a, df * t + f
        t_next = t - (p.c * f - nu) / (p.c * df)
        falling &= t_next < t
        if not falling.any():
            break
        np.copyto(t, t_next, where=falling)
    with np.errstate(over="ignore"):  # the root lies above 1, even where t^d rounds to 1
        eta = np.maximum(t ** p.d, math.nextafter(1.0, 2.0))[()]
    if not np.isfinite(eta).all():  # an infinite eta would make gamma infinite
        raise ValueError(f"eta overflows the float range at c = {p.c:g}")
    return _scalar_or_array(eta)


def epsilon0(s: SetDescriptor, p: ProblemParams) -> float:
    """pred(E), the float just below E, the least float radius whose
    covering count is below c + 1: the last float of the count-(c+1) plateau.

    Greedy counts never rise with the radius, in floats too, so E is
    unique and a bisection by counting that keeps the count at lo and
    below it at hi ends, at adjacent floats, with lo = pred(E).  A finite
    set brackets E by [min_gap/4, diameter], where the count must reach
    c + 1 at min_gap/4; a power sequence halves 1/4 until the count does.
    Raises ValueError when no positive radius qualifies, or when c + 1
    rounds to 1, which even the one-ball count reaches.
    """
    count_at = exact_counter(s)
    threshold = p.c + 1.0
    if not threshold > 1.0:
        raise ValueError(f"c + 1 rounds to 1 at c = {p.c:g}; every radius reaches it")
    if isinstance(s, PowerSequence):
        lo, hi = 0.25, 0.5  # one ball covers the sequence at 1/2
        while lo > 0.0 and count_at(lo) < threshold:
            lo, hi = lo / 2.0, lo
        reached = lo > 0.0
    else:
        lo, hi = min_gap(s) / 4.0, diameter(s)  # one ball covers the set at its diameter
        reached = lo > 0.0 and covering_counts(s, [lo])[0] >= threshold
    if not reached:
        raise ValueError(f"covering count never reaches c + 1 = {threshold:g}")
    # the rounded midpoint lies strictly inside until lo and hi are adjacent
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        if count_at(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def gamma_closed_form(eps0: float, p: ProblemParams) -> float:
    """Closed-form bound (1 + 1/c)^(d/n) * eps0 for the plain-threshold case.

    Valid when the first threshold is zero (the ratio equation collapses to
    a single power term) and the count at eps0 reaches c + 1, as it does at
    ``epsilon0``, the last float of the count-(c+1) plateau.
    """
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    try:
        return (1.0 + 1.0 / p.c) ** (p.d / p.n) * eps0
    except OverflowError:  # a float power raises where a product goes to inf
        raise ValueError(f"(1 + 1/c)^(d/n) overflows at c={p.c!r}, d/n={p.d / p.n!r}") from None


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Outcome of a rigidity scan over a grid or the plateau ends of a set.

    eta_curve: the read-only (k, 2) float64 array of (resolution, solved
    ratio) rows, any sequence accepted and converted; epsilon0: the last
    float counting c + 1, and gamma_closed_form: its closed-form bound when
    the first threshold is zero, each None where it does not apply.
    Derived from the curve: e_intervals, the read-only (k,) array of
    qualifying resolutions, and gamma, the best eps * eta product (zero
    exactly when nothing qualified).
    """

    eta_curve: np.ndarray
    gamma_closed_form: float | None
    epsilon0: float | None
    params: ProblemParams
    profile: LambdaProfile
    e_intervals: np.ndarray = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        curve = np.asarray(self.eta_curve, dtype=float)
        if curve.size == 0:
            curve = curve.reshape(0, 2)
        if curve.ndim != 2 or curve.shape[1] != 2:
            raise ValueError("need a (k, 2) eta curve")
        if np.any(curve[:, 1] <= 1.0):
            raise ValueError("every solved ratio must exceed 1")
        object.__setattr__(self, "eta_curve", frozen_array(curve))
        object.__setattr__(self, "e_intervals", frozen_array(curve[:, 0]))
        with np.errstate(over="ignore"):  # refused below, as solve_eta refuses eta = inf
            gamma = float(np.max(curve[:, 0] * curve[:, 1], initial=0.0))
        if not math.isfinite(gamma):
            raise ValueError("gamma = eps * eta overflows the float range")
        object.__setattr__(self, "gamma", gamma)

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "epsilon0": self.epsilon0,
            "gamma_closed_form": self.gamma_closed_form,
            "eta_curve": self.eta_curve.tolist(),
            "E_intervals": self.e_intervals.tolist(),
            "params": {**asdict(self.params), "lambdas": list(self.profile.lambdas)},
        }


def rigidity_bound(p: ProblemParams, profile: LambdaProfile,
                   s: SetDescriptor, eps_grid=None) -> BoundReport:
    """Best certified lower bound on the derivative scale over a scan.

    Keeps the scanned radii whose exact covering count beats the baseline,
    solves the ratio equation on each, and takes the best eps * eta
    product.  With no grid, a finite set of at most _PLATEAU_SCAN_MAX
    points scans its ``plateau_ends``, which gives the best product over
    every radius, and reads epsilon0 off them.  Otherwise the grid (by
    default ``default_grid``) plus a point just inside epsilon0 is scanned;
    a coarse grid costs sharpness, never validity.  Sets with only
    estimated covering curves (m >= 2 clouds) are refused.
    """
    # count 1 beats the baseline only for c < 1, on a plateau with no end
    if (eps_grid is None and isinstance(s, FinitePoints)
            and s.values.size <= _PLATEAU_SCAN_MAX and p.c >= 1.0):
        scan = plateau_ends(s)
        counts = covering_counts(s, scan)
        top = scan[counts >= p.c + 1.0]  # largest first
        # epsilon0 refuses where its first count, at min_gap/4, is below c + 1
        eps0 = top[0].item() if top.size and top[0] >= min_gap(s) / 4.0 > 0.0 else None
    else:
        grid = default_grid(s) if eps_grid is None else check_grid(eps_grid)
        try:
            eps0 = epsilon0(s, p)
        except ValueError:
            eps0 = None
        boundary = [] if eps0 is None else [eps0 * _BOUNDARY_SHRINK]
        scan = sorted_distinct(np.concatenate([grid, boundary]))[::-1]
        counts = covering_counts(s, scan)
    coeffs = _coefficients(p, profile, scan)
    with np.errstate(over="ignore"):  # rhs_polynomial at eta = 1, each term a * 1.0
        hit = counts > p.c * sum(coeffs)
    qualifying = scan[hit]
    curve = np.column_stack((qualifying, solve_eta(p, profile, counts[hit], qualifying)))

    closed = None
    if eps0 is not None and profile.lambdas[0] == 0.0:
        closed = gamma_closed_form(eps0, p)
    return BoundReport(curve, closed, eps0, p, profile)


@dataclass(frozen=True)
class PowerVerdict:
    """Classification of a power sequence under the rigidity bound."""

    exponent: float
    verdict: str


def classify_power_sequence(alpha: float, d: int, n: int = 1) -> PowerVerdict:
    """Decay-rate dichotomy for power-law value sequences.

    The certified bound along the sequence scales like eps to the power
    1 + d/(n*(alpha-1)), for domain dimension n and smoothness order d.  A
    negative exponent means the bound blows up as the resolution shrinks,
    so no map of smoothness order d can realize the sequence as its
    near-critical values; a nonnegative exponent means this bound alone
    excludes nothing.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError("d must be a positive integer")
    if not (math.isfinite(alpha) and alpha < 0):
        raise ValueError("alpha must be a finite negative number")
    exponent = 1.0 + d / (n * (alpha - 1.0))
    verdict = EXCLUDED if exponent < 0 else NOT_EXCLUDED
    return PowerVerdict(exponent, verdict)


def critical_point_rigidity_reduction(zero_set_bound: float, n: int) -> float:
    """Lower bound transfer from the zero-set problem to the critical-point problem.

    A derivative-scale bound B for maps vanishing on a set transfers to
    B / sqrt(n) for maps whose differential degenerates on it.  Identity in
    one dimension.
    """
    if not (isinstance(zero_set_bound, (int, float)) and zero_set_bound >= 0):
        raise ValueError("the zero-set bound must be nonnegative")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    return float(zero_set_bound) / math.sqrt(n)
