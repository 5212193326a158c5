"""Lower bounds on the d-th derivative scale from covering counts.

The forward direction says: a map on the radius-r ball whose d-th
derivative scale is R can only produce near-critical values whose covering
count at resolution eps stays under a fixed polynomial in r/eps and
eta = R/eps.  Inverting that statement pointwise gives the machinery here:
wherever the observed covering count of a value set strictly beats the
eta = 1 baseline, the monotone equation for eta has a unique root above 1,
and eps * eta(eps) is a certified lower bound on R for any smooth map
realizing the set.  The reported bound gamma is the best such product over
a resolution grid, so grid coarseness can cost sharpness but never
soundness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import covering_counts, default_grid, exact_counter
from .sets import PowerSequence, SetDescriptor, diameter, min_gap
from .util import sorted_distinct

BISECT_REL_TOL = 1e-12
BISECT_MAX_ITER = 200
# boundary refinements are placed just inside the qualifying region
_BOUNDARY_SHRINK = 1.0 - 1e-9

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
    "forward_upper_bound",
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

    @property
    def all_zero(self) -> bool:
        return all(v == 0.0 for v in self.lambdas)


def _scalar_or_array(x):
    """Plain Python scalar for a numpy scalar, anything else unchanged."""
    return x.item() if isinstance(x, np.generic) else x


def _coefficients(p: ProblemParams, profile: LambdaProfile, epsilon) -> list:
    """a_i = (threshold product)_i * (r/eps)^i for i = 0..m, up to the first zero product."""
    coeffs, prod = [], 1.0
    # an overflowing power is +inf, the right value: that radius never qualifies
    with np.errstate(over="ignore"):
        ratio = p.r / epsilon
        for i in range(p.m + 1):
            if i > 0:
                prod *= profile.lambdas[i - 1]
                if prod == 0.0:
                    break
            coeffs.append(prod * ratio**i)
    return coeffs


def rhs_polynomial(p: ProblemParams, profile: LambdaProfile, epsilon, eta):
    """Forward-bound polynomial at ratio eta = (derivative scale) / epsilon.

    Sum over i = 0..m of the cumulative threshold products times
    (r/eps)^i * eta^((n-i)/d), scaled by c.  Every coefficient is
    nonnegative and the i = 0 exponent n/d is positive, so the value is
    strictly increasing in eta.  epsilon and eta broadcast; scalars in give
    a scalar out.
    """
    if len(profile) != p.m:
        raise ValueError("profile length must equal m")
    # [()] makes 0-d input numpy scalars, whose ** is Python's libm pow
    epsilon = np.asarray(epsilon, dtype=float)[()]
    eta = np.asarray(eta, dtype=float)[()]
    if not (epsilon > 0).all():
        raise ValueError("epsilon must be positive")
    if not (eta >= 1.0).all():
        raise ValueError("eta must be at least 1")
    coeffs = _coefficients(p, profile, epsilon)
    total = sum(a * eta ** ((p.n - i) / p.d) for i, a in enumerate(coeffs))
    return _scalar_or_array(p.c * total)


def forward_upper_bound(p: ProblemParams, profile: LambdaProfile,
                        derivative_scale: float, epsilon: float) -> float:
    """Upper bound on the covering count of near-critical values at resolution epsilon.

    Above the derivative scale the bound is the baseline polynomial
    (eta = 1); below it each term picks up the ratio power.  The two
    expressions agree at epsilon = derivative_scale, so the bound is
    continuous across the seam.
    """
    if not (isinstance(derivative_scale, (int, float)) and derivative_scale >= 0):
        raise ValueError("derivative scale must be nonnegative")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if epsilon >= derivative_scale:
        return rhs_polynomial(p, profile, epsilon, 1.0)
    return rhs_polynomial(p, profile, epsilon, derivative_scale / epsilon)


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
    nu, epsilon = (a[()] for a in np.broadcast_arrays(nu, np.asarray(epsilon, dtype=float)))
    baseline = rhs_polynomial(p, profile, epsilon, 1.0)
    short = ~(nu > baseline)
    if short.any():
        k = int(np.argmax(short))
        raise ValueError(f"count {np.ravel(nu)[k]} does not exceed the baseline "
                         f"{np.ravel(baseline)[k]:.6g}; no ratio above 1")
    coeffs = _coefficients(p, profile, epsilon)
    # at the root every term a_i t^(n-i) is at most nu/c, so each bounds t
    # from above; starting at the least bound keeps every term of f finite
    with np.errstate(divide="ignore", over="ignore"):
        t = np.min([(nu / (p.c * a)) ** (1.0 / (p.n - i))
                    for i, a in enumerate(coeffs) if i < p.n], axis=0)
    coeffs += [0.0] * (p.n + 1 - len(coeffs))
    falling = True
    while np.any(falling):
        f, df = 0.0, 0.0
        for a in coeffs:  # Horner for f and f'
            f, df = f * t + a, df * t + f
        t_next = t - (p.c * f - nu) / (p.c * df)
        falling = falling & (t_next < t)
        t = np.where(falling, t_next, t)
    # the root lies above 1, even where t^d rounds to 1
    return _scalar_or_array(np.maximum(t ** p.d, np.nextafter(1.0, 2.0))[()])


def _cardinality(s: SetDescriptor) -> float:
    if isinstance(s, PowerSequence):
        return math.inf
    return float(sorted_distinct(s.values).size)


def epsilon0(s: SetDescriptor, p: ProblemParams) -> float:
    """Largest radius at which the covering count still reaches c + 1.

    Bisection between a radius separating every point and one collapsing
    the set into a single ball, run to relative width BISECT_REL_TOL.
    With closed balls the qualifying region is open on the right; the
    returned value is its boundary, approached from inside.
    """
    count_at = exact_counter(s)
    card = _cardinality(s)
    if not card > p.c:
        raise ValueError("the set must have more than c distinct values")
    threshold = p.c + 1.0

    if isinstance(s, PowerSequence):
        # a ball of radius 1/2 covers (0, 1] entirely, so the count is 1 there;
        # the power counter itself is only defined below 1
        lo, hi = 0.25, 0.5
        shrinks = 0
        while count_at(lo) < threshold:
            lo /= 2.0
            shrinks += 1
            if shrinks > 200:
                raise RuntimeError("failed to find a qualifying radius")
    else:
        # one ball of radius diameter(s) covers the set: the count there is 1,
        # below the threshold unless c + 1 rounds to 1
        if not threshold > 1.0:
            raise RuntimeError("failed to find a disqualifying radius")
        lo, hi = min_gap(s) / 4.0, diameter(s)
        if count_at(lo) < threshold:
            # finite sets max out at their cardinality; shrinking cannot help
            raise ValueError(
                f"covering count never reaches c + 1 = {threshold:g} "
                f"(only {int(card)} distinct values)"
            )

    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if count_at(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gamma_closed_form(eps0: float, p: ProblemParams) -> float:
    """Closed-form bound (1 + 1/c)^(d/n) * eps0 for the plain-threshold case.

    Valid when the first threshold is zero (the ratio equation collapses to
    a single power term) and the count c + 1 is achieved down to eps0.
    """
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    return (1.0 + 1.0 / p.c) ** (p.d / p.n) * eps0


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Outcome of a rigidity scan over a resolution grid.

    e_intervals: the evaluated resolutions that qualified; eta_curve: the
    solved ratio at each of them; gamma: best eps * eta product (zero
    exactly when nothing qualified); epsilon0 / gamma_closed_form: the
    count-(c+1) boundary and its closed-form bound when applicable.
    """

    e_intervals: tuple
    eta_curve: tuple
    gamma: float
    gamma_closed_form: float | None
    epsilon0: float | None
    params: ProblemParams
    profile: LambdaProfile

    def __post_init__(self):
        if any(eta <= 1.0 for _, eta in self.eta_curve):
            raise ValueError("every solved ratio must exceed 1")
        best = max((e * eta for e, eta in self.eta_curve), default=0.0)
        if not math.isclose(best, self.gamma, rel_tol=1e-12, abs_tol=0.0) and best != self.gamma:
            raise ValueError("gamma must equal the best eps*eta product")
        if (self.gamma == 0.0) != (len(self.e_intervals) == 0):
            raise ValueError("gamma is zero exactly when nothing qualified")

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "epsilon0": self.epsilon0,
            "gamma_closed_form": self.gamma_closed_form,
            "eta_curve": [[e, eta] for e, eta in self.eta_curve],
            "E_intervals": list(self.e_intervals),
            "params": {
                "n": self.params.n,
                "m": self.params.m,
                "d": self.params.d,
                "r": self.params.r,
                "c": self.params.c,
                "lambdas": list(self.profile.lambdas),
            },
        }

    def eta_curve_csv_text(self) -> str:
        lines = ["epsilon,eta,product"]
        lines += [f"{e!r},{eta!r},{e * eta!r}" for e, eta in self.eta_curve]
        return "\n".join(lines) + "\n"


def rigidity_bound(p: ProblemParams, profile: LambdaProfile,
                   s: SetDescriptor, eps_grid=None) -> BoundReport:
    """Best certified lower bound on the derivative scale over a grid.

    Scans the grid, keeps resolutions whose exact covering count beats the
    baseline, solves the ratio equation on each, and takes the best
    eps * eta product.  Every qualifying resolution certifies a bound on
    its own, so a coarse grid costs sharpness, never validity.  When the
    count-(c+1) boundary is computable the scan is augmented with a point
    just inside it, which recovers the closed-form value to solver
    precision.  Sets with only estimated covering curves (m >= 2 clouds)
    are refused.
    """
    if len(profile) != p.m:
        raise ValueError("profile length must equal m")
    if eps_grid is None:
        grid = default_grid(s)
    else:
        grid = np.asarray(eps_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("epsilon grid must be a non-empty 1-d array")
        if np.any(grid <= 0):
            raise ValueError("epsilon grid must be positive")

    if isinstance(s, PowerSequence):
        # the power counter is only defined below 1; above 1/2 the count is 1 anyway
        grid = grid[grid < 1.0]
        if grid.size == 0:
            raise ValueError("epsilon grid has no entries below 1 for a power sequence")

    eps0 = None
    if _cardinality(s) > p.c:
        try:
            eps0 = epsilon0(s, p)
        except ValueError:
            eps0 = None
    boundary = [] if eps0 is None else [eps0 * _BOUNDARY_SHRINK]
    scan = sorted_distinct(np.concatenate([grid, boundary]))[::-1]

    counts = covering_counts(s, scan)
    hit = counts > rhs_polynomial(p, profile, scan, 1.0)
    qualifying = scan[hit]
    etas = solve_eta(p, profile, counts[hit], qualifying)
    gamma = float(np.max(qualifying * etas, initial=0.0))
    curve = tuple(zip(qualifying.tolist(), etas.tolist()))

    closed = None
    if eps0 is not None and profile.lambdas[0] == 0.0:
        closed = gamma_closed_form(eps0, p)
    return BoundReport(tuple(qualifying.tolist()), curve, gamma, closed, eps0, p, profile)


@dataclass(frozen=True)
class PowerVerdict:
    """Classification of a power sequence under the rigidity bound."""

    exponent: float
    verdict: str

    @property
    def excluded(self) -> bool:
        return self.verdict == EXCLUDED


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
