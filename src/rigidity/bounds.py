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
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .covering import covering_counts, default_grid, exact_counter, plateau_ends
from .sets import FinitePoints, PowerSequence, SetDescriptor, diameter
from .util import check_grid, finite_float, frozen_array, positive_int, sorted_distinct

# boundary refinements are placed just inside the qualifying region
_BOUNDARY_SHRINK = 1.0 - 1e-9
# a finite set of at most this many points and no grid scans its k(k-1)/2
# plateau ends; above it the default grid is cheaper
_PLATEAU_SCAN_MAX = 24
_CURVE_FLOOR = frozen_array([0.0, 1.0])  # a curve row: a resolution > 0, a ratio > 1

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
    for n >= 2 no default is sound, so the caller supplies one, at least
    max(2, (d - 2)**n): at lambda_1 = 0 and eta = 1 the bound is c, yet two
    values D apart count 2 up to D/2, where a map realizes them at eta = 1
    (d <= 3), and sum_i p(z_i), deg p = d - 1, has (d - 2)**n critical values
    at scale 0.  Padded with zeros, both keep their critical sets at any m.
    """

    n: int
    m: int
    d: int
    r: float = 1.0
    c: float | None = None

    def __post_init__(self):
        for name in ("n", "m", "d"):  # as Python ints: numpy integers do not serialize to JSON
            object.__setattr__(self, name, positive_int(getattr(self, name), name))
        if self.m > self.n:
            raise ValueError("m must be an integer with 1 <= m <= n")
        r = finite_float(self.r)
        if r is None or r <= 0:
            raise ValueError("r must be a positive finite number")
        object.__setattr__(self, "r", r)
        if self.c is None and self.n != 1:
            raise ValueError("the entropy constant c must be given explicitly for n >= 2")
        c = float(self.d + 1) if self.c is None else finite_float(self.c)
        if c is None:
            raise ValueError("c must be a finite number")
        if self.n == 1 and c < self.d + 1:
            raise ValueError("for n = 1 the entropy constant c must be at least d + 1")
        k, n = self.d - 2, self.n
        # (d - 2)**n past the float range is above every c: it is never built
        if n >= 2 and c < (2 if k < 2 else math.inf if n * math.log2(k) > 1100 else k**n):
            raise ValueError(
                "for n >= 2 the entropy constant c must be at least max(2, (d - 2)**n) = "
                + ("2, the count of two critical values" if k < 2 else
                   f"{k}**{n}, the count of the critical values of sum_i p(z_i), "
                   "deg p = d - 1, whose d-th derivative is 0"))
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class LambdaProfile:
    """Nondecreasing near-criticality thresholds (lambda_1 .. lambda_m).

    The implicit zeroth entry is always 1 and is never stored.
    """

    lambdas: tuple

    def __post_init__(self):
        lams = tuple(map(finite_float, self.lambdas))
        if len(lams) == 0:
            raise ValueError("profile needs at least one threshold")
        if any(v is None or v < 0 for v in lams):
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
    """a_i = (threshold product)_i * (r/eps)^i for i = 0..m, up to the first zero
    product, a_0 as the float 1.0; in the caller's error scope a power may
    overflow to +inf, the right value: that radius never qualifies."""
    if len(profile) != p.m:
        raise ValueError("profile length must equal m")
    if np.count_nonzero(epsilon > 0) < epsilon.size:
        raise ValueError("epsilon must be positive")
    return _terms(profile.lambdas, p.r / epsilon, np.float_power)


def _terms(lambdas: tuple, ratio, power) -> list:
    """The a_i at ratio = r/eps, by ``power``: ``np.float_power`` over arrays,
    ``_pow`` on one Python float, both libm's pow, so the two agree."""
    coeffs, prod = [1.0], 1.0
    for i, lam in enumerate(lambdas, 1):
        prod *= lam
        if prod == 0.0:
            break
        coeffs.append(prod * power(ratio, i))
    return coeffs


def _pow(x: float, y: float) -> float:
    """libm's x**y on Python floats, +inf past the float range, as numpy gives."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def rhs_polynomial(p: ProblemParams, profile: LambdaProfile, epsilon, eta):
    """Forward-bound polynomial at ratio eta = (derivative scale) / epsilon.

    Sum over i = 0..m of the cumulative threshold products times
    (r/eps)^i * eta^((n-i)/d), scaled by c.  Every coefficient is
    nonnegative and the i = 0 exponent n/d is positive, so the value is
    strictly increasing in eta.  epsilon and eta broadcast; scalars in give
    a scalar out.
    """
    epsilon, eta = np.asarray(epsilon, dtype=float), np.asarray(eta, dtype=float)
    with np.errstate(over="ignore"):  # +inf, as in _coefficients
        coeffs = _coefficients(p, profile, epsilon)
        if not (eta >= 1.0).all():
            raise ValueError("eta must be at least 1")
        terms = (a * np.float_power(eta, (p.n - i) / p.d) for i, a in enumerate(coeffs))
        return _scalar_or_array(p.c * sum(terms, np.zeros_like(epsilon)))  # epsilon's shape


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

    Counts and radii broadcast; every count must beat its eta = 1 baseline,
    ``rhs_polynomial(..., 1.0)``.  In t = eta^(1/d) the equation is
    c * f(t) = nu with the polynomial f(t) = sum_i a_i t^(n-i) and every
    a_i >= 0, so f is increasing and convex for t > 0.  Each entry is solved
    alone on Python floats, as a scalar call solves it.  At n = 1 the root
    t* = nu/c - a_1 comes in closed form, each rounding stepped toward a
    smaller t, t = pred(nu/c) or pred(pred(nu/c) - succ(lambda_1 * succ(r/eps))),
    so t <= t*; above, ``_newton_root`` finds it.  Then eta = t at d = 1,
    pred(t^d) past it, or 1 + ulp where t <= 1: the root lies above 1.
    """
    nu, epsilon = np.asarray(nu), np.asarray(epsilon, dtype=float)
    if nu.shape != epsilon.shape:
        nu, epsilon = np.broadcast_arrays(nu, epsilon)
    if len(profile) != p.m:
        raise ValueError("profile length must equal m")
    counts, radii = nu.astype(float, copy=False).ravel().tolist(), epsilon.ravel().tolist()
    if not all(e > 0.0 for e in radii):
        raise ValueError("epsilon must be positive")
    lam, c, n, d, down, up = profile.lambdas[0], p.c, p.n, p.d, -math.inf, math.inf
    etas = []
    for k, (x, e) in enumerate(zip(counts, radii)):
        if n == 1:  # no list: a_1 = lambda_1 * (r/eps)**1 is lambda_1 * (r/eps)
            baseline = c if lam == 0.0 else c * (1.0 + lam * (p.r / e))
        else:
            coeffs, baseline = _terms(profile.lambdas, p.r / e, _pow), 0.0
            for a in coeffs:  # left to right, as rhs_polynomial; sum() compensates from 3.12
                baseline += a
            baseline *= c
        if not x > baseline:
            raise ValueError(f"count {np.ravel(nu)[k]} does not exceed the baseline "
                             f"{baseline:.6g}; no ratio above 1")
        t = (math.nextafter(x / c if lam == 0.0 else math.nextafter(x / c, down)
                            - math.nextafter(lam * math.nextafter(p.r / e, up), up), down)
             if n == 1 else _newton_root(c, coeffs, n, x))
        try:
            etas.append(math.nextafter(1.0, up) if t <= 1.0 else t if d == 1
                        else math.nextafter(t**d, down))
        except OverflowError:
            etas.append(math.inf)
    if math.inf in counts:  # an infinite count has no finite root
        raise ValueError(f"count / c overflows the float range at c = {c:g}")
    if math.inf in etas:  # an infinite eta would make gamma infinite
        raise ValueError(f"eta overflows the float range at c = {c:g}")
    return _scalar_or_array(np.array(etas).reshape(nu.shape)[()])


def _newton_root(c: float, coeffs: list, n: int, nu: float) -> float:
    """Root of c * f(t) = nu, f(t) = sum_{i <= n} coeffs[i] t^(n-i) (0 past the
    list), by Newton on Python floats.  At the root every term a_i t^(n-i) is
    at most nu/c, so each bounds t from above, and Newton starts at the least
    bound.  It falls from there to the root (above 1, as c * f(1) < nu) and
    stops at its first step that does not lower t.  Each term of f stays at
    most nu/c and f' >= n: no sum or product tops (n+1)**2 * nu, and none
    divides by 0.  Where that could overflow, both sides are scaled by a power
    of two, which moves no rounding."""
    t = min((nu / (c * a)) ** (1.0 / (n - i)) for i, a in enumerate(coeffs[:n]) if a > 0.0)
    coeffs = coeffs + [0.0] * (n + 1 - len(coeffs))
    spare = (n + 1) ** 2
    if nu > sys.float_info.max / spare:
        scale = 2.0**-spare.bit_length()
        coeffs, nu = [a * scale for a in coeffs], nu * scale
    while True:
        f, df = coeffs[0], 0.0  # Horner for f and f'
        for a in coeffs[1:]:
            f, df = f * t + a, df * t + f
        t_next = t - (c * f - nu) / (c * df)
        if not t_next < t:
            return t
        t = t_next


def epsilon0(s: SetDescriptor, p: ProblemParams) -> float:
    """pred(E), the float just below E, the least float radius whose
    covering count is below c + 1: the last float of the count-(c+1) plateau.

    Greedy counts never rise with the radius, in floats too, so E is
    unique and a bisection by counting that keeps the count at lo and
    below it at hi ends, at adjacent floats, with lo = pred(E).  A finite
    set brackets E by [ulp(0), diameter]: the least positive float counts
    the most.  A power sequence of terms x_m = m**alpha brackets it by
    [(x_{J-1} - x_J)/4, x_{J-1}] with J = ceil(c + 1): gaps shrink down the
    sequence, so the first J terms each open a ball at the low end, and at
    the high end the (J-1)-th anchor's ball reaches 0.  It first tries the low
    end x_J/(2(c+1)), where the dense tail under x_J needs about c + 1 balls.
    Raises ValueError when the low end counts below c + 1 (for a power
    sequence, also when it underflows to 0).
    """
    count_at = exact_counter(s)
    threshold = p.c + 1.0
    if isinstance(s, PowerSequence):
        j = math.ceil(threshold)  # at least 3: c >= d + 1 >= 2 at n = 1, c >= 2 above
        hi, x_j = float(j - 1) ** s.alpha, float(j) ** s.alpha  # libm's pow, as the counter's
        lo, tail = (hi - x_j) / 4.0, x_j / (2.0 * threshold)
        lows = (tail, lo) if tail > lo > 0.0 else (lo,)
    else:
        lows, hi = (math.ulp(0.0),), diameter(s)  # one ball covers the set at its diameter
    if not any((lo := low) > 0.0 and covering_counts(s, [low])[0] >= threshold
               for low in lows):
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
    # the floor keeps (1 + 1/c)^(d/n) at most e: c >= d + 1 at n = 1; at n >= 2,
    # c >= 2 while d <= 3, and c >= (d - 2)**n >= d/n from d = 4 on
    return (1.0 + 1.0 / p.c) ** (p.d / p.n) * eps0


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
        if np.count_nonzero(curve > _CURVE_FLOOR) < curve.size:  # one pass, NaN refused
            raise ValueError("every resolution must be positive and finite"
                             if np.count_nonzero(curve[:, 0] > 0.0) < len(curve)
                             else "every solved ratio must exceed 1")
        curve = frozen_array(curve)
        # on Python floats, as numpy rounds; an infinite product is refused below
        gamma = max([eps * eta for eps, eta in curve.tolist()], default=0.0)
        if not math.isfinite(gamma):
            raise ValueError("gamma = eps * eta overflows the float range")
        vars(self).update(eta_curve=curve, e_intervals=curve[:, 0], gamma=gamma)

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
    if eps_grid is None and isinstance(s, FinitePoints) and s.values.size <= _PLATEAU_SCAN_MAX:
        scan = plateau_ends(s)
        counts = covering_counts(s, scan)
        # the largest end counting c + 1 (ends run largest first): epsilon0, or None
        eps0 = next((e for e, nu in zip(scan.tolist(), counts.tolist()) if nu >= p.c + 1.0), None)
    else:
        grid = default_grid(s) if eps_grid is None else check_grid(eps_grid)
        try:
            eps0 = epsilon0(s, p)
        except ValueError:
            eps0 = None
        boundary = [] if eps0 is None else [eps0 * _BOUNDARY_SHRINK]
        scan = sorted_distinct(np.concatenate([grid, boundary]))[::-1]
        counts = covering_counts(s, scan)
    if profile.lambdas[0] == 0.0:  # the baseline is c * a_0 = c
        hit = counts > p.c
    else:
        with np.errstate(over="ignore"):  # rhs_polynomial at eta = 1, each term a * 1.0
            hit = counts > p.c * sum(_coefficients(p, profile, scan))
    curve = np.empty((np.count_nonzero(hit), 2))
    curve[:, 0] = scan[hit]
    curve[:, 1] = solve_eta(p, profile, counts[hit], curve[:, 0])

    closed = None if eps0 is None or profile.lambdas[0] != 0.0 else gamma_closed_form(eps0, p)
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
    n, d, alpha = positive_int(n, "n"), positive_int(d, "d"), finite_float(alpha)
    if alpha is None or alpha >= 0:
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
    bound = finite_float(zero_set_bound)
    if bound is None or bound < 0:
        raise ValueError("the zero-set bound must be a nonnegative finite number")
    return bound / math.sqrt(positive_int(n, "n"))
