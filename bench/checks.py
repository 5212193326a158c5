"""Output checks built without ``rigidity``: numpy and the stdlib only.

* ``reference_gamma`` re-derives the seed commit's certified bound for a
  univariate finite set: the same resolution grid and the same ε0
  boundary point, with covering counts from a sweep over all radii at
  once and the ratio equation solved in closed form (for n = m = 1 the
  forward polynomial is c * (eta**(1/d) + lambda_1 / eps) at r = 1).  It agrees
  with the seed commit to solver precision; ``reference.json`` keeps seed
  commit values that the harness tests compare it against.
* ``witness_scale`` rebuilds the staircase witness scale from the
  smoothstep's closed-form coefficients, so a certified gamma can be
  sandwiched against a map that realizes the set.
* The extraction checks recompute the expected near-critical values of
  the benchmark's maps from their formulas.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly

EPS_MIN = 1e-6
POINTS_PER_DECADE = 200
BISECT_REL_TOL = 1e-12
BISECT_MAX_ITER = 200
BOUNDARY_SHRINK = 1.0 - 1e-9
PLATEAU_RATIO = 0.5

# a certified gamma may sit below the seed commit's only by solver noise,
# and above a realizing map's scale only by rounding
GAMMA_REL_TOL = 1e-9
SANDWICH_SLACK = 1e-9

# the built-in ``poly10`` map of the CLI, in increasing powers
POLY10_COEFFS = (
    0.0, -0.019278, 0.093998, 0.038232, -0.168079, 0.031719,
    -0.201175, -0.032357, 0.166875, -0.066667, 0.2,
)


def log_grid(eps_min: float, eps_max: float) -> np.ndarray:
    decades = math.log10(eps_max / eps_min)
    count = max(2, int(round(decades * POINTS_PER_DECADE)) + 1)
    return np.geomspace(eps_max, eps_min, count)


def covering_counts(points: np.ndarray, eps) -> np.ndarray:
    """Greedy closed-ball covering counts of sorted ``points``, one per radius.

    All radii advance together: each step moves every unfinished sweep to
    the first point beyond its current anchor plus 2*eps.
    """
    eps = np.asarray(eps, dtype=float)
    n = points.size
    pos = np.zeros(eps.size, dtype=np.int64)
    count = np.zeros(eps.size, dtype=np.int64)
    live = np.arange(eps.size)
    while live.size:
        count[live] += 1
        pos[live] = np.searchsorted(points, points[pos[live]] + 2.0 * eps[live], side="right")
        live = live[pos[live] < n]
    return count


def _epsilon0(points: np.ndarray, c: float) -> float | None:
    """Bisected boundary of the count >= c + 1 region, as the seed commit finds it."""
    if not points.size > c:
        return None
    threshold = c + 1.0

    def count_at(e):
        return int(covering_counts(points, [e])[0])

    lo = float(np.min(np.diff(points))) / 4.0
    if count_at(lo) < threshold:
        return None
    hi = float(points[-1] - points[0])
    if hi <= lo:
        hi = 2.0 * lo
    while count_at(hi) >= threshold:
        hi *= 2.0
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if count_at(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_gamma(values, d: int, lam: float = 0.0) -> float:
    """Seed-commit certified gamma of a finite set of scalars (n = m = 1, r = 1)."""
    points = np.unique(np.asarray(values, dtype=float))
    c = float(d + 1)
    diam = float(points[-1] - points[0])
    evals = set(float(e) for e in log_grid(EPS_MIN, diam if diam > 10 * EPS_MIN else 1.0))
    eps0 = _epsilon0(points, c)
    if eps0 is not None:
        evals.add(eps0 * BOUNDARY_SHRINK)
    eps = np.array(sorted(evals, reverse=True))
    nu = covering_counts(points, eps)
    excess = nu / c - lam / eps
    qualify = nu > c * (1.0 + lam / eps)
    if not np.any(qualify):
        return 0.0
    return float(np.max(eps[qualify] * excess[qualify] ** d))


def smoothstep(order: int) -> np.ndarray:
    """Increasing-power coefficients of the degree 2*order+1 smoothstep."""
    coeffs = np.zeros(2 * order + 2)
    for j in range(order + 1):
        coeffs[order + 1 + j] = (-1) ** j * comb(order + j, j) * comb(2 * order + 1, order - j)
    return coeffs


def _abs_max_on_unit(coeffs: np.ndarray) -> float:
    cands = [0.0, 1.0]
    for root in npoly.polyroots(npoly.polyder(coeffs)):
        if abs(root.imag) < 1e-12 and 0.0 <= root.real <= 1.0:
            cands.append(root.real)
    return float(np.max(np.abs(npoly.polyval(np.asarray(cands), coeffs))))


def witness_scale(values, d: int) -> float:
    """d-th derivative scale of the staircase map realizing ``values`` on [-1, 1].

    The map is constant on one plateau per value and climbs between
    neighbours over transitions of width t by the order-d smoothstep.
    """
    vals = np.unique(np.asarray(values, dtype=float))
    k = vals.size
    if k < 2:
        return 0.0
    t = 2.0 / (k * PLATEAU_RATIO + (k - 1))
    step_max = _abs_max_on_unit(npoly.polyder(smoothstep(d), d))
    jump = float(np.max(np.diff(vals)))
    return jump / t**d * step_max / math.factorial(d)


def check_gamma(gamma, reference: float | None, scale: float | None) -> str | None:
    """Why a certified gamma is wrong, or None when it passes.

    It must not fall below the seed commit's value, and it must not exceed
    the scale of a map that realizes the set.
    """
    if not isinstance(gamma, (int, float)) or not math.isfinite(gamma) or gamma < 0:
        return f"gamma {gamma!r} is not a finite nonnegative number"
    if reference is not None and gamma < reference * (1.0 - GAMMA_REL_TOL):
        return f"gamma {gamma!r} fell below the reference {reference!r}"
    if scale is not None and gamma > scale * (1.0 + SANDWICH_SLACK):
        return f"gamma {gamma!r} exceeds the realizing witness scale {scale!r}"
    return None


def check_sandwich(row: dict, reference: float, scale: float) -> str | None:
    """Why a sandwich result row is wrong, or None when it passes."""
    if row.get("ok") is not True:
        return "sandwich check reported ok = false"
    reported = row.get("witness_scale")
    if not isinstance(reported, (int, float)) or not math.isclose(
            reported, scale, rel_tol=1e-9, abs_tol=0.0):
        return f"witness scale {reported!r} differs from the rebuilt {scale!r}"
    return check_gamma(row.get("gamma"), reference, scale)


def poly10_critical_values(divisions: int) -> np.ndarray:
    """Sorted values of ``poly10`` at the real roots of its derivative.

    Only roots strictly between the first and last interior grid nodes can
    be bracketed by a sampled derivative.
    """
    coeffs = np.asarray(POLY10_COEFFS)
    h = 1.0 / divisions
    roots = npoly.polyroots(npoly.polyder(coeffs))
    real = roots.real[(np.abs(roots.imag) < 1e-12)
                      & (roots.real > -1.0 + h) & (roots.real < 1.0 - h)]
    return np.sort(npoly.polyval(real, coeffs))


def grid_critical_values(axis: np.ndarray, values: np.ndarray, lam: float) -> np.ndarray:
    """Sorted distinct values at interior in-ball nodes with |grad| <= lam.

    ``values`` is a scalar field on the tensor grid ``axis``**n; the
    gradient uses the same central differences the sampled map would.
    """
    n = values.ndim
    grads = [np.gradient(values, axis, axis=b) for b in range(n)]
    inner = (slice(1, -1),) * n
    coords = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g[inner].ravel() for g in coords], axis=-1)
    jac = np.stack([g[inner].ravel() for g in grads], axis=-1)
    keep = (np.sum(pts**2, axis=1) <= axis[-1] ** 2) & (np.linalg.norm(jac, axis=1) <= lam)
    return np.unique(values[inner].ravel()[keep])


def stretch_cloud(divisions: int) -> np.ndarray:
    """Values (2x, y/2) of ``stretch2d`` at every interior unit-ball grid node."""
    axis = np.linspace(-1.0, 1.0, 2 * divisions + 1)[1:-1]
    x, y = np.meshgrid(axis, axis, indexing="ij")
    x, y = x.ravel(), y.ravel()
    keep = x**2 + y**2 <= 1.0
    return np.stack([2.0 * x[keep], 0.5 * y[keep]], axis=-1)


def same_cloud(got: np.ndarray, want: np.ndarray) -> bool:
    if got.shape != want.shape:
        return False
    g = got[np.lexsort(got.T[::-1])]
    w = want[np.lexsort(want.T[::-1])]
    return bool(np.allclose(g, w, rtol=0.0, atol=1e-12))
