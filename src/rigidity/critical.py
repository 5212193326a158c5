"""Near-critical value extraction from sampled maps, plus empirical checks.

This is the measurement side of the package: given a map sampled on a
regular grid over a ball, locate the points where the differential is
degenerate up to given thresholds, collect their values as a point cloud,
and compare the cloud's covering counts against the forward bound computed
from the map's own measured derivative scale.  Everything here is grid
arithmetic on top of numpy; the certified machinery lives in bounds.py.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .bounds import LambdaProfile, ProblemParams, rhs_polynomial
from .covering import covering_counts
from .sets import DescriptorError, FinitePoints, SampledCloud
from .util import (check_grid, finite_float, fit_loglog_slope, frozen_array, log_grid,
                   positive_int, sorted_distinct)

# grid resolution per unit radius, by dimension; n = 3 grids get coarse fast
DEFAULT_DIVISIONS = {1: 256, 2: 256, 3: 64}

MAX_DIM = 3
# largest grid a built-in map is sampled on; over ten times the default n = 3 grid (129^3)
MAX_GRID_NODES = 25_000_000
# largest grid CSV read, per node of MAX_GRID_NODES: a row of an n = 3, m = 1
# grid holds four numbers of up to 24 characters and their separators
GRID_CSV_BYTES_PER_NODE = 100
# a 2 x n differential whose sigma_max is below this share of the largest
# entry in its batch, or a gradient whose norm is below it, gets its own
# scale: its squares would lose bits
_RESCALE_BELOW = 2.0**-200
# cells dropped at each grid edge, where the difference stencil is one-sided
_EDGE = 1

__all__ = [
    "SampledMap",
    "Extraction",
    "CheckRow",
    "ForwardCheckReport",
    "near_critical_set",
    "semi_axis_field",
    "measured_derivative_scale",
    "empirical_forward_check",
]


@dataclass(frozen=True, eq=False)
class SampledMap:
    """Map from the radius-r ball in R^n to R^m, sampled on a regular grid.

    ``axis`` is the shared 1-d coordinate array (uniform, symmetric about
    zero, spanning [-radius, radius]); ``values`` has shape
    (len(axis),) * n + (m,).  The grid covers the bounding cube; routines
    that care about the ball mask it themselves.  ``func`` optionally
    retains the exact callable for off-grid refinement.
    """

    axis: np.ndarray
    values: np.ndarray
    radius: float
    func: Callable | None = None

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if axis.ndim != 1 or axis.size < 5:
            raise ValueError("axis must be a 1-d array with at least 5 points")
        steps = np.diff(axis)
        if np.any(steps <= 0):
            raise ValueError("axis must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("axis must be uniformly spaced")
        if abs(axis[0] + axis[-1]) > 1e-9 * max(abs(axis[-1]), 1.0):
            raise ValueError("axis must be symmetric about zero")
        radius = finite_float(self.radius)
        if radius is None or radius <= 0:
            raise ValueError("radius must be positive and finite")
        if abs(axis[-1] - radius) > 1e-9 * radius:
            raise ValueError("axis must span [-radius, radius]")
        n = values.ndim - 1
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"domain dimension must be in [1, {MAX_DIM}]")
        if values.shape[:n] != (axis.size,) * n:
            raise ValueError("values must be sampled on the full axis**n grid")
        m = values.shape[-1]
        if not 1 <= m <= n:
            raise ValueError("target dimension must satisfy 1 <= m <= n")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "radius", radius)

    @property
    def n(self) -> int:
        return self.values.ndim - 1

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    @property
    def grid_step(self) -> float:
        return float(self.axis[1] - self.axis[0])

    @cached_property
    def _unit_derivative(self) -> np.ndarray:
        """Central-difference derivative of an n = 1 map in u = x / radius, made once."""
        return frozen_array(_unit_gradient(self, self.values[:, 0]))

    @cached_property
    def _in_ball(self) -> np.ndarray:
        """Mask of the interior nodes in the ball, made in radius units against underflow."""
        sq = (self.axis[_EDGE:-_EDGE] / self.radius) ** 2
        return frozen_array(reduce(np.add.outer, [sq] * self.n) <= 1.0, bool)

    @classmethod
    def from_callable(cls, func: Callable, n: int, m: int, radius: float = 1.0,
                      divisions: int | None = None) -> "SampledMap":
        """Sample ``func`` on a regular grid.

        ``func`` must accept an array of shape (k, n) and return (k, m)
        (a flat (k,) return is accepted when m = 1).
        """
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"domain dimension must be in [1, {MAX_DIM}]")
        radius = finite_float(radius)
        if radius is None or radius <= 0:
            raise ValueError("radius must be positive and finite")
        divisions = positive_int(DEFAULT_DIVISIONS[n] if divisions is None else divisions,
                                 "divisions", least=0)
        if divisions < 2:
            raise ValueError("need at least 2 divisions per radius")
        npts = 2 * divisions + 1
        if npts**n > MAX_GRID_NODES:
            raise ValueError(f"{npts}^{n} grid nodes exceed the budget of {MAX_GRID_NODES}")
        # past half the float range 2r overflows: space at half scale, double exactly
        shrink = 2.0 if 2.0 * radius == math.inf else 1.0
        axis = shrink * np.linspace(-radius / shrink, radius / shrink, npts)
        if not np.all(np.diff(axis) > 0):
            raise ValueError(f"radius {radius:g} is too small to space {npts} grid nodes")
        grids = np.meshgrid(*([axis] * n), indexing="ij", copy=False)  # views, stacked once
        pts = np.stack(grids, axis=-1).reshape(-1, n)
        # a value that overflows is refused below as not finite
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(func(pts), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (pts.shape[0], m):
            raise ValueError(
                f"map returned shape {out.shape}, expected {(pts.shape[0], m)}"
            )
        values = out.reshape((npts,) * n + (m,))
        return cls(axis, values, float(radius), func)

    @classmethod
    def from_grid_csv(cls, path) -> "SampledMap":
        """Load a grid sample from CSV with header x1,..,xn,f1,..,fm.

        Rows must enumerate the full cartesian grid in row-major order of
        the coordinate axes (last coordinate fastest).
        """
        size = os.stat(path).st_size
        if size > GRID_CSV_BYTES_PER_NODE * MAX_GRID_NODES:
            raise ValueError(
                f"grid file has {size} bytes, over the budget of "
                f"{GRID_CSV_BYTES_PER_NODE * MAX_GRID_NODES} ({MAX_GRID_NODES} nodes)"
            )
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().strip()
            cols = [c.strip() for c in header.split(",")]
            n = sum(1 for c in cols if c.startswith("x"))
            m = sum(1 for c in cols if c.startswith("f"))
            if n == 0 or m == 0 or n + m != len(cols):
                raise ValueError(f"malformed grid header: {header!r}")
            # numpy reads faster from a path it opens than from a Python file object
            data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1, encoding="utf-8")
            if data.shape[1] != n + m:
                raise ValueError("grid rows do not match the header")
            axis = sorted_distinct(data[:, n - 1])
            npts = axis.size
            if data.shape[0] != npts**n:
                raise ValueError("grid rows do not form a full cartesian product")
            # each coordinate column against the axis broadcast along its dimension
            for j, along in enumerate(np.meshgrid(*([axis] * n), indexing="ij", sparse=True)):
                if not np.allclose(data[:, j].reshape((npts,) * n), along, rtol=0.0, atol=1e-12):
                    raise ValueError("grid coordinates are not in row-major axis order")
            values = data[:, n:].reshape((npts,) * n + (m,))
            return cls(axis, values, float(axis[-1]))
        except ValueError as exc:
            # a grid file that does not parse is malformed input, not a bad
            # parameter choice
            raise DescriptorError(str(exc)) from exc


def _unit_gradient(sm: SampledMap, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Central-difference gradient of ``values`` along the unit coordinate
    u = x / radius, whose step products do not underflow at tiny radii.
    The stencil multiplies samples by about divisions / 2, so samples past
    2**512 are divided by 2**e above the largest and the result multiplied
    back, both exactly."""
    peak = float(max(values.max(), -values.min()))
    e = math.frexp(peak)[1] if 2.0**512 < peak < math.inf else 0
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan fail every threshold
        grad = np.gradient(np.ldexp(values, -e) if e else values, sm.axis / sm.radius, axis=axis)
        return np.ldexp(grad, e) if e else grad


def _two_row_singular_values(jac: np.ndarray) -> np.ndarray:
    """Ascending singular values of a stack of 2 x n matrices, shape (k, 2).

    Closed form: with rows a, b, p = |a|^2, q = |b|^2, r = a.b and g the
    sum of the squared 2 x 2 minors (det(J J^T) by Cauchy-Binet),
    sigma_max = sqrt((p + q)/2 + hypot((p - q)/2, r)) and
    sigma_min = sqrt(g) / sigma_max.  Every matrix is divided by one scale,
    the largest finite entry of the stack, so no square overflows; the few
    whose sigma_max falls below ``_RESCALE_BELOW`` of it (where squares
    would underflow) are redone with their own largest entry.
    """
    mag = np.abs(jac)
    # an overflowed difference leaves nan in its own row, not in every row
    scale = mag.max(initial=0.0, where=np.isfinite(mag)) or 1.0
    out = _scaled_two_row(jac / scale)
    low = np.flatnonzero(out[:, 1] < _RESCALE_BELOW)
    out *= scale
    if low.size:
        sub = jac[low]
        own = np.max(np.abs(sub), axis=(1, 2), keepdims=True)
        own[own == 0.0] = 1.0
        out[low] = _scaled_two_row(sub / own) * own[:, 0]
    return out


def _scaled_two_row(jac: np.ndarray) -> np.ndarray:
    """The closed form of ``_two_row_singular_values`` on entries in [-1, 1]."""
    a, b = jac[:, 0, :], jac[:, 1, :]
    p = np.einsum("ij,ij->i", a, a)
    q = np.einsum("ij,ij->i", b, b)
    r = np.einsum("ij,ij->i", a, b)
    g = 0.0
    for i, j in itertools.combinations(range(jac.shape[2]), 2):
        g = g + (a[:, i] * b[:, j] - a[:, j] * b[:, i]) ** 2
    out = np.zeros((jac.shape[0], 2))
    top = out[:, 1]
    np.sqrt((p + q) * 0.5 + np.hypot((p - q) * 0.5, r), out=top)
    np.divide(np.sqrt(g), top, out=out[:, 0], where=top > 0.0)
    # rounding can put sqrt(g) / sigma_max a hair above sigma_max
    np.minimum(out[:, 0], top, out=out[:, 0])
    return out


def _gradient_norms(grad: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (k, n) stack of gradients.

    ``np.linalg.norm`` squares the entries, which underflow below about
    1e-154 and overflow above about 1e154; the rows whose norm falls below
    ``_RESCALE_BELOW`` or is not finite are redone divided by their own
    largest entry, and every other row keeps its bits.
    """
    with np.errstate(over="ignore"):  # an overflowed square leaves an inf norm, redone
        out = np.linalg.norm(grad, axis=1)
        redo = np.flatnonzero((out < _RESCALE_BELOW) | ~np.isfinite(out))
        if redo.size:
            sub = grad[redo]
            own = np.max(np.abs(sub), axis=1, keepdims=True)
            # a row holding inf or nan keeps the norm it has
            own[(own == 0.0) | ~np.isfinite(own)] = 1.0
            out[redo] = np.linalg.norm(sub / own, axis=1) * own[:, 0]
    return out


def semi_axis_field(sm: SampledMap) -> tuple:
    """Singular values of the differential at interior grid points in the ball.

    Returns (points, sigmas): points of shape (k, n) and the ascending
    singular values of shape (k, m).  The one-cell boundary layer is
    dropped because the difference stencil is one-sided there, and points
    outside the ball are masked away.  For m = 1 the value is the gradient
    norm and for m = 2 the closed form of ``_two_row_singular_values``;
    only m = 3 runs ``np.linalg.svd``.
    """
    # only the coordinates and Jacobians of the interior nodes in the ball are made
    pts = np.stack([sm.axis[i + _EDGE] for i in np.nonzero(sm._in_ball)], axis=-1)
    jac = np.empty((pts.shape[0], sm.m, sm.n))
    for a, b in itertools.product(range(sm.m), range(sm.n)):
        grad = sm._unit_derivative if sm.n == 1 else _unit_gradient(sm, sm.values[..., a], b)
        jac[:, a, b] = grad[(slice(_EDGE, -_EDGE),) * sm.n][sm._in_ball]
    jac /= sm.radius
    if sm.m == 1:
        sig = _gradient_norms(jac[:, 0, :])[:, None]
    elif sm.m == 2:
        sig = _two_row_singular_values(jac)
    else:
        sig = np.linalg.svd(jac, compute_uv=False)[:, ::-1]
    return pts, sig


@dataclass(frozen=True, eq=False)
class Extraction:
    """Result of a near-critical sweep over a sampled map.

    ``points``/``values`` are aligned rows; ``descriptor`` is the value set
    ready for covering analysis (sorted FinitePoints for scalar targets, a
    SampledCloud otherwise), or None when nothing qualified.
    """

    points: np.ndarray
    values: np.ndarray
    descriptor: FinitePoints | SampledCloud | None

    @property
    def count(self) -> int:
        return self.points.shape[0]


def near_critical_set(sm: SampledMap, profile: LambdaProfile) -> Extraction:
    """Grid points whose differential is degenerate up to the thresholds.

    A point qualifies when every ascending singular value sits at or below
    the corresponding threshold.  Thresholds are compared exactly; for the
    common exact-critical query (first threshold zero) on a univariate
    scalar map, sampled derivatives almost never hit zero on the nose, so
    that case additionally brackets sign changes of the sampled derivative
    and refines each bracket to an interpolated root.  The refined value
    uses the exact callable when the map carries one (the value error is
    then fourth order in the grid step, since the derivative vanishes at
    the root) and a three-point parabola through the neighbouring samples
    otherwise.
    """
    if len(profile) != sm.m:
        raise ValueError("profile length must equal the map's target dimension")
    pts, sig = semi_axis_field(sm)
    # column by column: a reduction over the short last axis is slow
    sel = np.logical_and.reduce([sig[:, j] <= lam for j, lam in enumerate(profile.lambdas)])
    # the values at the nodes semi_axis_field kept, in its order
    inner = sm.values[(slice(_EDGE, -_EDGE),) * sm.n][sm._in_ball]
    points, values = [np.compress(sel, pts, axis=0)], [np.compress(sel, inner, axis=0)]

    if profile.lambdas[0] == 0.0 and sm.n == 1 and sm.m == 1:
        bp, bv = _bracketed_derivative_roots(sm)
        points.append(bp[:, None])
        values.append(bv[:, None])

    pts_all = np.concatenate(points, axis=0)
    vals_all = np.concatenate(values, axis=0)
    if pts_all.shape[0] == 0:
        return Extraction(pts_all, vals_all, None)
    if sm.m == 1:
        # scalar value sets go straight into the exact-covering pipeline
        descriptor = FinitePoints(np.sort(vals_all[:, 0]))
    else:
        descriptor = SampledCloud(vals_all.copy())
    return Extraction(pts_all, vals_all, descriptor)


def _bracketed_derivative_roots(sm: SampledMap) -> tuple:
    """Sign-change roots of the sampled derivative of a univariate scalar map.

    Returns (locations, values).  Locations come from linear interpolation
    of the central-difference derivative between interior grid nodes;
    values come from the exact callable when available, otherwise from the
    parabola through the three nearest samples.
    """
    deriv = sm._unit_derivative / sm.radius
    # central-difference interior
    locs = _sign_change_roots(sm.axis[1:-1], deriv[1:-1])
    if not locs.size:
        return locs, np.empty(0)
    if sm.func is not None:
        vals = np.asarray(sm.func(locs[:, None]), dtype=float).reshape(-1)
    else:
        vals = _parabola_values(sm, locs)
    return locs, vals


def _sign_change_roots(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Linearly interpolated roots of ``g`` between neighbours of opposite sign.

    Nodes where the sampled derivative is exactly zero are already caught by
    the threshold selection; only strict sign changes hide a root between
    nodes.
    """
    # signs, since the product of two tiny derivatives underflows to zero;
    # an overflowed difference keeps its sign
    with np.errstate(over="ignore"):
        i = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)
        a = g[i]
        return x[i] - a * (x[i + 1] - x[i]) / (g[i + 1] - a)


def _parabola_values(sm: SampledMap, locs: np.ndarray) -> np.ndarray:
    """The parabola through the samples at nodes i - 1, i, i + 1, at each loc.

    Node i is the one nearest loc (the lower on a tie), kept off the ends.
    The offset s of loc from it is in grid steps, so no coordinate is squared.
    """
    axis, y = sm.axis, sm.values[:, 0]
    hi = np.clip(np.searchsorted(axis, locs), 1, axis.size - 1)
    i = np.clip(hi - (locs - axis[hi - 1] <= axis[hi] - locs), 1, axis.size - 2)
    s = (locs - axis[i]) / sm.grid_step
    left, mid, right = y[i - 1], y[i], y[i + 1]
    return mid + s * ((0.5 * right - 0.5 * left) + s * (0.5 * right + 0.5 * left - mid))


def measured_derivative_scale(sm: SampledMap, order: int) -> float:
    """Empirical derivative scale via repeated central differencing (n = 1).

    Each differencing pass degrades one cell of boundary accuracy, so
    order + 1 cells are trimmed per side before taking the maximum.  This
    is a measurement, not a certificate: differencing noise grows with
    order and the true scale can exceed it between samples.
    """
    if sm.n != 1:
        raise ValueError("measured derivative scale is implemented for n = 1 only")
    order = positive_int(order, "order")
    # differenced against u = x / radius, the order-th derivative already
    # carries the factor radius**order of the scale
    g = sm._unit_derivative
    for _ in range(order - 1):
        g = _unit_gradient(sm, g)
    trim = order + 1
    if g.size <= 2 * trim:
        raise ValueError("grid too coarse for this differentiation order")
    peak = float(np.max(np.abs(g[trim:-trim])))
    if math.isnan(peak):  # inf - inf in an overflowed difference
        raise ValueError(f"the order-{order} differences of the samples are not a number")
    return peak / math.factorial(order)


@dataclass(frozen=True)
class CheckRow:
    """One resolution of the empirical forward check."""

    epsilon: float
    measured: int
    bound: float
    regime: str
    passed: bool


@dataclass(frozen=True, eq=False)
class ForwardCheckReport:
    """Covering counts of extracted values vs the forward bound.

    ``slope`` is the fitted log-log slope of the measured counts over the
    unsaturated rows (None when fewer than two such rows exist);
    ``slope_reference`` is the forward bound's own scaling exponent -n/d.
    ``flag`` carries a human-readable message when any row violates the
    bound — a violation means a bug or a too-coarse sample, and it is
    surfaced rather than swallowed.
    """

    rows: tuple
    derivative_scale: float
    slope: float | None
    slope_reference: float
    all_passed: bool
    flag: str | None

    def to_csv_text(self) -> str:
        lines = ["epsilon,measured_M,bound,regime,pass"]
        for row in self.rows:
            lines.append(
                f"{row.epsilon!r},{row.measured},{row.bound!r},"
                f"{row.regime},{str(row.passed).lower()}"
            )
        return "\n".join(lines) + "\n"


def empirical_forward_check(sm: SampledMap, p: ProblemParams, profile: LambdaProfile,
                            eps_grid=None,
                            extraction: Extraction | None = None) -> ForwardCheckReport:
    """Check extracted near-critical values against the forward bound.

    Uses the map's own measured derivative scale, so this is a
    self-consistency check on real data rather than a certificate; a
    clean run says the forward inequality holds at every grid resolution
    with room to spare.  Univariate scalar maps only (the measured scale
    needs n = 1).
    """
    if sm.n != 1 or sm.m != 1:
        raise ValueError("the empirical check is implemented for n = m = 1")
    if p.n != sm.n or p.m != sm.m:
        raise ValueError("params dimensions must match the sampled map")
    scale = measured_derivative_scale(sm, p.d)
    if extraction is None:
        extraction = near_critical_set(sm, profile)
    eps_grid = log_grid(1e-4, 1e-2, 50) if eps_grid is None else check_grid(eps_grid)

    if extraction.descriptor is None:
        return ForwardCheckReport(
            (), scale, None, -p.n / p.d, True,
            "no near-critical values extracted; the check is vacuous",
        )

    grid = sorted((float(e) for e in eps_grid), reverse=True)
    rows = []
    for eps, measured in zip(grid, covering_counts(extraction.descriptor, grid).tolist()):
        # above the scale the ratio is 1: the baseline polynomial
        bound = rhs_polynomial(p, profile, eps, max(scale / eps, 1.0))
        regime = "baseline" if eps >= scale else "scaled"
        rows.append(CheckRow(eps, measured, bound, regime, measured <= bound))

    unsat = [(r.epsilon, r.measured) for r in rows if r.measured > 1]
    slope = None
    if len(unsat) >= 2:
        xs = np.array([e for e, _ in unsat])
        ys = np.array([c for _, c in unsat])
        if xs.min() < xs.max():
            slope = fit_loglog_slope(xs, ys)

    failures = [r for r in rows if not r.passed]
    flag = None
    if failures:
        worst = max(failures, key=lambda r: r.measured / r.bound)
        flag = (
            f"forward bound violated at {len(failures)} resolution(s); worst at "
            f"epsilon={worst.epsilon:.6g}: measured {worst.measured} > bound {worst.bound:.6g}"
        )
    return ForwardCheckReport(
        tuple(rows), scale, slope, -p.n / p.d, not failures, flag
    )
