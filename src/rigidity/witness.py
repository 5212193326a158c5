"""Explicit smooth staircase functions realizing a finite set of critical values.

A witness is a univariate piecewise-polynomial function on [-r, r] that is
constant on one plateau per requested value and climbs between plateaus
through a polynomial step whose first ``order`` derivatives vanish at both
ends.  Every plateau point is critical, so the requested values are
exactly the critical values, and the witness's measured derivative scale
is an upper bound that any covering-based lower bound for the same value
set must respect.  Comparing the two is the falsification harness for the
bound machinery: the certified lower bound may never exceed the scale of
a function that visibly realizes the set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

from .bounds import BoundReport, LambdaProfile, ProblemParams, rigidity_bound
from .sets import FinitePoints, SetDescriptor
from .util import finite_float, positive_int

# every plateau is this fraction of a transition's width
_PLATEAU_RATIO = 0.5
# relative rounding allowance when the bound is compared with the witness scale
_SLACK = 1e-9

__all__ = [
    "smoothstep_coefficients",
    "WitnessFunction",
    "build_witness",
    "witness_derivative_scale",
    "SandwichResult",
    "sandwich_check",
]


def smoothstep_coefficients(order: int) -> np.ndarray:
    """Coefficients (increasing powers) of the degree 2*order+1 unit step.

    The step s maps [0, 1] onto [0, 1] with s(0) = 0, s(1) = 1 and
    vanishing derivatives 1..order at both endpoints: it is the
    regularized incomplete beta function I_u(order+1, order+1).  Its
    coefficients are the integers c_{N+1+k} = (-1)**k C(N+k, k)
    C(2N+1, N-k) for k = 0..N (N = order), each rounded once to float.
    """
    order = positive_int(order, "order")
    coeffs = np.zeros(2 * order + 2)
    coeffs[order + 1:] = [
        (-1) ** k * math.comb(order + k, k) * math.comb(2 * order + 1, order - k)
        for k in range(order + 1)
    ]
    return coeffs


@dataclass(frozen=True, eq=False)
class WitnessFunction:
    """Piecewise staircase with analytic derivatives of every order.

    ``edges`` holds 2k nondecreasing floats from -radius to radius and
    ``values`` the k plateau values: plateau i is [edges[2i], edges[2i+1]],
    and transition i climbs from values[i] to values[i+1] over
    [edges[2i+1], edges[2i+2]].
    """

    edges: tuple
    values: tuple
    order: int
    radius: float

    def __post_init__(self):
        edges, values = tuple(map(float, self.edges)), tuple(map(float, self.values))
        if not values or len(edges) != 2 * len(values):
            raise ValueError("a witness needs k >= 1 values and 2k edges")
        if edges[0] != -self.radius or edges[-1] != self.radius:
            raise ValueError("edges must tile the full domain")
        if not all(map(float.__le__, edges, edges[1:])):  # NaN is not <= either
            raise ValueError("edges must be nondecreasing")
        # a Python int: a numpy integer order would wrap in the step maximum's factorials
        vars(self).update(edges=edges, values=values, order=positive_int(self.order, "order"))

    def evaluate(self, x, deriv: int = 0) -> np.ndarray:
        """Value of the deriv-th derivative at x (scalar or array)."""
        deriv = positive_int(deriv, "deriv", least=0)
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        tol = 1e-12 * max(self.radius, 1.0)
        if np.any(arr < -self.radius - tol) or np.any(arr > self.radius + tol):
            raise ValueError("evaluation point outside the witness domain")
        e, v = self.edges, self.values
        # piece 2i is plateau i, piece 2i + 1 transition i
        i, odd = np.divmod(np.searchsorted(np.array(e[1:-1]), arr, side="right"), 2)
        out = np.array(v)[i] if deriv == 0 else np.zeros_like(arr)
        step = odd == 1
        if step.any():
            widths = [hi - lo for lo, hi in zip(e[1:-1:2], e[2::2])]
            # numpy's array power is not libm's, so each factor is a scalar power;
            # past float range it is inf or 0, and the samples show it
            with np.errstate(over="ignore", divide="ignore"):
                factors = [(b - a) / np.float64(w)**deriv for a, b, w in zip(v, v[1:], widths)]
            it = i[step]
            u = (arr[step] - np.array(e[1:-1:2])[it]) / np.array(widths)[it]
            rise = np.array(factors)[it] * npoly.polyval(
                u, npoly.polyder(smoothstep_coefficients(self.order), m=deriv))
            out[step] = rise + out[step] if deriv == 0 else rise
        return out[0] if scalar else out

    def sample_csv_text(self) -> str:
        """Plot-ready samples of the function and its first ``order`` derivatives.

        Header is x,f,f1,..,fd; one row at each of 2001 evenly spaced points.
        Raises ValueError when a sample is beyond float range.
        """
        # past half the float range the span 2r overflows: space the samples
        # at half scale and double them, an exact rescaling there
        shrink = 2.0 if 2.0 * self.radius == math.inf else 1.0
        xs = shrink * np.linspace(-self.radius / shrink, self.radius / shrink, 2001)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            columns = [xs] + [self.evaluate(xs, j) for j in range(self.order + 1)]
        if not np.isfinite(columns).all():
            raise ValueError(f"witness derivative samples overflow at radius {self.radius:g}")
        lines = [",".join(["x", "f"] + [f"f{j}" for j in range(1, self.order + 1)])]
        lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        e, v = self.edges, self.values
        pieces = [None] * (len(e) - 1)
        pieces[::2] = [{"kind": "plateau", "lo": lo, "hi": hi, "value": a}
                       for lo, hi, a in zip(e[::2], e[1::2], v)]
        pieces[1::2] = [{"kind": "transition", "lo": lo, "hi": hi, "from": a, "to": b}
                        for lo, hi, a, b in zip(e[1::2], e[2::2], v, v[1:])]
        return {
            "order": self.order,
            "radius": self.radius,
            "plateau_ratio": _PLATEAU_RATIO,
            "plateau_values": list(v),
            "pieces": pieces,
        }


def build_witness(s: FinitePoints, order: int, radius: float = 1.0) -> WitnessFunction:
    """Staircase witness attaining each value of ``s`` on its own plateau.

    The set's sorted distinct values are laid out in ascending order across
    [-radius, radius]; each plateau has width _PLATEAU_RATIO times the
    transition width.
    """
    radius = finite_float(radius)
    if radius is None or radius <= 0:
        raise ValueError("radius must be a positive finite number")
    order = positive_int(order, "order")

    vals = tuple(s.values.tolist())
    k = len(vals)
    edges = [-radius, radius]  # one plateau; the widths below would sum to 4 * radius
    if k > 1:
        # radius / (D/2), not 2 * radius / D: the same bits, without overflowing 2 * radius
        width_t = radius / (0.5 * (k * _PLATEAU_RATIO + (k - 1)))
        width_p = _PLATEAU_RATIO * width_t
        edges = list(accumulate([width_p] + [width_t, width_p] * (k - 1), initial=-radius))
        if abs(edges[-1] - radius) > 1e-9 * radius:  # widths rounded to a few subnormal ulps
            raise ValueError(f"radius {radius!r} is too small to lay out {k} plateaus in floats")
        edges[-1] = radius  # snap the accumulated right edge onto the exact domain end
    # as laid out, float tuples nondecreasing from -radius to radius: not checked again
    w = object.__new__(WitnessFunction)
    vars(w).update(edges=tuple(edges), values=vals, order=order, radius=radius)
    return w


def witness_derivative_scale(w: WitnessFunction) -> float:
    """Derivative scale sup|f^(d)| * radius**d / d! of an order-d witness.

    The maximum lives on a transition: a step of jump J over width t
    contributes |J| / (t/radius)**d times max|s^(d)| on [0, 1], a closed form.
    s' = u**d (1-u)**d / B(d+1, d+1), so by Rodrigues' formula s^(d+1) is
    a multiple of the shifted Legendre polynomial P_d, and integrating gives
    s^(d) = (-1)**d (2d)! / (2 d!) * (P_{d+1} - P_{d-1})(2u - 1).  It peaks
    at the roots x_i of P_d, where P_{d+1} = -d/(d+1) P_{d-1}, so
    max|s^(d)| = (2d+1)! / (2 d! (d+1)) * max_i |P_{d-1}(x_i)|.
    """
    e, v = w.edges, w.values
    if len(v) == 1:
        return 0.0
    d = w.order
    try:  # past float range (width/radius)**d underflows to 0 or the factorials overflow
        peak = max(abs(b - a) / ((hi - lo) / w.radius)**d
                   for a, b, lo, hi in zip(v, v[1:], e[1:-1:2], e[2::2]))
        # a Python float product overflows to inf without a numpy warning
        scale = peak * float(_step_max(d)) / math.factorial(d)
    except (ZeroDivisionError, OverflowError):
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"the order-{d} witness's derivative scale is beyond float range")
    return scale


@functools.lru_cache(maxsize=None)
def _step_max(d: int) -> float:
    """max|s^(d)| on [0, 1] for the order-d unit step; see ``witness_derivative_scale``."""
    nodes = legendre.legroots([0] * d + [1])
    peak_legendre = np.max(np.abs(legendre.legval(nodes, [0] * (d - 1) + [1])))
    return math.factorial(2 * d + 1) / (2 * math.factorial(d) * (d + 1)) * peak_legendre


@dataclass(frozen=True, eq=False)
class SandwichResult:
    """Certified lower bound vs realized upper bound for one value set."""

    gamma: float
    witness_scale: float
    ok: bool
    report: BoundReport
    witness: WitnessFunction

    def to_json_dict(self) -> dict:
        out = self.report.to_json_dict()
        out["witness_derivative_scale"] = self.witness_scale
        out["witness"] = self.witness.to_json_dict()
        out["ok"] = self.ok
        return out


def sandwich_check(p: ProblemParams, profile: LambdaProfile, s: SetDescriptor,
                   eps_grid=None) -> SandwichResult:
    """Run the bound and an explicit witness on the same set and compare.

    The witness attains the set as exact critical values, which are
    near-critical under every threshold profile, so the certified lower
    bound must not exceed the witness's measured derivative scale.  A
    violation (beyond the relative slack _SLACK) falsifies the
    implementation, not the witness.  Univariate finite sets only: a staircase
    has finitely many plateaus, so it realizes no infinite sequence.
    """
    if p.n != 1 or p.m != 1:
        raise ValueError("the witness construction is univariate (n = m = 1)")
    if not isinstance(s, FinitePoints):
        raise ValueError(f"a witness realizes finite sets only, not a {type(s).__name__}")
    report = rigidity_bound(p, profile, s, eps_grid)
    witness = build_witness(s, p.d, p.r)
    scale = witness_derivative_scale(witness)
    ok = report.gamma <= scale * (1.0 + _SLACK)
    return SandwichResult(report.gamma, scale, ok, report, witness)
