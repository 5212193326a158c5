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

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly

from .bounds import BoundReport, LambdaProfile, ProblemParams, rigidity_bound
from .sets import SetDescriptor, materialize
from .util import sorted_distinct

# every plateau is this fraction of a transition's width
_PLATEAU_RATIO = 0.5
# relative rounding allowance when the bound is compared with the witness scale
_SLACK = 1e-9

__all__ = [
    "smoothstep_coefficients",
    "Plateau",
    "Transition",
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
    if not (isinstance(order, (int, np.integer)) and order >= 1):
        raise ValueError("order must be a positive integer")
    coeffs = np.zeros(2 * order + 2)
    coeffs[order + 1:] = [
        (-1) ** k * math.comb(order + k, k) * math.comb(2 * order + 1, order - k)
        for k in range(order + 1)
    ]
    return coeffs


@dataclass(frozen=True)
class Plateau:
    """Constant piece of a witness."""

    lo: float
    hi: float
    value: float


@dataclass(frozen=True)
class Transition:
    """Monotone step piece climbing from one plateau value to the next."""

    lo: float
    hi: float
    v_lo: float
    v_hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def jump(self) -> float:
        return self.v_hi - self.v_lo


@dataclass(frozen=True, eq=False)
class WitnessFunction:
    """Piecewise staircase with analytic derivatives of every order.

    ``pieces`` tile [-radius, radius] left to right, alternating plateaus
    and transitions.
    """

    pieces: tuple
    order: int
    radius: float

    def __post_init__(self):
        if len(self.pieces) == 0:
            raise ValueError("a witness needs at least one piece")
        if self.pieces[0].lo != -self.radius or self.pieces[-1].hi != self.radius:
            raise ValueError("pieces must tile the full domain")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must be contiguous")
        if not (isinstance(self.order, (int, np.integer)) and self.order >= 1):
            raise ValueError("order must be a positive integer")
        # a numpy integer order would wrap in the step maximum's factorials
        object.__setattr__(self, "order", int(self.order))

    @property
    def plateau_values(self) -> np.ndarray:
        return np.array([p.value for p in self.pieces if isinstance(p, Plateau)])

    @property
    def transitions(self) -> tuple:
        return tuple(p for p in self.pieces if isinstance(p, Transition))

    def evaluate(self, x, deriv: int = 0) -> np.ndarray:
        """Value of the deriv-th derivative at x (scalar or array)."""
        if not (isinstance(deriv, (int, np.integer)) and deriv >= 0):
            raise ValueError("deriv must be a nonnegative integer")
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        tol = 1e-12 * max(self.radius, 1.0)
        if np.any(arr < -self.radius - tol) or np.any(arr > self.radius + tol):
            raise ValueError("evaluation point outside the witness domain")
        edges = np.array([p.lo for p in self.pieces][1:])
        idx = np.searchsorted(edges, arr, side="right")
        out = np.zeros_like(arr)
        coeffs = npoly.polyder(smoothstep_coefficients(self.order), m=deriv)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if not np.any(mask):
                continue
            if isinstance(piece, Plateau):
                out[mask] = piece.value if deriv == 0 else 0.0
            else:
                width = np.float64(piece.width)  # its power overflows to inf, not raises
                u = (arr[mask] - piece.lo) / width
                vals = piece.jump / width**deriv * npoly.polyval(u, coeffs)
                if deriv == 0:
                    vals += piece.v_lo
                out[mask] = vals
        return out[0] if scalar else out

    def __call__(self, x):
        return self.evaluate(x, 0)

    def sample_csv_text(self) -> str:
        """Plot-ready samples of the function and its first ``order`` derivatives.

        Header is x,f,f1,..,fd; one row at each of 2001 evenly spaced points.
        Raises ValueError when a sample is beyond float range.
        """
        xs = np.linspace(-self.radius, self.radius, 2001)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            columns = [xs] + [self.evaluate(xs, j) for j in range(self.order + 1)]
        if not np.isfinite(columns).all():
            raise ValueError(f"witness derivative samples overflow at radius {self.radius:g}")
        lines = [",".join(["x", "f"] + [f"f{j}" for j in range(1, self.order + 1)])]
        lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        pieces = [{"kind": "plateau", "lo": p.lo, "hi": p.hi, "value": p.value}
                  if isinstance(p, Plateau) else
                  {"kind": "transition", "lo": p.lo, "hi": p.hi, "from": p.v_lo, "to": p.v_hi}
                  for p in self.pieces]
        return {
            "order": self.order,
            "radius": self.radius,
            "plateau_ratio": _PLATEAU_RATIO,
            "plateau_values": [float(v) for v in self.plateau_values],
            "pieces": pieces,
        }


def build_witness(values, order: int, radius: float = 1.0) -> WitnessFunction:
    """Staircase witness attaining each value on its own plateau.

    Values are deduplicated and laid out in ascending order across
    [-radius, radius]; each plateau has width _PLATEAU_RATIO times the
    transition width.
    """
    vals = sorted_distinct(np.asarray(values, dtype=float).ravel())
    if vals.size == 0:
        raise ValueError("need at least one value")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    if not (isinstance(radius, (int, float)) and math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be a positive finite number")
    radius = float(radius)

    k = vals.size
    if k == 1:
        pieces = (Plateau(-radius, radius, float(vals[0])),)
        return WitnessFunction(pieces, int(order), radius)

    width_t = 2.0 * radius / (k * _PLATEAU_RATIO + (k - 1))
    width_p = _PLATEAU_RATIO * width_t
    pieces = []
    x = -radius
    for i, v in enumerate(vals):
        pieces.append(Plateau(x, x + width_p, float(v)))
        x += width_p
        if i < k - 1:
            pieces.append(Transition(x, x + width_t, float(v), float(vals[i + 1])))
            x += width_t
    if abs(x - radius) > 1e-9 * radius:
        raise RuntimeError("piece layout failed to tile the domain")
    # snap the accumulated right edge onto the exact domain end
    last = pieces[-1]
    pieces[-1] = Plateau(last.lo, radius, last.value)
    return WitnessFunction(tuple(pieces), int(order), radius)


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
    transitions = w.transitions
    if not transitions:
        return 0.0
    d = w.order
    try:  # past float range (width/radius)**d underflows to 0 or the factorials overflow
        peak = max(abs(t.jump) / (t.width / w.radius)**d for t in transitions)
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
    implementation, not the witness.  Univariate scalar sets only.
    """
    if p.n != 1 or p.m != 1:
        raise ValueError("the witness construction is univariate (n = m = 1)")
    report = rigidity_bound(p, profile, s, eps_grid)
    values = materialize(s)
    witness = build_witness(values, p.d, p.r)
    scale = witness_derivative_scale(witness)
    ok = report.gamma <= scale * (1.0 + _SLACK)
    return SandwichResult(report.gamma, scale, ok, report, witness)
