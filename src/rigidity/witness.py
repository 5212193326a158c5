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

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bounds import BoundReport, LambdaProfile, ProblemParams, rigidity_bound
from .sets import SetDescriptor, materialize
from .util import sorted_distinct

# beyond this order the Hermite system for the step polynomial grows
# ill-conditioned and coefficients lose digits
SMOOTHSTEP_WARN_ORDER = 10

# every plateau is this fraction of a transition's width
_PLATEAU_RATIO = 0.5

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
    vanishing derivatives 1..order at both endpoints.  Monomials below
    u**(order+1) are absent, which settles the left endpoint for free; the
    right endpoint gives a square linear system in the remaining order+1
    coefficients (value 1, then falling-factorial sums equal to zero).
    """
    if not (isinstance(order, (int, np.integer)) and order >= 1):
        raise ValueError("order must be a positive integer")
    if order > SMOOTHSTEP_WARN_ORDER:
        warnings.warn(
            f"step polynomial of order {order}: the coefficient system is "
            "ill-conditioned and measured scales may lose precision",
            RuntimeWarning,
            stacklevel=2,
        )
    size = order + 1
    powers = np.arange(order + 1, 2 * order + 2)
    system = np.empty((size, size))
    system[0, :] = 1.0
    for j in range(1, order + 1):
        # d^j/du^j of u**p at u = 1 is the falling factorial p (p-1) ... (p-j+1)
        row = np.ones(size)
        for step in range(j):
            row *= powers - step
        system[j, :] = row
    target = np.zeros(size)
    target[0] = 1.0
    high = np.linalg.solve(system, target)
    coeffs = np.zeros(2 * order + 2)
    coeffs[order + 1:] = high
    return coeffs


def _abs_max_unit_interval(coeffs: np.ndarray) -> float:
    """Maximum of |polynomial| over [0, 1] via critical points of its derivative."""
    candidates = [0.0, 1.0]
    deriv = npoly.polyder(coeffs)
    if deriv.size > 1 or deriv[0] != 0.0:
        roots = npoly.polyroots(deriv)
        for root in roots:
            if abs(root.imag) < 1e-9 and -1e-12 <= root.real <= 1.0 + 1e-12:
                candidates.append(min(max(root.real, 0.0), 1.0))
    values = npoly.polyval(np.asarray(candidates), coeffs)
    return float(np.max(np.abs(values)))


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
    and transitions.  Derivatives of the step polynomial are cached per
    order, so repeated evaluation at many orders stays cheap.
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
        base = smoothstep_coefficients(self.order)
        object.__setattr__(self, "_step_derivs", {0: base})

    def _step_deriv(self, j: int) -> np.ndarray:
        cache = self._step_derivs
        if j not in cache:
            base = cache[0]
            if j >= base.size:
                cache[j] = np.zeros(1)
            else:
                cache[j] = npoly.polyder(base, m=j)
        return cache[j]

    @property
    def plateau_values(self) -> np.ndarray:
        return np.array([p.value for p in self.pieces if isinstance(p, Plateau)])

    @property
    def transitions(self) -> tuple:
        return tuple(p for p in self.pieces if isinstance(p, Transition))

    @property
    def breakpoints(self) -> np.ndarray:
        """Interior junction locations between consecutive pieces."""
        return np.array([p.hi for p in self.pieces[:-1]])

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
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if not np.any(mask):
                continue
            if isinstance(piece, Plateau):
                out[mask] = piece.value if deriv == 0 else 0.0
            else:
                width = piece.width
                u = (arr[mask] - piece.lo) / width
                coeffs = self._step_deriv(deriv)
                vals = piece.jump / width**deriv * npoly.polyval(u, coeffs)
                if deriv == 0:
                    vals += piece.v_lo
                out[mask] = vals
        return out[0] if scalar else out

    def __call__(self, x):
        return self.evaluate(x, 0)

    def sample_csv_text(self, num: int = 2001) -> str:
        """Plot-ready samples of the function and its first ``order`` derivatives.

        Header is x,f,f1,..,fd; one row per sample point.
        """
        xs = np.linspace(-self.radius, self.radius, num)
        columns = [xs] + [self.evaluate(xs, j) for j in range(self.order + 1)]
        header = ",".join(["x", "f"] + [f"f{j}" for j in range(1, self.order + 1)])
        lines = [header]
        for row in zip(*columns):
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        pieces = []
        for p in self.pieces:
            if isinstance(p, Plateau):
                pieces.append({"kind": "plateau", "lo": p.lo, "hi": p.hi, "value": p.value})
            else:
                pieces.append(
                    {"kind": "transition", "lo": p.lo, "hi": p.hi,
                     "from": p.v_lo, "to": p.v_hi}
                )
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


def witness_derivative_scale(w: WitnessFunction, order: int | None = None) -> float:
    """Derivative scale sup|f^(order)| * radius**order / order! of a witness.

    The maximum lives on a transition: a step of jump J over width t
    contributes |J| / t**order times the step polynomial's own derivative
    maximum.  The latter is found exactly from the roots of the next
    derivative, so no finite-difference error enters here.
    """
    d = w.order if order is None else order
    if not (isinstance(d, (int, np.integer)) and 1 <= d <= w.order):
        raise ValueError("order must be an integer in [1, witness order]")
    transitions = w.transitions
    if not transitions:
        return 0.0
    step_max = _abs_max_unit_interval(w._step_deriv(int(d)))
    peak = max(abs(t.jump) / t.width**d for t in transitions)
    return peak * step_max * w.radius**d / math.factorial(d)


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
                   eps_grid=None, slack: float = 1e-9) -> SandwichResult:
    """Run the bound and an explicit witness on the same set and compare.

    The witness attains the set as exact critical values, which are
    near-critical under every threshold profile, so the certified lower
    bound must not exceed the witness's measured derivative scale.  A
    violation (beyond relative slack) falsifies the implementation, not
    the witness.  Univariate scalar sets only.
    """
    if p.n != 1 or p.m != 1:
        raise ValueError("the witness construction is univariate (n = m = 1)")
    report = rigidity_bound(p, profile, s, eps_grid)
    values = materialize(s)
    witness = build_witness(values, p.d, p.r)
    scale = witness_derivative_scale(witness)
    ok = report.gamma <= scale * (1.0 + slack)
    return SandwichResult(report.gamma, scale, ok, report, witness)
