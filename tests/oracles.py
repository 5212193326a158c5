"""Test-only reference code: an exhaustive covering oracle, an epsilon0
that counts at every bisection step, the best certified product over
every float radius and, in exact arithmetic, over every real one, a grid
CSV writer, a full-grid formulation of the semi-axis field and a
piece-by-piece staircase witness.

Nothing in the package runs these; tests use them to check the exact
covering counters, to check that ``bounds.epsilon0`` gives the bits of a
bisection that counts at each midpoint, to check that a small set's
``bounds.rigidity_bound`` is the best bound over every float radius and
stays within rounding of the exact one, to write
grid samples that
``rigidity extract --grid`` and ``SampledMap.from_grid_csv`` read back, to
check that ``critical.semi_axis_field`` gives the bits of the
straightforward full-grid computation, and to check that
``witness.WitnessFunction`` gives the bits of a witness stored and
evaluated one piece object at a time.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
from numpy.polynomial import polynomial as npoly

BRUTE_FORCE_LIMIT = 12


def brute_force_covering_oracle(points, epsilon: float) -> int:
    """Exhaustive minimal covering count for small point sets (test oracle).

    Every minimal cover can slide each interval right until its left end
    hits a covered point, so it suffices to search covers anchored at the
    points.  The ball anchored at a holds x when x - a <= 2*epsilon in
    exact rational arithmetic.  Subset sizes are enumerated in increasing
    order with bitmask coverage tracking.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pts = np.unique(np.asarray(points, dtype=float))
    n = pts.size
    if n == 0:
        raise ValueError("need at least one point")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"oracle is exhaustive; at most {BRUTE_FORCE_LIMIT} points")
    full = (1 << n) - 1
    exact, two_eps = [Fraction(v) for v in pts.tolist()], 2 * Fraction(float(epsilon))
    masks = []
    for idx, a in enumerate(exact):
        hi = bisect_right(exact, a + two_eps)
        masks.append(((1 << (hi - idx)) - 1) << idx)
    for k in range(1, n + 1):
        for combo in combinations(masks, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return k
    return n  # unreachable: n singleton anchors always cover


def c_floor(n: int, d: int) -> float:
    """The least entropy constant ``ProblemParams`` takes for n >= 2:
    max(2, (d - 2)**n)."""
    return float(max(2, (d - 2) ** n))


def bisect_epsilon0(s, p) -> float:
    """``bounds.epsilon0`` as a bisection that counts at every midpoint,
    with the same refusals, until its ends are adjacent floats: the lower end
    is the last float counting c + 1.  A finite set brackets it from the least
    positive float to the diameter and refuses where that float counts below
    c + 1; a power sequence from the first of 1/4, 1/8, ... counting c + 1 to
    1/2, refusing where none does before the halving reaches 0."""
    from rigidity.covering import exact_counter
    from rigidity.sets import PowerSequence, diameter

    count_at = exact_counter(s)
    threshold = p.c + 1.0
    if isinstance(s, PowerSequence):
        lo, hi = 0.25, 0.5
        while lo > 0.0 and count_at(lo) < threshold:
            lo /= 2.0
        qualifies = lo > 0.0
    else:
        lo, hi = math.ulp(0.0), diameter(s)
        qualifies = count_at(lo) >= threshold
    if not qualifies:
        raise ValueError(f"covering count never reaches c + 1 = {threshold:g}")
    # one ball covers the set at hi, the diameter or 1/2
    while math.nextafter(lo, math.inf) < hi:
        # a midpoint rounded onto an end moves to the float beside it
        mid = lo + (hi - lo) / 2.0
        mid = min(max(mid, math.nextafter(lo, math.inf)), math.nextafter(hi, 0.0))
        if count_at(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def last_float_below(h: Fraction) -> float:
    """The largest float strictly below a positive rational h of at most the
    largest float: float(h) rounds correctly, so it or the float below it."""
    nearest = float(h)
    return math.nextafter(nearest, 0.0) if Fraction(nearest) >= h else nearest


def plateau_sup(values, p, profile) -> float:
    """The best certified product eps * eta(eps) over every positive float
    eps, for at most ``BRUTE_FORCE_LIMIT`` values and c >= 1 (count 1 never
    qualifies); 0.0 when no radius qualifies, inf past the float range.

    The count changes only at the half gaps h = (y - x)/2 of pairs x < y,
    where the exact test y - x <= 2*eps flips.  The last float below h
    (``last_float_below``) ends a plateau of the count, and eps * eta rises
    along a plateau.  Each end is counted with ``brute_force_covering_oracle``
    and solved with ``bounds.solve_eta``.
    """
    from rigidity.bounds import in_E, solve_eta

    pts = sorted(set(float(v) for v in values))
    ends = set()
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            ends.add(last_float_below((Fraction(y) - Fraction(x)) / 2))
    ends.discard(0.0)
    eps = np.array(sorted(ends, reverse=True))
    counts = np.array([brute_force_covering_oracle(pts, e) for e in eps.tolist()], dtype=np.int64)
    hit = in_E(p, profile, counts, eps) if eps.size else np.zeros(0, dtype=bool)
    if not hit.any():
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.max(eps[hit] * solve_eta(p, profile, counts[hit], eps[hit])))


def exact_bound(values, p, profile) -> Fraction:
    """The best certified product eps * eta(eps) over every real eps > 0, in
    exact rational arithmetic, for at most ``BRUTE_FORCE_LIMIT`` values and
    c >= 1; 0 when no radius qualifies.

    The exact greedy count changes only at the half gaps h = (y - x)/2 of
    pairs x < y: on the plateau just below h, the ball anchored at x covers
    y when y - x < 2h.  eps * eta rises along a plateau of constant count
    nu, so the plateau's sup is the limit h * eta(h, nu), where nu beats the
    baseline c * f(1).  There eta = t**d and t solves c * f(t) = nu for
    f(t) = sum_i a_i t**(n-i), a_i the threshold products times (r/h)**i.
    t is bisected in [1, nu/c] until the bracket is narrower than 2**-80
    times its lower end, which is kept: the result never exceeds the sup.
    """
    pts = sorted({Fraction(float(v)) for v in values})
    if len(pts) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"oracle is exhaustive; at most {BRUTE_FORCE_LIMIT} points")
    c, r, best = Fraction(p.c), Fraction(p.r), Fraction(0)
    for h in {(y - x) / 2 for i, x in enumerate(pts) for y in pts[i + 1:]}:
        nu, anchor = 0, None
        for x in pts:  # greedy, with the test just below h
            if anchor is None or x - anchor >= 2 * h:
                nu, anchor = nu + 1, x
        coeffs, prod = [Fraction(1)], Fraction(1)
        for i, lam in enumerate(profile.lambdas, 1):
            prod *= Fraction(lam)
            if prod == 0:
                break
            coeffs.append(prod * (r / h) ** i)

        def rhs(t):
            return c * sum(a * t ** (p.n - i) for i, a in enumerate(coeffs))

        lo, hi = Fraction(1), nu / c  # rhs(nu/c) >= c * (nu/c)**n >= nu
        if not nu > rhs(lo) or h * hi ** p.d <= best:
            continue  # no radius qualifies, or none beats the best so far
        while hi - lo > lo / 2**80:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if rhs(mid) <= nu else (lo, mid)
        best = max(best, h * lo ** p.d)
    return best


def newton_line_eta(p, profile, nu: float, epsilon: float) -> float:
    """The ratio that ``bounds.solve_eta`` gave at n = 1 before its closed
    form, for one count above its baseline: Newton on c * (t + a_1) = nu from
    t = nu/c, stopped at its first step that does not lower t, with both
    sides scaled by 1/8 for a count above a quarter of the float range, then
    eta = t**d by numpy's power over an array, at least 1 + ulp; inf past
    the float range."""
    lam, c = profile.lambdas[0], p.c
    coeffs = [1.0] if lam == 0.0 else [1.0, lam * (p.r / epsilon) ** 1]  # _coefficients'
    t = nu / c
    if nu > sys.float_info.max / 4:
        coeffs, nu = [a * 0.125 for a in coeffs], nu * 0.125
    while True:
        f = t if coeffs[0] == 1.0 else coeffs[0] * t
        f = f + coeffs[1] if len(coeffs) > 1 else f
        t_next = t - (c * f - nu) / (c * coeffs[0])
        if not t_next < t:
            break
        t = t_next
    with np.errstate(over="ignore"):
        eta = float(np.power(np.array([t]), p.d)[0])
    return max(eta, math.nextafter(1.0, 2.0))


def grid_csv_text(sm) -> str:
    """A sampled map as grid CSV: header x1,..,xn,f1,..,fm, one row per node
    in row-major axis order, every number written with ``repr``."""
    header = ",".join([f"x{i + 1}" for i in range(sm.n)] + [f"f{j + 1}" for j in range(sm.m)])
    coords = np.stack([g.ravel() for g in coordinate_grids(sm)], axis=-1)
    flat = sm.values.reshape(-1, sm.m)
    lines = [header]
    for row_c, row_v in zip(coords, flat):
        lines.append(",".join(repr(float(v)) for v in (*row_c, *row_v)))
    return "\n".join(lines) + "\n"


def coordinate_grids(sm) -> tuple:
    """The node coordinates of a sampled map, one full grid per axis."""
    return np.meshgrid(*([sm.axis] * sm.n), indexing="ij")


def reference_semi_axis_field(sm) -> tuple:
    """``critical.semi_axis_field`` computed on the full grid: the Jacobian
    of every node, every node's coordinates, then the interior nodes in the
    ball picked from both.  Same (points, sigmas) contract."""
    from rigidity import critical

    jac = np.empty(sm.values.shape[:-1] + (sm.m, sm.n))
    for a in range(sm.m):
        for b in range(sm.n):
            jac[..., a, b] = critical._unit_gradient(sm, sm.values[..., a], b) / sm.radius
    inner = (slice(critical._EDGE, -critical._EDGE),) * sm.n
    pts = np.stack([g[inner].ravel() for g in coordinate_grids(sm)], axis=-1)
    jflat = jac[inner].reshape(-1, sm.m, sm.n)
    keep = np.sum((pts / sm.radius) ** 2, axis=1) <= 1.0
    pts, jflat = pts[keep], jflat[keep]
    if sm.m == 1:
        sig = critical._gradient_norms(jflat[:, 0, :])[:, None]
    elif sm.m == 2:
        sig = critical._two_row_singular_values(jflat)
    else:
        sig = np.linalg.svd(jflat, compute_uv=False)[:, ::-1]
    return pts, sig


@dataclass(frozen=True)
class Plateau:
    """Constant piece of a reference witness."""

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


def reference_witness_pieces(values, radius: float, ratio: float = 0.5) -> tuple:
    """``witness.build_witness``'s layout, one piece object at a time: the
    distinct values ascending, every plateau ``ratio`` times the width of a
    transition, the running edge summed left to right."""
    vals = sorted(set(float(v) for v in values))
    k = len(vals)
    if k == 1:
        return (Plateau(-radius, radius, vals[0]),)
    width_t = 2.0 * radius / (k * ratio + (k - 1))
    width_p = ratio * width_t
    pieces = []
    x = -radius
    for i, v in enumerate(vals):
        pieces.append(Plateau(x, x + width_p, v))
        x += width_p
        if i < k - 1:
            pieces.append(Transition(x, x + width_t, v, vals[i + 1]))
            x += width_t
    last = pieces[-1]
    pieces[-1] = Plateau(last.lo, radius, last.value)
    return tuple(pieces)


def pieces_from_sequences(edges, values) -> tuple:
    """The piece objects of a witness given as 2k edges and k values."""
    pieces = []
    for i, v in enumerate(values):
        pieces.append(Plateau(edges[2 * i], edges[2 * i + 1], v))
        if i + 1 < len(values):
            pieces.append(Transition(edges[2 * i + 1], edges[2 * i + 2], v, values[i + 1]))
    return tuple(pieces)


def reference_witness_evaluate(pieces, order: int, x, deriv: int) -> np.ndarray:
    """The deriv-th derivative at the points x, filled in one piece at a time."""
    from rigidity.witness import smoothstep_coefficients

    arr = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.searchsorted(np.array([p.lo for p in pieces][1:]), arr, side="right")
    out = np.zeros_like(arr)
    coeffs = npoly.polyder(smoothstep_coefficients(order), m=deriv)
    for i, piece in enumerate(pieces):
        mask = idx == i
        if not np.any(mask):
            continue
        if isinstance(piece, Plateau):
            out[mask] = piece.value if deriv == 0 else 0.0
        else:
            width = np.float64(piece.width)
            u = (arr[mask] - piece.lo) / width
            vals = piece.jump / width**deriv * npoly.polyval(u, coeffs)
            if deriv == 0:
                vals += piece.v_lo
            out[mask] = vals
    return out


def reference_witness_scale(pieces, order: int, radius: float) -> float:
    """The derivative scale as the largest |jump| / (width/radius)**d over the
    transition objects, times the step maximum over d!; inf past float range."""
    from rigidity.witness import _step_max

    transitions = [p for p in pieces if isinstance(p, Transition)]
    if not transitions:
        return 0.0
    try:
        peak = max(abs(t.jump) / (t.width / radius)**order for t in transitions)
        return peak * float(_step_max(order)) / math.factorial(order)
    except (ZeroDivisionError, OverflowError):
        return math.inf


def reference_witness_json(pieces, order: int, radius: float) -> dict:
    """The witness JSON written from the piece objects."""
    return {
        "order": order,
        "radius": radius,
        "plateau_ratio": 0.5,
        "plateau_values": [p.value for p in pieces if isinstance(p, Plateau)],
        "pieces": [{"kind": "plateau", "lo": p.lo, "hi": p.hi, "value": p.value}
                   if isinstance(p, Plateau) else
                   {"kind": "transition", "lo": p.lo, "hi": p.hi, "from": p.v_lo, "to": p.v_hi}
                   for p in pieces],
    }
