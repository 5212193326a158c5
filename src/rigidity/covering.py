"""Exact covering counts of value sets by closed balls of radius epsilon.

All counts here are minimal-cover cardinalities, exact by construction:
one-dimensional sets and power sequences via the optimal greedy sweep,
run for all radii at once while many sweeps are live, the last few
finished one at a time by an exact scalar search; the power sweep
completes the accumulation tail with one final ball.  Multi-dimensional
clouds have no exact count and are refused.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from .sets import FinitePoints, PowerSequence, SampledCloud, SetDescriptor, diameter
from .util import DEFAULT_EPS_MIN, log_grid

BRUTE_FORCE_LIMIT = 12
POWER_COUNT_LIMIT = 2 * 10**7
# log of the power-sequence index past which adjacent terms are denser
# than float ulps
_DENSE_LOG_INDEX = 34.5
# a lockstep step costs one numpy call (~20-35 us) however few sweeps are
# live, a scalar step ~0.5 us (finite) or ~1 us (power): below this many
# live sweeps the scalar finish is cheaper
_SCALAR_TAIL = 32

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "CoveringCurve",
    "covering_number_1d",
    "covering_number_power",
    "covering_counts",
    "covering_curve",
    "brute_force_covering_oracle",
    "exact_counter",
    "default_grid",
]


def covering_number_1d(points, epsilon: float) -> int:
    """Minimal number of closed intervals of length 2*epsilon covering the points.

    Greedy sweep anchoring each interval at the leftmost uncovered point,
    which is optimal on the line.  A point at distance exactly 2*epsilon
    from the anchor counts as covered (closed balls).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("need a non-empty flat point list")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite numbers")
    if pts.size > 1 and np.any(np.diff(pts) < 0):
        pts = np.sort(pts)
    return int(_sweep_counts(pts, [float(epsilon)])[0])


def _sweep_counts(pts: np.ndarray, epsilons) -> np.ndarray:
    """Greedy sweep counts of sorted points, one sweep per radius, in lockstep.

    Each step moves every unfinished sweep past all points within
    2*epsilon of its anchor with one vectorised searchsorted, then drops
    the sweeps that reached the end.  Once at most _SCALAR_TAIL sweeps are
    live, each finishes alone in ``_sweep_from``, which makes the same
    float addition and right-side comparison, so counts do not depend on
    where the handover happens.
    """
    two_eps = 2.0 * np.asarray(epsilons, dtype=float)
    counts = np.zeros(two_eps.shape, dtype=np.int64)
    live = np.arange(two_eps.size)
    pos = np.zeros(two_eps.size, dtype=np.intp)
    while live.size > _SCALAR_TAIL:
        counts[live] += 1
        pos = np.searchsorted(pts, pts[pos] + two_eps[live], side="right")
        more = pos < pts.size
        live, pos = live[more], pos[more]
    if live.size:
        xs = pts.tolist()
        for j, i, te in zip(live.tolist(), pos.tolist(), two_eps[live].tolist()):
            counts[j] += _sweep_from(xs, i, te)
    return counts


def _sweep_from(xs: list, i: int, two_eps: float) -> int:
    """Balls the greedy sweep of sorted floats xs needs from anchor index i on."""
    count, n = 0, len(xs)
    while i < n:
        count += 1
        i = bisect_right(xs, xs[i] + two_eps, i)
    return count


def covering_number_power(alpha: float, epsilon: float) -> int:
    """Exact covering count of the full sequence {m**alpha : m >= 1}."""
    return int(_power_counts(alpha, [float(epsilon)])[0])


def _power_counts(alpha: float, epsilons) -> np.ndarray:
    """Greedy counts of the power sequence, one sweep per radius, in lockstep.

    Each sweep runs from the largest term downward: the ball anchored at
    the largest uncovered term q covers down to t = q - 2*eps, and the next
    anchor is the largest term strictly below t.  Once q drops to 2*eps or
    below, the whole remainder lies in (0, q] and one further ball finishes
    the cover, so the count is finite and exact despite the accumulation
    at zero.  Unfinished sweeps step together while more than _SCALAR_TAIL
    are live; the rest finish one at a time with ``_next_anchor``.

    No sweep walks its prefix of one-term balls: each starts at the anchor
    K**alpha of ``_prefix_length`` with K - 1 balls counted.

    Anchors are m**alpha from libm, as Python's ``**`` computes them, so
    the counts are bit-identical to a scalar sweep.  numpy only guesses the
    index m; a guess that is wrong, or whose neighbour (m-1)**alpha (SIMD
    pow, not bit-equal to libm) lies within 1e-13*t of t, is redone with
    ``_next_anchor``.  Past index 1e15 adjacent terms are denser than float
    ulps near t, and the next anchor is nextafter(t, 0).
    """
    if not -math.inf < alpha < 0:
        raise ValueError("alpha must be a finite negative number")
    eps = np.asarray(epsilons, dtype=float)
    if not np.all((eps > 0) & (eps < 1)):
        raise ValueError("epsilon must lie in (0, 1)")
    # the count grows like (2 eps)^(1/(alpha-1)); refuse degenerate scans,
    # comparing logs (the power overflows for alpha near 0 and tiny eps)
    if eps.size and math.log(2.0 * eps.min()) / (alpha - 1.0) > math.log(POWER_COUNT_LIMIT):
        raise ValueError("covering count would exceed the iteration limit; raise epsilon")
    two_eps = 2.0 * eps
    counts = np.ones(two_eps.size, dtype=np.int64)  # the final ball over the tail
    live = np.flatnonzero(two_eps < 1.0)
    te = two_eps[live]
    k = _prefix_length(alpha, te)
    q = np.fromiter(map(math.pow, k.tolist(), repeat(alpha)), float, k.size)
    counts[live] += k.astype(np.int64) - 1  # one ball per term before K
    keep = q > te  # else K**alpha <= 2*eps: the final ball covers it
    live, te, q = live[keep], te[keep], q[keep]
    steps = 0
    while live.size > _SCALAR_TAIL:
        steps += 1
        t = q - te
        log_m = np.log(t) / alpha
        dense = None
        if log_m.max() > _DENSE_LOG_INDEX - 1e-9:
            # numpy's log may differ from libm's by an ulp: decide ties exactly
            for i in np.flatnonzero(np.abs(log_m - _DENSE_LOG_INDEX) < 1e-9).tolist():
                log_m[i] = math.log(t[i]) / alpha
            dense = log_m > _DENSE_LOG_INDEX
            log_m[dense] = _DENSE_LOG_INDEX  # keeps exp finite; set below
        m = np.floor(np.exp(log_m)) + 1.0
        q = np.fromiter(map(math.pow, m.tolist(), repeat(alpha)), float, m.size)
        redo = (q >= t) | (np.power(m - 1.0, alpha) <= t * (1.0 + 1e-13))
        if dense is not None:
            redo &= ~dense
            q[dense] = np.nextafter(t[dense], 0.0)
        if redo.any():
            for i in np.flatnonzero(redo).tolist():
                q[i] = _next_anchor(float(t[i]), alpha)
        done = q <= te
        if done.any():
            counts[live[done]] += steps
            keep = ~done
            live, te, q = live[keep], te[keep], q[keep]
    for j, tej, qj in zip(live.tolist(), te.tolist(), q.tolist()):
        n = steps
        while qj > tej:
            n += 1
            qj = _next_anchor(qj - tej, alpha)
        counts[j] += n
    return counts


def _prefix_length(alpha: float, two_eps: np.ndarray) -> np.ndarray:
    """Per radius 2*eps, a K (a float >= 1) whose terms 1, 2**alpha, ...,
    K**alpha are the greedy sweep's first K anchors: the largest integer
    up to 2**28*|alpha| with |alpha|*K**(alpha-1) >= max(2*eps, 2**-1000)
    * (1 + mu), mu = 2**-20.

    Each gap k**alpha - (k+1)**alpha exceeds |alpha|*(k+1)**(alpha-1), so
    for k < K it tops 2*eps by mu*max(2*eps, 2**-1000) and, by the cap on
    K, by about 2**-48*k**alpha: more than the roundings of the float test
    (k+1)**alpha < k**alpha - 2*eps (two libm pows and a subtraction, under
    3 ulps of k**alpha or 3 subnormal ulps).  Without the 2**-1000 floor
    alpha = -80 at eps = 5e-324 breaks.  K is solved in logs, finite for
    any radius and exponent; the 1e-9 shrink absorbs numpy's log and exp
    rounding.
    """
    log_k = np.log(np.maximum(two_eps, 2.0**-1000)) + (math.log1p(2.0**-20) - math.log(-alpha))
    log_k = np.minimum(log_k / (alpha - 1.0), math.log(2.0**28 * -alpha)) - 1e-9
    return np.maximum(np.floor(np.exp(log_k)), 1.0)


def _next_anchor(t: float, alpha: float) -> float:
    """Largest term m**alpha strictly below t, or nextafter(t, 0) past index 1e15."""
    log_m = math.log(t) / alpha
    if log_m > _DENSE_LOG_INDEX:
        return math.nextafter(t, 0.0)
    k = max(1, int(math.exp(log_m)) + 1)
    while k > 1 and (k - 1) ** alpha < t:
        k -= 1
    while k ** alpha >= t:
        k += 1
    return k ** alpha


@dataclass(frozen=True, eq=False)
class CoveringCurve:
    """Covering counts along a strictly decreasing grid of radii."""

    epsilons: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        cnt = np.asarray(self.counts, dtype=np.int64)
        if eps.ndim != 1 or eps.size == 0 or eps.shape != cnt.shape:
            raise ValueError("curve needs matching non-empty epsilon and count arrays")
        if np.any(eps <= 0) or (eps.size > 1 and np.any(np.diff(eps) >= 0)):
            raise ValueError("epsilons must be positive and strictly decreasing")
        if np.any(cnt < 1):
            raise ValueError("counts must be positive")
        if cnt.size > 1 and np.any(np.diff(cnt) < 0):
            raise ValueError("counts must be nondecreasing as epsilon shrinks")
        eps = np.ascontiguousarray(eps)
        cnt = np.ascontiguousarray(cnt)
        eps.setflags(write=False)
        cnt.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "counts", cnt)

    def __len__(self) -> int:
        return self.epsilons.size

    def to_csv_text(self) -> str:
        lines = ["epsilon,count"]
        lines += [f"{e!r},{c}" for e, c in zip(self.epsilons.tolist(), self.counts.tolist())]
        return "\n".join(lines) + "\n"


def _sorted_line(s: SetDescriptor) -> np.ndarray:
    """Sorted values of a finite m = 1 descriptor, or raise.

    Multi-dimensional clouds have no exact routine; they are rejected here
    so they never reach the bound solver.
    """
    if isinstance(s, (FinitePoints, SampledCloud)):
        if s.m != 1:
            raise ValueError("exact covering requires m = 1; clouds have no exact count")
        return np.sort(s.values)
    raise TypeError(f"unsupported descriptor {type(s).__name__}")


def exact_counter(s: SetDescriptor):
    """Exact one-radius covering counter for a descriptor, or raise."""
    if isinstance(s, PowerSequence):
        return lambda e: covering_number_power(s.alpha, e)
    xs = _sorted_line(s).tolist()
    return lambda e: _sweep_from(xs, 0, 2.0 * float(e))


def covering_counts(s: SetDescriptor, epsilons) -> np.ndarray:
    """Exact covering counts of a descriptor at every radius, in the given order.

    Finite sets and power sequences each run all radii through one
    lockstep sweep with a scalar finish.  Every radius must be positive.
    """
    eps = np.asarray(epsilons, dtype=float)
    if isinstance(s, PowerSequence):
        return _power_counts(s.alpha, eps)
    if not np.all(eps > 0):
        raise ValueError("epsilon must be positive")
    return _sweep_counts(_sorted_line(s), eps)


def default_grid(s: SetDescriptor) -> np.ndarray:
    """Default scan grid: 200 points per decade from the set scale down to 1e-6.

    Power sequences cap at 1/2, above which the whole sequence fits in one
    ball and the count is constant.
    """
    if isinstance(s, PowerSequence):
        hi = 0.5
    else:
        d = diameter(s)
        hi = d if d > 10 * DEFAULT_EPS_MIN else 1.0
    return log_grid(DEFAULT_EPS_MIN, hi)


def covering_curve(s: SetDescriptor, eps_grid) -> CoveringCurve:
    """Exact covering counts for every grid radius.

    The grid must be strictly decreasing and positive.  Counts come from
    the exact routine for the set family; the nondecreasing-count invariant
    is re-checked after the scan.
    """
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("epsilon grid must be a non-empty 1-d array")
    if np.any(eps <= 0) or (eps.size > 1 and np.any(np.diff(eps) >= 0)):
        raise ValueError("epsilon grid must be positive and strictly decreasing")
    return CoveringCurve(eps, covering_counts(s, eps))


def brute_force_covering_oracle(points, epsilon: float) -> int:
    """Exhaustive minimal covering count for small point sets (test oracle).

    Every minimal cover can slide each interval right until its left end
    hits a covered point, so it suffices to search covers anchored at the
    points.  Subset sizes are enumerated in increasing order with bitmask
    coverage tracking.
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
    masks = []
    for idx in range(n):
        hi = int(np.searchsorted(pts, float(pts[idx]) + 2.0 * epsilon, side="right"))
        masks.append(((1 << (hi - idx)) - 1) << idx)
    for k in range(1, n + 1):
        for combo in combinations(masks, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return k
    return n  # unreachable: n singleton anchors always cover

