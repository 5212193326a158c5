"""Greedy covering counts of value sets by closed balls of radius epsilon.

Sets on the line and power sequences are counted by the greedy sweep,
minimal in exact arithmetic, with one float test per ball: a finite sweep
goes up and covers x from anchor a if fl(a + 2*eps) >= x; a power sweep
goes down from anchor q to the largest term strictly below t = fl(q -
2*eps).  Rounding to nearest keeps every point the exact ball holds, so no
count exceeds the minimal cover of the floats swept (libm's terms for a
power sequence); one that adds a point can lower it: finite counts did at
1,771 of 33,247 radii measured, and a power count can fall below its own
prefix's (``tests/test_invariants.py``).  Radii sweep in lockstep while
many are live, then (and in tiny finite batches) alone, skipping the
balls a float-safe bound proves.  Clouds are refused.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .sets import FinitePoints, PowerSequence, SetDescriptor, diameter
from .util import DEFAULT_EPS_MIN, log_grid

POWER_COUNT_LIMIT = 2 * 10**7
# log of the power-sequence index past which the next anchor is nextafter(t,
# 0): terms there lie under an ulp apart for |alpha| < 0.2, a few above
_DENSE_LOG_INDEX = 34.5
# a lockstep step costs ~10 us (finite) or ~40 us (power) however few
# sweeps are live, a scalar step ~0.45 us or ~1.4 us: below about this
# many live sweeps the scalar finish is cheaper
_SCALAR_TAIL = 32
# a finite count's prefix setup costs ~20 us however small the batch, a
# scalar ball ~0.2 us: a batch of at most this many radii times points
# (so at most as many balls) sweeps radius by radius
_TINY_BATCH = 256

__all__ = [
    "covering_number_1d",
    "covering_number_power",
    "covering_counts",
    "exact_counter",
    "plateau_ends",
    "default_grid",
]


def covering_number_1d(points, epsilon: float) -> int:
    """Minimal number of closed intervals of length 2*epsilon covering the points.

    Greedy sweep anchoring each interval at the leftmost uncovered point,
    which is optimal on the line.  A point at distance exactly 2*epsilon
    from the anchor counts as covered (closed balls).  Repeated points
    count once, which never changes a greedy count.
    """
    return int(covering_counts(FinitePoints(points), [float(epsilon)])[0])


def _sweep_counts(pts: np.ndarray, epsilons) -> np.ndarray:
    """Greedy sweep counts of sorted points, one sweep per radius, in lockstep.

    A sweep starts past its leading one-point balls: x_i's ball holds x_i
    alone if G_i = nextafter(fl(pred(x_{i+1}) - x_i), -inf) >= 2*epsilon,
    as G_i is at most the exact gap from x_i to the float pred(x_{i+1})
    below x_{i+1}, so fl(x_i + 2*epsilon) <= pred(x_{i+1}); if they reach
    the last point (most radii below the smallest gap), it ends there.
    Each step moves every unfinished sweep past all points within
    2*epsilon of its anchor with one vectorised searchsorted, then drops
    the sweeps that reached the end.  Once at most _SCALAR_TAIL sweeps are
    live, each finishes alone in ``_sweep_from``, which makes the same
    float addition and right-side comparison, so counts do not depend on
    where the handover happens, and a batch of at most _TINY_BATCH radii
    times points skips the prefix and the lockstep for the same reason.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.size * pts.size <= _TINY_BATCH:
        xs = pts.tolist()
        return np.array([_sweep_from(xs, 0, 2.0 * e) for e in eps.tolist()], dtype=np.int64)
    with np.errstate(over="ignore"):  # 2*eps, a gap or a reach may be inf
        two_eps = 2.0 * eps
        gap = np.nextafter(np.nextafter(pts[1:], -np.inf) - pts[:-1], -np.inf)
        pos = np.searchsorted(-np.minimum.accumulate(gap), -two_eps, side="right")
        counts = pos.astype(np.int64) + (pos == gap.size)
        live = np.flatnonzero(pos < gap.size)
        pos = pos[live]
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


def _least_radius(x: float, y: float) -> float:
    """Least float e with x + 2.0*e >= y in floats, for floats x < y: the
    radius from which the sweep's ball anchored at x covers y.

    That sum reaches y once it passes the rounding boundary half an ulp
    below y, so the start is (pred(y) - x + ulp/2) / 2, capped at 2**1023,
    where 2*e overflows.  Each rounding in it goes at most to the least
    float at or above its exact value, so the start is never above the
    answer, and a few ulp steps up reach it.
    """
    below = math.nextafter(y, -math.inf)
    e = min(0.5 * ((below - x) + 0.5 * (y - below)), 2.0**1023)
    while not x + 2.0 * e >= y:
        e = math.nextafter(e, math.inf)
    return e


def plateau_ends(s: SetDescriptor) -> np.ndarray:
    """The last float of every plateau of a finite set's count, largest
    first: the distinct positive pred(e) over the radii e =
    ``_least_radius(x, y)`` of its pairs x < y, where the sweep's test
    flips.  The count is constant from one such e up to the next end, so a
    scan of the ends sees every count at its largest radius but one: count
    1, from the largest e on."""
    xs = _sorted_line(s).tolist()
    ends = {math.nextafter(_least_radius(x, y), 0.0) for i, x in enumerate(xs) for y in xs[i + 1:]}
    return np.array(sorted(ends - {0.0}, reverse=True))


def covering_number_power(alpha: float, epsilon: float) -> int:
    """Exact covering count of the full sequence {m**alpha : m >= 1}."""
    return int(covering_counts(PowerSequence(alpha), [float(epsilon)])[0])


def _power_counts(alpha: float, eps: np.ndarray) -> np.ndarray:
    """Greedy counts of the power sequence, one sweep per radius, in lockstep.

    Each sweep runs from the largest term downward: the ball anchored at
    the largest uncovered term q covers down to t = q - 2*eps, and the next
    anchor is the largest term strictly below t.  Once q drops to 2*eps or
    below, the whole remainder lies in (0, q] and one further ball finishes
    the cover, so the count is finite and exact despite the accumulation
    at zero.  Sweeps step together while more than _SCALAR_TAIL are live,
    the rest one at a time with ``_next_anchor``; after each step a sweep
    jumps the run of balls whose stride provably equals the one just
    found (``_run_length``), from the term 1 first with stride 1.

    Anchors are m**alpha from libm's pow, as Python's ``**`` computes them,
    run in a C loop by ``np.float_power`` (``np.power``'s SIMD pow differs),
    so the counts are bit-identical to a scalar sweep.  numpy only guesses
    the index m; a guess with m**alpha >= t or (m-1)**alpha < t is wrong
    and redone with ``_next_anchor``.  Past index 1e15, placed by libm's log
    as in the scalar sweep, the next anchor is nextafter(t, 0).
    """
    # the count grows like (2 eps)^(1/(alpha-1)); refuse degenerate scans,
    # comparing logs (the power overflows for alpha near 0 and tiny eps)
    if eps.size and math.log(2.0 * eps.min()) / (alpha - 1.0) > math.log(POWER_COUNT_LIMIT):
        raise ValueError("covering count would exceed the iteration limit; raise epsilon")
    counts = np.ones(eps.size, dtype=np.int64)  # the final ball over the tail
    live = np.flatnonzero(eps < 0.5)  # one ball covers all from 2*eps >= 1 on
    te = 2.0 * eps[live]
    hi = np.exp((math.log(-alpha) - math.log1p(2.0**-20)
                 - np.log(np.maximum(te, 2.0**-1000))) / (1.0 - alpha)) * (1.0 - 1e-9)
    lo = np.where(te < 2.0**-1000, 0.0, te * ((1.0 - 2.0**-20) * (1.0 - 1e-12) / -alpha))
    # per sweep: radius index, 2*eps, run scales, the anchor m before the
    # one just found (k, of value q) and the n balls anchored before m;
    # sweeps start at k = 1 after a virtual anchor 0, whose ball n = -1 cancels
    state = np.vstack([live, te, hi, lo, np.repeat([[0.0], [1.0], [-1.0]], te.size, 1)])
    k, jumping = np.ones(live.size), True
    while True:
        live, te, hi, lo, m, q, n = state
        if jumping:
            s = k - m
            run = _run_length(alpha, k, s, q, hi, lo)
            k += run * s
            n += run
            jumped = run.nonzero()[0]
            # runs shorten as strides grow: once no sweep jumps, none tries again
            jumping = jumped.size > 0
            q[jumped] = np.float_power(k[jumped], alpha)
        m[:] = k
        n += 1.0
        done = q <= te
        if np.count_nonzero(done):
            counts[live[done].astype(np.intp)] += n[done].astype(np.int64)
            state = state.compress(~done, axis=1)
            live, te, hi, lo, m, q, n = state
        if live.size <= _SCALAR_TAIL:
            break
        t = q - te
        log_m = np.log(t) / alpha
        dense = None
        if log_m.max() > _DENSE_LOG_INDEX - 1e-9:
            # numpy's log may differ from libm's by an ulp, and nextafter(t, 0)
            # from the term below t (|alpha| >= 0.3): libm decides ties
            for i in np.flatnonzero(np.abs(log_m - _DENSE_LOG_INDEX) < 1e-9).tolist():
                log_m[i] = math.log(t[i]) / alpha
            dense = log_m > _DENSE_LOG_INDEX
            log_m[dense] = _DENSE_LOG_INDEX  # keeps exp finite; set below
        k = np.floor(np.exp(log_m)) + 1.0
        q[:] = np.float_power(k, alpha)
        redo = (q >= t) | (np.float_power(k - 1.0, alpha) < t)  # k >= 2, as t < 1
        if dense is not None:
            redo &= ~dense
            q[dense] = np.nextafter(t[dense], 0.0)
            k[dense] += m[dense]  # not a term: its stride passes any run's end
        for i in redo.nonzero()[0].tolist():
            k[i], q[i] = _next_anchor(float(t[i]), alpha)
    for j, tej, qj, nj in zip(live.astype(np.intp).tolist(), te.tolist(), q.tolist(), n.tolist()):
        while qj > tej:
            nj += 1
            qj = _next_anchor(qj - tej, alpha)[1]
        counts[j] += int(nj)
    return counts


def _run_length(alpha: float, k, s, q, hi, lo) -> np.ndarray:
    """How many balls anchored at k, k+s, k+2s, ... provably cover s terms
    each, per sweep with the anchor k, q = k**alpha and the stride s to try:
    those whose anchor a has a+s <= min(s**p*hi, 2**28*|alpha|*s, e**33.5),
    p = 1/(1-alpha), if (s-1)*q/k <= lo.  ``_power_counts`` sets
    hi = (|alpha| / (max(2*eps, 2**-1000) * (1 + mu)))**p, solved in logs
    and shrunk by 1e-9, and lo = 2*eps*(1 - mu)/|alpha|, shrunk by 1e-12,
    or 0 below 2*eps = 2**-1000; mu = 2**-20.

    By the mean value theorem the gap a**alpha - (a+g)**alpha lies between
    g*|alpha|*(a+g)**(alpha-1) and g*|alpha|*a**(alpha-1), and falls as a
    grows.  So from k on the ball at a reaches a+s-1, its gap for g = s-1
    being 2*eps*mu under 2*eps; up to the hi bound it misses a+s, that gap
    topping 2*eps by mu*max(2*eps, 2**-1000).  By the cap 2**28*|alpha|*s,
    which the lo side turns into 2*eps >= 2**-29*a**alpha, both margins
    exceed about 2**-49*a**alpha: more than the roundings of the float test
    (a+g)**alpha < a**alpha - 2*eps (two libm pows and a subtraction,
    under 3 ulps of a**alpha or 3 subnormal ulps).  Below 2**-1000 only
    stride 1, with no lo side, may run; without the floor alpha = -80 at
    eps = 5e-324 breaks.  Runs end short of the dense terms.
    """
    top = np.minimum(s ** (1.0 / (1.0 - alpha)) * hi, (2.0**28 * -alpha) * s)
    top = np.minimum(top, math.exp(_DENSE_LOG_INDEX - 1.0))
    run = np.maximum(np.floor((top - k) / s), 0.0)
    return np.where((s - 1.0) * q / k <= lo, run, 0.0)


def _next_anchor(t: float, alpha: float):
    """Index and value of the largest term m**alpha strictly below t; past
    index 1e15 the value is nextafter(t, 0), with no index."""
    log_m = math.log(t) / alpha
    if log_m > _DENSE_LOG_INDEX:
        return math.nan, math.nextafter(t, 0.0)
    k = max(1, int(math.exp(log_m)) + 1)
    while k > 1 and (k - 1) ** alpha < t:
        k -= 1
    while k ** alpha >= t:
        k += 1
    return k, k ** alpha


def _sorted_line(s: SetDescriptor) -> np.ndarray:
    """Sorted distinct values of a finite set; a cloud has no exact count,
    so it is rejected here and never reaches the bound solver."""
    if isinstance(s, FinitePoints):
        return s.values
    raise ValueError("exact covering requires m = 1; clouds have no exact count")


def exact_counter(s: SetDescriptor):
    """Exact one-radius covering counter for a descriptor, or raise."""
    if isinstance(s, PowerSequence):
        return lambda e: covering_number_power(s.alpha, e)
    xs = _sorted_line(s).tolist()
    return lambda e: _sweep_from(xs, 0, 2.0 * float(e))


def covering_counts(s: SetDescriptor, epsilons) -> np.ndarray:
    """Greedy counts (their float tests are in the module docstring) of a
    descriptor at each radius of a 1-d array, possibly empty, in its order;
    every radius must be positive.  All radii run through one lockstep
    sweep with a scalar finish, a tiny finite batch through the scalar
    sweep alone."""
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1:
        raise ValueError("epsilons must be a 1-d array of radii")
    if np.count_nonzero(eps > 0) < eps.size:
        raise ValueError("epsilon must be positive")
    if isinstance(s, PowerSequence):
        return _power_counts(s.alpha, eps)
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
