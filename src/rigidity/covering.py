"""Greedy covering counts of value sets by closed balls of radius epsilon.

A finite set on the line gets its covering number: the greedy sweep goes
up and covers x from anchor a if x - a <= 2*eps in real arithmetic.  A
power sweep keeps a float test, from anchor q down to the largest term
below t = fl(q - 2*eps): it never exceeds the minimal cover of libm's
terms but may fall below it, even below its prefix's (test_invariants.py).
Radii sweep in lockstep while many are live, then (and in tiny finite
batches) alone, skipping the balls a float-safe bound proves.  No clouds.
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
    """Minimal number of closed intervals of length 2*epsilon covering the
    points: ``covering_counts`` at one radius; repeated points count once."""
    return int(covering_counts(FinitePoints(points), [float(epsilon)])[0])


def _sweep_counts(pts: np.ndarray, epsilons) -> np.ndarray:
    """Greedy sweep counts of sorted points, one sweep per radius, in lockstep.

    A sweep starts past its leading one-point balls: x_i's ball holds x_i
    alone if pred(fl(x_{i+1} - x_i)) >= 2*epsilon, sound for the exact test
    as that lies strictly below the gap.  Each step moves every unfinished
    sweep up to s = fl(a + 2*epsilon), the float nearest a + 2*epsilon, with
    one searchsorted, and back off a point equal to s where s rounded up.  At
    most _SCALAR_TAIL live sweeps, or _TINY_BATCH radii times points, sweep
    alone in ``_sweep_from`` with the same exact test.  Where 2*epsilon
    overflows, the halved set counts at half the radius: halving rounds only
    subnormals, which no test at such a radius can tie.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.size * pts.size <= _TINY_BATCH and max(radii := eps.tolist(), default=0.0) < 2.0**1023:
        xs = pts.tolist()
        return np.array([_sweep_from(xs, 0, 2.0 * e) for e in radii], dtype=np.int64)
    wide = (eps >= 2.0**1023) & (eps < math.inf)
    if np.count_nonzero(wide):
        counts = _sweep_counts(pts, np.where(wide, math.inf, eps))  # inf counts 1
        counts[wide] = _sweep_counts(0.5 * pts, 0.5 * eps[wide])
        return counts
    two_eps = 2.0 * eps
    with np.errstate(over="ignore"):  # a gap or a reach may be inf
        gap = np.nextafter(pts[1:] - pts[:-1], -np.inf)
        pos = np.searchsorted(-np.minimum.accumulate(gap), -two_eps, side="right")
        counts = pos.astype(np.int64) + (pos == gap.size)
        live = np.flatnonzero(pos < gap.size)
        pos, below = pos[live], np.concatenate(([math.nan], pts))  # below[p] = pts[p - 1]
        while live.size > _SCALAR_TAIL:
            counts[live] += 1
            anchor, te = pts[pos], two_eps[live]
            pos = np.searchsorted(pts, reach := anchor + te, side="right")
            if np.count_nonzero(tie := below[pos] == reach):
                for k in np.flatnonzero(tie & (reach != anchor)).tolist():
                    pos[k] -= _sum_error(anchor[k].item(), te[k].item(), reach[k].item()) < 0.0
            more = pos < pts.size
            live, pos = live[more], pos[more]
    if live.size:
        xs = pts.tolist()
        for j, i, te in zip(live.tolist(), pos.tolist(), two_eps[live].tolist()):
            counts[j] += _sweep_from(xs, i, te)
    return counts


def _sum_error(a: float, b: float, s: float) -> float:
    """a + b - s exactly for s = fl(a + b) finite: Dekker's Fast2Sum with
    the larger operand first, where Knuth's TwoSum could overflow."""
    return b - (s - a) if abs(a) >= abs(b) else a - (s - b)


def _sweep_from(xs: list, i: int, two_eps: float) -> int:
    """Balls the exact greedy sweep of sorted floats xs needs from index i on."""
    count, n = 0, len(xs)
    while i < n:
        count += 1
        a = xs[i]
        i = bisect_right(xs, reach := a + two_eps, i)
        if xs[i - 1] == reach != a and _sum_error(a, two_eps, reach) < 0.0:
            i -= 1
    return count


def _end_below(x: float, y: float) -> float:
    """The last float below (y - x)/2 for floats x < y, or 0.0: d/2 for d =
    fl(y - x) rounded down, else pred(d/2); pred(d)/2 where d/2 rounds (d is
    subnormal, so exact); on the exact halves where y - x overflows."""
    d = y - x
    if d == math.inf:
        x, y = 0.5 * x, 0.5 * y
        half = d = y - x
    elif (half := 0.5 * d) * 2.0 != d:
        return 0.5 * math.nextafter(d, 0.0)
    return half if _sum_error(y, -x, d) > 0.0 else math.nextafter(half, 0.0)


def plateau_ends(s: SetDescriptor) -> np.ndarray:
    """The last float of every plateau of a finite set's count, largest first:
    the positive ``_end_below`` of its pairs, below the half gaps where the
    count changes.  Their scan sees every count at its largest radius but 1."""
    xs = _sorted_line(s).tolist()
    ends = {_end_below(x, y) for i, x in enumerate(xs) for y in xs[i + 1:]}
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
    return lambda e: (_sweep_from(xs, 0, 2.0 * float(e)) if e < 2.0**1023  # else 2*e overflows
                      else int(covering_counts(s, [e])[0]))


def covering_counts(s: SetDescriptor, epsilons) -> np.ndarray:
    """Greedy counts (their tests are in the module docstring) of a
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
        _sorted_line(s)  # refuses a cloud before its grid is sized
        d = diameter(s)
        hi = d if d > 10 * DEFAULT_EPS_MIN else 1.0
    return log_grid(DEFAULT_EPS_MIN, hi)
