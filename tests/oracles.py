"""Test-only reference code: an exhaustive covering oracle and a grid CSV writer.

Nothing in the package runs these; tests use them to check the exact
covering counters and to write grid samples that ``rigidity extract --grid``
and ``SampledMap.from_grid_csv`` read back.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

BRUTE_FORCE_LIMIT = 12


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


def grid_csv_text(sm) -> str:
    """A sampled map as grid CSV: header x1,..,xn,f1,..,fm, one row per node
    in row-major axis order, every number written with ``repr``."""
    header = ",".join([f"x{i + 1}" for i in range(sm.n)] + [f"f{j + 1}" for j in range(sm.m)])
    coords = np.stack([g.ravel() for g in sm.coordinate_grids()], axis=-1)
    flat = sm.values.reshape(-1, sm.m)
    lines = [header]
    for row_c, row_v in zip(coords, flat):
        lines.append(",".join(repr(float(v)) for v in (*row_c, *row_v)))
    return "\n".join(lines) + "\n"
