"""Test-only reference code: an exhaustive covering oracle, a grid CSV
writer and a full-grid formulation of the semi-axis field.

Nothing in the package runs these; tests use them to check the exact
covering counters, to write grid samples that ``rigidity extract --grid``
and ``SampledMap.from_grid_csv`` read back, and to check that
``critical.semi_axis_field`` gives the bits of the straightforward
full-grid computation.
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
