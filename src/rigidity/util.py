"""Shared numeric plumbing: log grids, slope fits, atomic writes."""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

DEFAULT_EPS_MIN = 1e-6
DEFAULT_POINTS_PER_DECADE = 200


def log_grid(eps_min: float, eps_max: float,
             points_per_decade: int = DEFAULT_POINTS_PER_DECADE) -> np.ndarray:
    """Strictly decreasing log-spaced grid from eps_max down to eps_min."""
    if not (eps_min > 0 and eps_max > 0 and math.isfinite(eps_min) and math.isfinite(eps_max)):
        raise ValueError("grid endpoints must be positive finite numbers")
    if not eps_min < eps_max:
        raise ValueError("grid needs eps_min < eps_max")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be at least 1")
    decades = math.log10(eps_max / eps_min)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(eps_max, eps_min, count)


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("slope fit needs at least two samples")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("slope fit needs positive samples")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@contextmanager
def atomic_write(path):
    """Write to a temp file in the destination directory, rename on success.

    An error mid-write leaves no partial file at the destination.
    """
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=path.name + ".", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
