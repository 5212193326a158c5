"""Shared numeric plumbing: log grids, slope fits, atomic writes, JSON output."""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

DEFAULT_EPS_MIN = 1e-6
DEFAULT_POINTS_PER_DECADE = 200
# most points a log grid may hold, 8 MB of radii
GRID_POINT_BUDGET = 10**6

# rows of a float list or table formatted per block by ``dump_json``
_ROW_BLOCK = 16384


def frozen_array(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only C-contiguous array, not copied when it
    already is one of that dtype."""
    arr = np.asarray(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def sorted_distinct(values) -> np.ndarray:
    """``np.unique(values)``: the sorted distinct values, flat.

    The values are sorted and kept where they differ from their left
    neighbour, the bits ``np.unique`` gives without its argsort.  Ties of
    different bits go to ``np.unique`` itself.  Asking it for the inverse
    index keeps numpy from importing ``numpy.ma``, which a bare
    ``np.unique`` does (15-20 ms per process).
    """
    out = np.sort(values, axis=None)
    if not _mixed_ties(values, out):
        keep = np.empty(out.shape, dtype=bool)
        keep[:1] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        return out[keep]
    return np.unique(values, return_inverse=True)[0]


def _mixed_ties(values, out: np.ndarray) -> bool:
    """Whether ``values`` (sorted: ``out``) hold a NaN, or both -0.0 and 0.0:
    ties whose kept bits follow ``np.unique``'s argsort, not a plain sort.
    Zero signs are read from ``values``; numpy's SIMD sort may unify them."""
    if out.size and out[-1] != out[-1]:
        return True
    # mixed zero signs need two zeros, and a positive first value leaves none
    if not out.size or out[0] > 0 or out.searchsorted(0, "right") - out.searchsorted(0) < 2:
        return False
    flat = np.ravel(values)
    signs = np.signbit(flat[flat == 0])
    return bool(signs.any()) and not signs.all()


def check_grid(eps_grid) -> np.ndarray:
    """The radii as a float array; raise unless they are non-empty, 1-d and positive."""
    grid = np.asarray(eps_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(grid > 0):
        raise ValueError("epsilon grid must be a non-empty 1-d array of positive radii")
    return grid


def log_grid(eps_min: float, eps_max: float,
             points_per_decade: int = DEFAULT_POINTS_PER_DECADE) -> np.ndarray:
    """Strictly decreasing log-spaced grid from eps_max down to eps_min: the bits
    of ``np.geomspace(eps_max, eps_min, count)``, by its arithmetic minus its checks."""
    if not (eps_min > 0 and eps_max > 0 and math.isfinite(eps_min) and math.isfinite(eps_max)):
        raise ValueError("grid endpoints must be positive finite numbers")
    if not eps_min < eps_max:
        raise ValueError("grid needs eps_min < eps_max")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be at least 1")
    # checked first: a huge integer overflows the float product below
    if points_per_decade > GRID_POINT_BUDGET:
        raise ValueError(f"points_per_decade exceeds the grid budget of {GRID_POINT_BUDGET} points")
    ratio = eps_max / eps_min
    if math.isfinite(ratio):
        decades = math.log10(ratio)
    else:  # the ratio of a range wider than the floats overflows
        decades = math.log10(eps_max) - math.log10(eps_min)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    if count > GRID_POINT_BUDGET:
        raise ValueError(f"a grid of {count} points exceeds the budget of {GRID_POINT_BUDGET}")
    start, stop = np.log10(eps_max), np.log10(eps_min)
    with np.errstate(over="ignore"):  # inf at the largest float; both ends are pinned
        grid = 10.0 ** (np.arange(count, dtype=float) * ((stop - start) / (count - 1)) + start)
    grid[0], grid[-1] = eps_max, eps_min
    return grid


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
    """Write to a temp file beside the destination, rename on success.

    An error mid-write leaves no partial file at the destination; a failed
    create or rename raises an ``OSError`` naming ``path``, not the temp
    file.  As ``open(path, "w")`` does, a symlink is written through, a
    replaced file keeps its mode and a new one gets 0o666 less the umask; a
    device or a FIFO is written straight into, not replaced.
    """
    path = Path(path)
    target = Path(os.path.realpath(path))
    if target.exists() and not (target.is_file() or target.is_dir()):
        with _naming(path):
            handle = open(path, "w")
        with handle:
            yield handle
        return
    tmp = target.with_name(f"{target.name}.{os.urandom(6).hex()}.tmp")
    with _naming(path):  # 0o666 less the umask, applied by the kernel
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            if target.is_file():
                os.chmod(fd, target.stat().st_mode & 0o7777)
            yield handle
        with _naming(path):
            os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _naming(path: Path):
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def dump_json(obj, fh) -> None:
    """Write ``obj`` exactly as ``json.dump(obj, fh, indent=2, sort_keys=True)``.

    Lists of floats, tables of equal-length float rows and 2-d float64
    arrays (written as their ``tolist()``) go out in blocks of
    ``_ROW_BLOCK`` rows.  Each block's distinct values (by bit pattern,
    so -0.0 and 0.0 stay apart) are formatted by one call of the C encoder
    and written as one join of the cells and their separators.  Dicts with
    string keys recurse in sorted key order; the rest goes to ``json.dumps``.
    """
    _dump(obj, fh.write, "")


def _float_table(obj):
    """``(values, width)`` for a non-empty list of floats (width 0), for
    equal-length non-empty float lists (flattened row by row) or for a
    non-empty C-contiguous 2-d float64 array (as it is), else None."""
    if type(obj) is np.ndarray:
        if (obj.ndim == 2 and obj.size and obj.dtype == np.float64
                and obj.dtype.isnative and obj.flags.c_contiguous):
            return obj, obj.shape[1]
        return None
    if type(obj) is not list or not obj:
        return None
    kinds = set(map(type, obj))
    if kinds == {float}:
        return np.array(obj, dtype=float), 0
    if kinds != {list}:
        return None
    widths = set(map(len, obj))
    if len(widths) != 1 or 0 in widths:
        return None
    if set(map(type, chain.from_iterable(obj))) != {float}:
        return None
    width = widths.pop()
    return np.fromiter(chain.from_iterable(obj), float, len(obj) * width), width


def _dump(obj, write, pad: str) -> None:
    inner = pad + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        write("{")
        for i, key in enumerate(sorted(obj)):
            write((",\n" if i else "\n") + inner + json.dumps(key) + ": ")
            _dump(obj[key], write, inner)
        write("\n" + pad + "}")
        return
    table = _float_table(obj)
    if table is None:
        # encoded JSON holds no raw newline, so re-indenting is exact
        write(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad))
        return
    values, width = table
    opening = inner + ("[\n" + inner + "  " if width else "")
    close = "\n" + inner + "]" if width else ""
    # the text after a cell, by column: the row's next cell, or the next row
    seps = [",\n" + inner + "  "] * (width - 1) + [close + ",\n" + opening]
    bits = values.view(np.int64).reshape(len(obj), -1)
    write("[\n" + opening)
    for start in range(0, len(obj), _ROW_BLOCK):
        block = bits[start:start + _ROW_BLOCK]
        distinct, index = np.unique(block, return_inverse=True)
        tokens = json.dumps(distinct.view(float).tolist())[1:-1].split(", ")
        # each distinct value with each column's separator, picked per cell
        cells = np.array([t + sep for t in tokens for sep in seps], dtype=object)
        pick = index.reshape(block.shape) * len(seps) + np.arange(len(seps))
        text = "".join(cells[pick.ravel()].tolist())
        # the last row is followed by the table's end, not by another row
        write(text if start + _ROW_BLOCK < len(obj) else text[:-len(seps[-1])])
    write(close + "\n" + pad + "]")
