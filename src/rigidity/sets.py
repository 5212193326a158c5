"""Descriptors for the value sets whose covering geometry drives all bounds.

Three families are supported, one shape each: explicit finite sets of
scalars, power-law sequences ``1, 2**alpha, 3**alpha, ...`` accumulating
at zero, and clouds of vectors produced by near-critical extraction.
Descriptors are immutable; every analysis routine takes them by value.
"""

from __future__ import annotations

import json
import numbers
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .util import finite_float, frozen_array, sorted_distinct

# largest descriptor file read, about five million values at 25 characters each
MAX_DESCRIPTOR_BYTES = 2**27

__all__ = [
    "DescriptorError",
    "FinitePoints",
    "PowerSequence",
    "SampledCloud",
    "SetDescriptor",
    "diameter",
    "descriptor_to_json_dict",
    "descriptor_from_json",
    "load_descriptor",
]


class DescriptorError(ValueError):
    """Raised for malformed or unloadable set descriptors."""


@dataclass(frozen=True, eq=False)
class FinitePoints:
    """Explicit finite set of scalars, sorted and deduplicated.

    Input is flat or one column; ``points`` has shape ``(k, 1)``.  Vectors
    belong in a ``SampledCloud``.  Deduplication uses exact float equality
    on purpose: covering counts are discontinuous in the points, and
    tolerance merging would silently move threshold radii.  Callers wanting
    fuzzy dedup must pre-process.
    """

    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim == 2 and arr.shape[1] == 1:
            arr = arr[:, 0]
        if arr.ndim > 1:
            raise DescriptorError("finite points must be scalars; vectors belong in a cloud")
        if arr.ndim == 0 or arr.size == 0:
            raise DescriptorError("finite set needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise DescriptorError("points must be finite numbers")
        object.__setattr__(self, "points", frozen_array(sorted_distinct(arr)[:, None]))

    @cached_property
    def values(self) -> np.ndarray:
        """The sorted distinct values, flat: a read-only view made once."""
        return self.points[:, 0]


@dataclass(frozen=True)
class PowerSequence:
    """The decreasing sequence ``1, 2**alpha, ...`` for negative alpha.

    The descriptor stands for the full infinite sequence with accumulation
    point 0, which the covering routines count exactly.
    """

    alpha: float

    def __post_init__(self):
        alpha = finite_float(self.alpha)
        if alpha is None or alpha >= 0:
            raise DescriptorError("alpha must be a finite negative number")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True, eq=False)
class SampledCloud:
    """Cloud of k vectors, shape ``(k, m)`` with m >= 2, kept in the order given.
    Scalars belong in a ``FinitePoints``."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise DescriptorError("cloud points must be vectors; scalars belong in FinitePoints")
        if arr.shape[0] == 0:
            raise DescriptorError("cloud needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise DescriptorError("points must be finite numbers")
        object.__setattr__(self, "points", frozen_array(arr))


SetDescriptor = FinitePoints | PowerSequence | SampledCloud


def diameter(s: FinitePoints) -> float:
    """Extent of a finite set, capped at the largest float past the float
    range (on Python floats, which overflow to inf without numpy's warning)."""
    return min(s.values[-1].item() - s.values[0].item(), sys.float_info.max)


def descriptor_to_json_dict(s: SetDescriptor) -> dict:
    """The descriptor as a JSON object for ``util.dump_json``.

    A cloud's points come back as its read-only (k, m) float64 array, which
    ``util.dump_json`` writes as the nested list ``json.dumps`` would give
    for ``points.tolist()``; finite points come back as lists.
    """
    if isinstance(s, FinitePoints):
        return {"type": "finite", "points": s.values.tolist()}
    if isinstance(s, PowerSequence):
        return {"type": "power", "alpha": s.alpha}
    if isinstance(s, SampledCloud):
        return {"type": "cloud", "points": s.points}
    raise TypeError(f"unsupported descriptor {type(s).__name__}")


def _real(value) -> bool:
    """Whether ``value`` is a real number or an array or nested lists of
    them: not a bool or a string, although numpy reads either as a number."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):  # JSON's floats and ints are checked at C speed
        return {float, int}.issuperset(map(type, value)) or all(map(_real, value))
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def descriptor_from_json(obj) -> SetDescriptor:
    if not isinstance(obj, dict):
        raise DescriptorError("descriptor must be a JSON object")
    kind = obj.get("type")
    try:
        if kind == "power":
            return PowerSequence(obj["alpha"])
        if kind in ("finite", "cloud"):
            pts = np.asarray(obj["points"], dtype=float)
            if not _real(obj["points"]):
                raise DescriptorError("points must be real numbers")
            # a finite set, or a cloud whose points are scalars (flat or one column)
            if kind == "finite" or pts.ndim < 2 or pts.shape[1] == 1:
                return FinitePoints(pts)
            return SampledCloud(pts)
    except KeyError as exc:
        raise DescriptorError(f"descriptor is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DescriptorError):
            raise
        raise DescriptorError(f"descriptor has malformed values: {exc}") from exc
    raise DescriptorError(f"unknown descriptor type {kind!r}")


def load_descriptor(source: str | Path) -> SetDescriptor:
    """Load a descriptor from a JSON file path or an inline JSON string."""
    text = str(source)
    if not text.lstrip().startswith("{"):
        size = os.stat(source).st_size
        if size > MAX_DESCRIPTOR_BYTES:
            raise ValueError(
                f"descriptor file has {size} bytes, over the budget of {MAX_DESCRIPTOR_BYTES}"
            )
        text = Path(source).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"descriptor is not valid JSON: {exc}") from exc
    return descriptor_from_json(obj)
