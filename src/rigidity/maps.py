"""Built-in demo maps for extraction runs and CLI examples.

Every map takes an array of shape (k, n) and returns (k, m) values
(flat (k,) for scalar targets).  The registry exists so the CLI and the
test-suite can name concrete maps without shipping pickled callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class UnknownMapError(ValueError):
    """Requested map name is not in the registry."""


# degree-10 polynomial with five well-separated interior critical points;
# coefficients are in increasing powers and frozen so runs are reproducible
POLY10_COEFFS = (
    0.0, -0.019278, 0.093998, 0.038232, -0.168079, 0.031719,
    -0.201175, -0.032357, 0.166875, -0.066667, 0.2,
)


def _poly10(p):
    from numpy.polynomial import polynomial as npoly  # here: ~3 ms of every CLI start
    return npoly.polyval(p[:, 0], np.asarray(POLY10_COEFFS))


@dataclass(frozen=True)
class MapEntry:
    func: Callable
    n: int
    m: int
    description: str


_REGISTRY = {
    "parabola1d": MapEntry(
        lambda p: p[:, 0] ** 2, 1, 1, "x**2: one critical value at 0"
    ),
    "linear1d": MapEntry(
        lambda p: p[:, 0], 1, 1, "x: no critical points at all"
    ),
    "const1d": MapEntry(
        lambda p: np.full(p.shape[0], 0.5), 1, 1,
        "constant 0.5: every point is critical",
    ),
    "cubic1d": MapEntry(
        lambda p: p[:, 0] ** 3 - p[:, 0], 1, 1,
        "x**3 - x: two critical values",
    ),
    "poly10": MapEntry(
        _poly10, 1, 1,
        "fixed degree-10 polynomial with five interior critical values",
    ),
    "bowl2d": MapEntry(
        lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, 2, 1,
        "x**2 + y**2: single critical point at the origin",
    ),
    "saddle2d": MapEntry(
        lambda p: p[:, 0] ** 2 - p[:, 1] ** 2, 2, 1,
        "x**2 - y**2: saddle at the origin",
    ),
    "tilt2d": MapEntry(
        lambda p: 0.3 * p[:, 0] + 0.7 * p[:, 1], 2, 1,
        "0.3x + 0.7y: constant nonzero gradient",
    ),
    "stretch2d": MapEntry(
        lambda p: np.stack([2.0 * p[:, 0], 0.5 * p[:, 1]], axis=-1), 2, 2,
        "(2x, y/2): constant anisotropic differential",
    ),
}


def builtin_map(name: str) -> MapEntry:
    """Look up a registered map by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownMapError(f"unknown map {name!r}; known maps: {known}") from None


def available() -> list:
    """Sorted names of all registered maps."""
    return sorted(_REGISTRY)
