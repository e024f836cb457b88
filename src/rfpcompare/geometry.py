"""Coverage-layout geometry: regular cell shapes, their exact constants, and
their membership tests.

All cells are normalized to a maximum (center-to-vertex) distance of 1 and are
centered on the site. Conventions, fixed once so every module agrees:

- highway: the 1-D segment [-1, 1] embedded in the plane at ordinate 0;
- square: axis-aligned with vertices on the diagonals at distance 1,
  i.e. half-side 1/sqrt(2);
- hexagonal: flat-topped regular hexagon with a vertex at (1, 0)
  (edge midpoints at angles 30 + k*60 degrees);
- circle: the unit disc, used only as the upper-bound reference for alpha.
"""

from __future__ import annotations

import math
import os
from enum import Enum

from .errors import NoTessellationError

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


class LayoutKind(str, Enum):
    """The supported coverage-cell shapes and their exact constants.

    ``alpha`` is defined for every kind; ``zeta`` and ``n_neighbors`` raise
    :class:`NoTessellationError` for the circle, which does not tile.
    """

    HIGHWAY = "highway"
    SQUARE = "square"
    HEXAGONAL = "hexagonal"
    CIRCLE = "circle"

    @property
    def alpha(self) -> float:
        """Mean distance from the site to a uniform point of the unit cell.

        Evaluated from the exact closed forms, never from rounded decimals.
        """
        return _ALPHA[self]

    @property
    def zeta(self) -> float:
        """Overlap parameter: half the inter-site distance in units of d_max.

        Set so adjacent cells leave no coverage hole (the cell inradius).
        """
        return self._tiling("zeta")[0]

    @property
    def n_neighbors(self) -> int:
        """Number of adjacent sites charged in the neighbor upper bound."""
        return self._tiling("neighbor count")[1]

    @property
    def tessellates(self) -> bool:
        return self in _TILING

    def _tiling(self, name: str) -> tuple[float, int]:
        if not self.tessellates:
            raise NoTessellationError(
                f"the {self.value} layout does not tessellate: {name} is undefined"
            )
        return _TILING[self]


_ALPHA = {
    LayoutKind.HIGHWAY: 0.5,
    LayoutKind.SQUARE: _SQRT2 / 6.0 * (_SQRT2 + math.log(1.0 + _SQRT2)),
    LayoutKind.HEXAGONAL: 1.0 / 3.0 + math.log(3.0) / 4.0,
    LayoutKind.CIRCLE: 2.0 / 3.0,
}

#: kind -> (zeta, neighbor count); the circle is a reference shape only.
_TILING = {
    LayoutKind.HIGHWAY: (1.0, 2),
    LayoutKind.SQUARE: (1.0 / _SQRT2, 8),
    LayoutKind.HEXAGONAL: (_SQRT3 / 2.0, 6),
}

#: Kinds that tile the plane.
TESSELLATING_KINDS = tuple(_TILING)


def contains_mask(kind: LayoutKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized membership test for the unit cell (boundary included)."""
    import numpy as np
    kind = LayoutKind(kind)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if kind is LayoutKind.HIGHWAY:
        # 1-D segment: points off the axis are outside by definition.
        return (y == 0.0) & (np.abs(x) <= 1.0)
    if kind is LayoutKind.SQUARE:
        half = 1.0 / _SQRT2
        return (np.abs(x) <= half) & (np.abs(y) <= half)
    if kind is LayoutKind.HEXAGONAL:
        x, y = (a.copy() for a in np.broadcast_arrays(x, y))  # rows the test may overwrite
        flag, out = np.empty(x.shape, bool), np.empty(x.shape, bool)
        return _hexagon_mask(x, y, np.empty_like(x), flag, out)
    return x * x + y * y <= 1.0  # circle


def _hexagon_mask(x: np.ndarray, y: np.ndarray, t: np.ndarray, flag: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """contains_mask's hexagon test into ``out`` on scratch ``t`` and ``flag``;
    leaves |x| and |y| in ``x`` and ``y``. Flat-topped, vertex at (1, 0): three
    edge pairs, |y| <= sqrt(3)/2 and |sqrt(3) x +- y| <= sqrt(3). Rounding is
    odd-symmetric and monotone, so the larger slanted sum rounds to exactly
    sqrt(3)|x| + |y|: one test covers both slanted pairs."""
    import numpy as np
    np.abs(x, out=x)
    np.abs(y, out=y)
    np.multiply(x, _SQRT3, out=t)
    t += y
    np.less_equal(t, _SQRT3, out=out)
    np.less_equal(y, _SQRT3 / 2.0, out=flag)
    return np.logical_and(out, flag, out=out)


def cell_contains(kind: LayoutKind, point: tuple[float, float]) -> bool:
    """True iff ``point`` (in units of d_max, site at the origin) lies in the cell."""
    x, y = point
    return bool(contains_mask(kind, float(x), float(y)))


#: Tight bounding box ((x_lo, x_hi), (y_lo, y_hi)) of each unit cell.
_BOUNDING_BOX = {
    LayoutKind.HIGHWAY: ((-1.0, 1.0), (0.0, 0.0)),
    LayoutKind.SQUARE: ((-1.0 / _SQRT2, 1.0 / _SQRT2), (-1.0 / _SQRT2, 1.0 / _SQRT2)),
    LayoutKind.HEXAGONAL: ((-1.0, 1.0), (-_SQRT3 / 2.0, _SQRT3 / 2.0)),
    LayoutKind.CIRCLE: ((-1.0, 1.0), (-1.0, 1.0)),
}


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
