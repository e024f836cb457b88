"""Coverage-layout geometry: regular cell shapes, their exact constants, and a
Monte Carlo re-derivation of the mean site-to-point distance.

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
import operator
import os
from enum import Enum

from .errors import NoTessellationError, OutOfRangeError

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

_MC_CHUNK = 1 << 20  # candidate points drawn per rejection round
# Candidates per block, whatever the worker count, so the bits do not depend on
# it; a worker's rows (0.81 MiB) stay in cache. A block holds the GIL for 25-55 us
# of its 0.3-0.75 ms (one worker), so more than 8 workers would mostly queue on it.
_MC_BLOCK = 1 << 15
_MC_MAX_WORKERS = 8


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count(name: str, value) -> int:
    """``value`` as an int; a numpy integer passes, a float (NaN too) is refused
    by name."""
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRangeError(f"{name} must be an integer, got {value}") from None


def estimate_alpha_monte_carlo(
    kind: LayoutKind, n_samples: int, seed: int
) -> tuple[float, float]:
    """Estimate alpha by uniform sampling of the unit cell.

    Draws exactly ``n_samples`` accepted points (rejection sampling from the
    tight bounding box; for the highway, directly uniform on [-1, 1]), and
    returns the sample mean distance to the origin together with its standard
    error. Uses numpy's seeded PCG64 generator and reduces without BLAS, so a
    fixed seed reproduces the estimate bit-for-bit on a given platform, for
    any number of CPUs and any BLAS thread count.

    A chunk of m <= ``_MC_CHUNK`` candidates takes m x draws, then m y draws
    (the highway draws x only). At most ``_MC_MAX_WORKERS`` threads take its
    ``_MC_BLOCK``-candidate blocks one by one from a shared iterator, draw
    each into rows they reuse from generators of their own advanced to its
    offsets, and return its count, mean and centred sum of squares of the
    accepted distances. The calling thread merges them in block order (Chan,
    Golub & LeVeque, 1979), so nothing is held at chunk size, while the
    workers go on to the next chunk if its size is already sure. It draws
    again the one block that crosses ``n_samples`` (no chunk is queued behind
    it) and takes only the points still owed.
    """
    from concurrent.futures import ThreadPoolExecutor
    from itertools import chain

    import numpy as np
    kind = LayoutKind(kind)
    if _count("n_samples", n_samples) < 1000:
        raise OutOfRangeError(f"n_samples must be >= 1000, got {n_samples}")
    if _count("seed", seed) < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {seed}")
    highway = kind is LayoutKind.HIGHWAY
    (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[kind]
    rng = np.random.default_rng(seed)
    workers = min(_usable_cpus(), _MC_MAX_WORKERS)

    # Per-thread scratch, taken while a thread draws and put back: x and y
    # generators (set to each chunk's state), then x, y, mask and hexagon rows.
    scratch = [(np.random.Generator(np.random.PCG64()), np.random.Generator(np.random.PCG64()),
                *(np.empty(_MC_BLOCK, t) for t in (float, float, bool, float, bool)))
               for _ in range(workers)]

    def draw(gen, out: np.ndarray, lo: float, hi: float) -> np.ndarray:
        # gen.uniform(lo, hi) in place: numpy computes it as lo + (hi - lo) * u.
        return np.add(np.multiply(gen.random(out=out), hi - lo, out=out), lo, out=out)

    def draw_blocks(state: dict, m: int, starts, limit: int | None = None) -> list:
        """(start, (count, mean, centred sum of squares)) of the accepted
        distances of each block whose start it takes from ``starts``, an
        iterator the workers share; of only the first ``limit`` if given."""
        x_rng, y_rng, *rows = scratch_set = scratch.pop()
        x_rng.bit_generator.state = y_rng.bit_generator.state = state
        y_rng.bit_generator.advance(m)
        at = 0  # where both generators stand, in candidates from the chunk's start
        moments = []
        for start in starts:
            if start != at:  # another thread took the blocks in between
                x_rng.bit_generator.advance(start - at)
                y_rng.bit_generator.advance(start - at)
            at = start + _MC_BLOCK  # a short last block is followed by none
            x, y, keep, t, flag = (a[:min(_MC_BLOCK, m - start)] for a in rows)
            d = draw(x_rng, x, x_lo, x_hi)
            if highway:
                np.abs(x, out=x)
            else:
                draw(y_rng, y, y_lo, y_hi)
                if kind is LayoutKind.HEXAGONAL:
                    _hexagon_mask(x, y, t, flag, keep)
                x *= x
                y *= y
                x += y
                if kind is LayoutKind.CIRCLE:
                    np.less_equal(x, 1.0, out=keep)  # contains_mask's own test
                if kind is not LayoutKind.SQUARE:  # the square fills its box
                    # By halves: take's index stays <= 128 KiB (np.compress also buffers out).
                    n = 0
                    for part in (slice(None, _MC_BLOCK // 2), slice(_MC_BLOCK // 2, None)):
                        k = int(np.count_nonzero(keep[part]))
                        np.take(x[part], np.flatnonzero(keep[part]), out=y[n:n + k], mode="clip")
                        n += k
                    d = y[:n]
                np.sqrt(d, out=d)
            d = d[:limit]
            mean = float(d.mean()) if d.size else 0.0  # an empty block merges as a no-op
            d -= mean
            # einsum's own loop, not BLAS: np.dot's bits vary with the BLAS thread count.
            moments.append((start, (d.size, mean, float(np.einsum("i,i->", d, d)))))
        scratch.append(scratch_set)
        return moments

    def chunk_size(owed: int) -> int:
        # The highway accepts every candidate; the others draw 2x what is owed, >= 4096.
        return min(_MC_CHUNK, owed if highway else max(2 * owed, 4096))

    def submit(m: int) -> tuple:
        """Start the workers on the next chunk, of m candidates. Each takes the next
        block when it is free, so a thread the OS holds back holds up one block."""
        state = rng.bit_generator.state
        rng.bit_generator.advance(m if highway else 2 * m)
        shared = iter(range(0, m, _MC_BLOCK))
        return state, m, [pool.submit(draw_blocks, state, m, shared) for _ in range(workers)]

    count, mean, m2 = 0, 0.0, 0.0
    with ThreadPoolExecutor(workers) as pool:
        ahead = None
        while count < n_samples:
            state, m, runs = ahead or submit(chunk_size(n_samples - count))
            # Queue the next chunk now, so no worker waits for the merge, if its size is
            # sure: samples are owed even if all m are accepted, and the highway accepts
            # all or at least half a chunk is owed.
            owed = n_samples - count - m
            ahead = submit(chunk_size(owed)) if owed > 0 and (highway or 2 * owed >= _MC_CHUNK) else None
            blocks = dict(chain.from_iterable(run.result() for run in runs))
            for start in range(0, m, _MC_BLOCK):
                n, block_mean, block_m2 = blocks[start]
                if count + n > n_samples:  # the block that crosses n_samples, drawn again
                    [(_, (n, block_mean, block_m2))] = draw_blocks(state, m, [start], n_samples - count)
                total = count + n
                delta = block_mean - mean
                mean += delta * n / total
                m2 += block_m2 + delta * delta * count * n / total
                count = total
                if count == n_samples:
                    break

    return mean, math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)
