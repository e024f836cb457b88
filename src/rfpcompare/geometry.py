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

import copy
import math
import os
from enum import Enum
from functools import partial

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
        # Flat-topped hexagon, vertex at (1, 0): three pairs of parallel edges,
        # |y| <= sqrt(3)/2 and |sqrt(3) x +- y| <= sqrt(3). Rounding is odd-
        # symmetric and monotone, so the larger of the two slanted sums rounds
        # to exactly sqrt(3)|x| + |y|: one test covers both slanted pairs.
        ay = np.abs(y)
        return (ay <= _SQRT3 / 2.0) & (_SQRT3 * np.abs(x) + ay <= _SQRT3)
    return x * x + y * y <= 1.0  # circle


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
_MC_BLOCK = 1 << 16  # candidates in flight over all workers, so they stay in cache
# Smallest block a worker draws, which caps the workers at 8. A block's numpy
# calls cost ~10-13 us of interpreter time under the GIL: on one worker, 2**13-
# candidate blocks take up to 14% longer than 2**16 ones, 2**8 ones 3.9-5
# times as long, so smaller blocks would leave more workers queueing on the GIL.
_MC_MIN_BLOCK = 1 << 13


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    Points are drawn and reduced one chunk of at most ``_MC_CHUNK`` candidates
    at a time, so memory does not grow with ``n_samples``. A chunk's m x draws
    precede its m y draws in the stream (the highway draws x only). The chunk
    is cut into blocks, and a thread pool with one worker per usable CPU (at
    most ``_MC_BLOCK // _MC_MIN_BLOCK``) draws them, ``_MC_BLOCK`` candidates
    in flight over all workers. Each worker takes a contiguous run of blocks,
    draws it into x and y rows it reuses from copies of the generator
    advanced to the run's x and y offsets, and packs the accepted distances,
    in block order, into one chunk buffer from the run's first candidate
    slot; the highway and the square accept every candidate and skip the
    mask. The runs then slide down in order, so the buffer holds the same
    values whatever the worker count. Each chunk's count, mean and centred
    sum of squares are merged into running totals with the pairwise update
    of Chan, Golub & LeVeque (1979).
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np
    kind = LayoutKind(kind)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    highway = kind is LayoutKind.HIGHWAY
    (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[kind]
    rng = np.random.default_rng(seed)
    workers = min(_usable_cpus(), _MC_BLOCK // _MC_MIN_BLOCK)
    block = _MC_BLOCK // workers
    buf = np.empty(_chunk_candidates(highway, n_samples))

    # Per-worker scratch, taken for a run and put back: a block's x, y and mask.
    scratch = [(np.empty(block), np.empty(block), np.empty(block, bool)) for _ in range(workers)]

    def draw(gen, out: np.ndarray, lo: float, hi: float) -> None:
        # gen.uniform(lo, hi) in place: numpy computes it as lo + (hi - lo) * u.
        gen.random(out=out)
        out *= hi - lo
        out += lo

    def draw_run(chunk_rng, m: int, starts: range) -> int:
        """Accepted distances of the blocks at ``starts``, in block order,
        into ``buf`` from the run's first candidate slot; returns their count."""
        x_rng, y_rng = copy.deepcopy(chunk_rng), copy.deepcopy(chunk_rng)
        x_rng.bit_generator.advance(starts[0])
        y_rng.bit_generator.advance(m + starts[0])
        scratch_set = scratch.pop()
        n = starts[0]
        for start in starts:
            size = min(block, m - start)
            slot = buf[n:n + size]  # where every candidate is accepted
            if highway:
                draw(x_rng, slot, x_lo, x_hi)
                np.abs(slot, out=slot)
            else:
                x, y, keep = (a[:size] for a in scratch_set)
                draw(x_rng, x, x_lo, x_hi)
                draw(y_rng, y, y_lo, y_hi)
                if kind is LayoutKind.HEXAGONAL:
                    keep = contains_mask(kind, x, y)
                x *= x
                y *= y
                if kind is LayoutKind.SQUARE:  # the square fills its box
                    np.add(x, y, out=slot)
                else:
                    x += y
                    if kind is LayoutKind.CIRCLE:
                        np.less_equal(x, 1.0, out=keep)  # contains_mask's own test
                    slot = buf[n:n + int(np.count_nonzero(keep))]
                    np.compress(keep, x, out=slot)
                np.sqrt(slot, out=slot)
            n += slot.size
        scratch.append(scratch_set)
        return n - starts[0]

    count, mean, m2 = 0, 0.0, 0.0
    with ThreadPoolExecutor(workers) as pool:
        while count < n_samples:
            remaining = n_samples - count
            m = _chunk_candidates(highway, remaining)
            starts = range(0, m, block)
            per_run = -(-len(starts) // workers)
            runs = [starts[i:i + per_run] for i in range(0, len(starts), per_run)]
            n = 0  # the runs' accepted distances slide down to one prefix of buf
            for run, accepted in zip(runs, pool.map(partial(draw_run, rng, m), runs)):
                if n != run[0]:
                    buf[n:n + accepted] = buf[run[0]:run[0] + accepted]
                n += accepted
            rng.bit_generator.advance(m if highway else 2 * m)
            d = buf[:min(n, remaining)]
            n_chunk = d.size
            mean_chunk = float(d.mean())
            d -= mean_chunk
            total = count + n_chunk
            delta = mean_chunk - mean
            mean += delta * n_chunk / total
            # einsum's own loop, not BLAS: np.dot's bits vary with the BLAS thread count.
            m2 += float(np.einsum("i,i->", d, d)) + delta * delta * count * n_chunk / total
            count = total

    return mean, math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)


def _chunk_candidates(highway: bool, remaining: int) -> int:
    """Candidates drawn in a chunk when ``remaining`` samples are still owed:
    the highway accepts every one, the other cells draw twice as many, and at
    least 4096."""
    return min(_MC_CHUNK, remaining if highway else max(2 * remaining, 4096))
