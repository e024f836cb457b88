"""Brute-force lattice field simulator.

Places sites on an actual regular layout, evaluates the exact multi-source
received power on a pixel grid, and provides the independent checks used
against the closed forms: the neighbor upper bound and the empirical mean
serving distance.

Site lattices use the spacing 2 * zeta * d_max along the lattice directions,
so the central site's Voronoi cell is exactly the unit cell of the geometry
module scaled by d_max (hexagonal cells come out flat-topped with a vertex on
the positive x axis). The highway is sampled as a 1-D strip on the site line.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from functools import cache, partial

from ._record import record
from .errors import NoTessellationError, OutOfRangeError
from .geometry import _BOUNDING_BOX, _SQRT3, LayoutKind, _usable_cpus
from .propagation import Deployment, emitted_power, neighbor_charge, range_violations, refuse


@record
class Region:
    """Axis-aligned rectangle in meters; a zero-height region is a 1-D strip."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min <= self.x_max and self.y_min <= self.y_max):
            raise OutOfRangeError(f"degenerate region bounds: {self}")


@record(eq=False)
class SiteLattice:
    """Concrete site positions of a regular layout around a central site.

    ``sites`` is an (n, 2) array in meters with the central site first (index
    0, at the origin); ``ring_of[i]`` is the neighbor-ring index of site i.
    """

    kind: LayoutKind
    d_max: float
    sites: np.ndarray
    ring_of: np.ndarray

    @property
    def spacing(self) -> float:
        """Inter-site distance 2 * zeta * d_max."""
        return 2.0 * self.kind.zeta * self.d_max


def generate_sites(kind: LayoutKind, d_max: float, rings: int) -> SiteLattice:
    """Build the site lattice of a tessellating layout.

    Highway sites are collinear; square sites sit on a grid (first ring: the 8
    surrounding sites, the diagonal ones farther than the spacing); hexagonal
    cells are served by a triangular site lattice where every site has six
    equidistant neighbors.

    Sites are ordered by ring (the Chebyshev index for square, the axial
    distance for hexagonal), then by the angle ``atan2(y, x) % (2 pi)``. A
    ``d_max`` that puts any site outside the float range raises ``OutOfRangeError``.
    """
    import numpy as np
    kind = LayoutKind(kind)
    if not kind.tessellates:
        raise NoTessellationError("the circle layout has no site lattice")
    refuse(range_violations(fields=[("d_max", d_max), ("rings", rings)]))

    s = 2.0 * kind.zeta * d_max
    k = np.arange(-rings, rings + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is LayoutKind.HIGHWAY:
            x, y, ring = k * s, np.zeros(len(k)), np.abs(k)
        else:
            i, j = (axis.ravel() for axis in np.meshgrid(k, k, indexing="ij"))
            if kind is LayoutKind.SQUARE:
                x, y, ring = i * s, j * s, np.maximum(np.abs(i), np.abs(j))
            else:
                # Triangular lattice; basis at 30 and 90 degrees keeps the
                # central Voronoi cell flat-topped with a vertex at (d_max, 0).
                ring = (np.abs(i) + np.abs(j) + np.abs(i + j)) // 2
                keep = ring <= rings
                i, j, ring = i[keep], j[keep], ring[keep]
                x, y = i * (s * _SQRT3 / 2.0), i * (s / 2.0) + j * s
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise OutOfRangeError(
            f"d_max {d_max:.9g} m with {rings} rings puts {kind.value} sites past "
            f"the largest float, {sys.float_info.max:.6g} m"
        )
    order = np.lexsort((np.arctan2(y, x) % (2 * math.pi), ring))
    sites = np.stack((x, y), axis=1)[order]
    return SiteLattice(kind=kind, d_max=d_max, sites=sites, ring_of=ring[order])


def default_region(lattice: SiteLattice) -> Region:
    """Bounding box of the central cell expanded by 10 percent."""
    (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[lattice.kind]
    # Each bound times 1.1 first: 1.1 * d_max may overflow, and inf * 0.0 is NaN.
    return Region(*(v * 1.1 * lattice.d_max for v in (x_lo, x_hi, y_lo, y_hi)))


#: Largest grid that ``compute_field`` and ``empirical_alpha`` accept: four
#: times the 1,047,200 pixels of a 1 m hexagonal field. A field costs 33 bytes
#: per pixel in arrays; its CSV text and bound check take one band of
#: ``TILE_PIXELS`` pixels at a time (``field_bands``).
MAX_FIELD_PIXELS = 2**22

#: Pixels per tile of the field kernel, and per band of the CSV export and
#: the bound check. Each kernel worker sweeps its tiles through scratch that
#: is allocated once per sweep: ``SITE_BLOCK + 1`` tile-sized float buffers
#: (~460 kB), and for gamma = 3 ``SITE_BLOCK`` more (~390 kB). They stay in
#: the core's cache while every site is swept over them. The CSV export of a
#: band takes about 150 bytes of scratch per pixel (~1.2 MB), besides its
#: text: the formatter's words of the band's values and its own scratch.
TILE_PIXELS = 2**13

#: Sites per numpy call of the field kernel. A reduce adds one block of terms
#: to the running total, SITE_BLOCK + 1 <= 7 terms: numpy sums a contiguous
#: axis of 8 or more terms pairwise (a 1-pixel tile makes the site axis
#: contiguous), and the total must stay the sequential sum in site order.
SITE_BLOCK = 6

#: Relative slack of the serving search's candidate test.
_CANDIDATE_SLACK = 1e-9


def _tile_shape(nx: int) -> tuple[int, int]:
    """Rows and columns of a tile over a grid ``nx`` pixels wide.

    A tile spans whole rows, ``TILE_PIXELS // nx`` of them, unless one row
    exceeds the budget; then it is one row high and the columns are split too.
    """
    width = max(1, min(nx, TILE_PIXELS))
    return TILE_PIXELS // width, width


def _pixel_axes(region: Region, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates; pixels are resolution-sized, centers sampled.

    Grids above ``MAX_FIELD_PIXELS`` are refused from the axis lengths, before
    anything is allocated. A non-finite bound is refused by name.
    """
    import numpy as np
    refuse(range_violations(fields=[(name, getattr(region, name))
                                    for name in ("x_min", "x_max", "y_min", "y_max")]))
    strip = region.y_min == region.y_max
    nx_f = (region.x_max - region.x_min) / resolution + 1e-9
    ny_f = 1.0 if strip else (region.y_max - region.y_min) / resolution + 1e-9
    # Clamped before flooring: a subnormal resolution overflows to infinity,
    # and one axis longer than the budget is refused anyway.
    nx, ny = (math.floor(min(n, MAX_FIELD_PIXELS + 1)) for n in (nx_f, ny_f))
    if nx * ny > MAX_FIELD_PIXELS:
        raise OutOfRangeError(
            f"resolution {resolution:g} m needs about {nx_f * ny_f:.3g} pixels, over "
            f"the pixel budget MAX_FIELD_PIXELS = {MAX_FIELD_PIXELS}"
        )
    xs = region.x_min + (np.arange(nx) + 0.5) * resolution
    if strip:
        ys = np.array([region.y_min])
    else:
        ys = region.y_min + (np.arange(ny) + 0.5) * resolution
    return xs, ys


def _site_sweep(
    lattice: SiteLattice,
    xs: np.ndarray,
    ys: np.ndarray,
    gamma: float | None = None,
    scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Nearest site and, optionally, total power over the grid ``ys`` x ``xs``.

    Works on squared distances, tile by tile. Returns per pixel the nearest
    site id (a strict ``<`` in id order keeps the lowest id on ties), the
    squared distance to it, and, when ``gamma`` is given, the sum over all
    sites in site order of ``scale * d**-gamma``.

    The nearest site is searched for only among a tile's candidates: the
    sites whose squared distance to the tile's bounding box is at most
    (1 + 1e-9) times the smallest squared distance of any site to the box's
    farthest corner. Both distances are sums of one row's and one column's
    squared offsets, and rounding is monotonic, so every site that is
    nearest to a pixel, or ties with the nearest, is a candidate.

    The total takes ``SITE_BLOCK`` sites per numpy call: a block of squared
    distances, its power terms, then one reduce that adds the block to the
    running total in site order. For gamma = 3 a term is
    ``scale / d2 / sqrt(d2)``: correctly rounded steps, where ``np.power`` is
    not, in an order whose intermediates leave the float range only where
    the term does (``d2 * sqrt(d2)`` overflows from d2 = 1.8e205 on). Any
    other gamma takes ``np.power(d2, -gamma/2) * scale``.

    The row tiles of a column strip run on a thread pool with one worker per
    usable CPU; each pixel belongs to one tile, so the result does not depend
    on the worker count.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np
    n_sites = len(lattice.sites)
    shape = (len(ys), len(xs))
    serving_id = np.zeros(shape, dtype=int)
    min_d2 = np.full(shape, np.inf)
    total = None if gamma is None else np.zeros(shape)
    sites_x = lattice.sites[:, :1]
    dy2 = (ys - lattice.sites[:, 1:]) ** 2  # (sites, ny)

    height, width = _tile_shape(len(xs))
    row_starts = range(0, len(ys), height)
    workers = max(1, min(_usable_cpus(), len(row_starts)))
    cube = gamma == 3.0
    blocks = [(i0, min(SITE_BLOCK, n_sites - i0)) for i0 in range(0, n_sites, SITE_BLOCK)]
    # One scratch set per worker, sized for the largest tile, taken for a tile
    # and put back: the block of terms behind the running total (one row
    # without gamma), the block's scale / d2 for gamma = 3, and the serving
    # search's mask.
    block_rows = 1 if gamma is None else SITE_BLOCK + 1
    tile_pixels = min(height, len(ys)) * width
    scratch = [
        (np.empty(block_rows * tile_pixels), np.empty(SITE_BLOCK * tile_pixels if cube else 0),
         np.empty(tile_pixels, dtype=bool))
        for _ in range(workers)
    ]
    # numpy's error state is thread-local, so workers re-enter the caller's.
    errstate = np.geterr()

    def sweep_tile(cols: slice, x_blocks: list[np.ndarray], x_near: np.ndarray,
                   x_far: np.ndarray, r0: int) -> None:
        rows = slice(r0, r0 + height)
        t_min, t_id = min_d2[rows, cols], serving_id[rows, cols]
        y2 = dy2[:, rows]
        y2_cols = y2[:, :, None]  # each row broadcast along the columns
        near = y2.min(axis=1) + x_near
        far = (y2.max(axis=1) + x_far).min()
        candidates = np.flatnonzero(near <= far * (1.0 + _CANDIDATE_SLACK)).tolist()
        scratch_set = scratch.pop()
        buf, quotient_buf, mask = scratch_set
        closer = mask[:t_min.size].reshape(t_min.shape)

        def serve(d2: np.ndarray, i: int) -> None:
            np.less(d2, t_min, out=closer)
            np.minimum(t_min, d2, out=t_min)
            np.putmask(t_id, closer, i)

        try:
            with np.errstate(**errstate):
                block = buf[:block_rows * t_min.size].reshape(block_rows, *t_min.shape)
                if total is None:
                    for i in candidates:
                        np.add(y2_cols[i], x_blocks[i // SITE_BLOCK][i % SITE_BLOCK],
                               out=block[0])
                        serve(block[0], i)
                    return
                t_total, running = total[rows, cols], block[0]
                # Empty unless gamma = 3.
                quotients = quotient_buf[:SITE_BLOCK * t_min.size].reshape(-1, *t_min.shape)
                # Views per block size (all but the last block are full), and
                # the candidates by the start of their block.
                views = {m: (block[1:m + 1], block[:m + 1], quotients[:m]) for _, m in blocks}
                served: dict[int, list[int]] = {}
                for i in candidates:
                    served.setdefault(i - i % SITE_BLOCK, []).append(i)
                for (i0, m), x_block in zip(blocks, x_blocks):
                    terms, summed, quotient = views[m]
                    np.copyto(terms, x_block)
                    terms += y2_cols[i0:i0 + m]
                    for i in served.get(i0, ()):
                        serve(terms[i - i0], i)
                    if cube:
                        np.divide(scale, terms, out=quotient)
                        np.sqrt(terms, out=terms)
                        np.divide(quotient, terms, out=terms)
                    else:
                        np.power(terms, -gamma / 2.0, out=terms)
                        terms *= scale
                    np.copyto(running, t_total)
                    np.add.reduce(summed, axis=0, out=t_total)
        finally:
            scratch.append(scratch_set)

    with ThreadPoolExecutor(workers) as pool:
        for c0 in range(0, len(xs), width):
            cols = slice(c0, c0 + width)
            dx2 = (xs[cols] - sites_x) ** 2  # (sites, tile width), shared read-only
            x_blocks = [dx2[i0:i0 + m, None, :] for i0, m in blocks]
            sweep = partial(sweep_tile, cols, x_blocks, dx2.min(axis=1), dx2.max(axis=1))
            for _ in pool.map(sweep, row_starts):
                pass  # iterating re-raises a worker's exception
    return serving_id, min_d2, total


@record(eq=False)
class RfpField:
    """Per-pixel received-power samples over a rectangular grid.

    Arrays are shaped (len(ys), len(xs)), row-major by y then x. Pixels whose
    center falls within half a resolution of any site are flagged excluded
    (the far-field model is meaningless at the antenna) and carry NaN power.
    """

    lattice: SiteLattice
    resolution: float
    xs: np.ndarray
    ys: np.ndarray
    serving_site: np.ndarray
    serving_distance: np.ndarray
    rfp_serving: np.ndarray
    rfp_total: np.ndarray
    excluded: np.ndarray

    @property
    def n_pixels(self) -> int:
        return int(self.serving_site.size)

    @property
    def n_excluded(self) -> int:
        import numpy as np
        return int(np.count_nonzero(self.excluded))

    @property
    def central_cell(self) -> np.ndarray:
        """Mask of non-excluded pixels served by the central site."""
        return _central(self.serving_site, self.excluded)


def _excluded(serving_distance: np.ndarray, resolution: float) -> np.ndarray:
    """Mask of the pixels within half a ``resolution`` of their serving site."""
    return serving_distance < resolution / 2.0


def _central(serving_site: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """Mask of the pixels served by site 0, less the ``excluded`` ones."""
    return (serving_site == 0) & ~excluded


def compute_field(
    lattice: SiteLattice,
    dep: Deployment,
    resolution: float,
    region: Region | None = None,
) -> RfpField:
    """Evaluate serving and total received power at every pixel center.

    The total sums the contribution of every lattice site; the serving site is
    the nearest one. Deterministic and independent of any pixel partitioning
    (pure per-pixel arithmetic). Grids over ``MAX_FIELD_PIXELS`` raise
    ``OutOfRangeError``; an empty region gives an empty field.
    """
    import numpy as np
    refuse(range_violations(fields=[("resolution", resolution)]))
    if region is None:
        region = default_region(lattice)
    xs, ys = _pixel_axes(region, resolution)

    scale = emitted_power(dep) / (dep.f**dep.eta * dep.c)
    with np.errstate(divide="ignore"):
        serving_id, min_d2, total = _site_sweep(lattice, xs, ys, dep.gamma, scale)
        # In place where the bits allow: no full-grid temporaries.
        serving_d = np.sqrt(min_d2, out=min_d2)
        excluded = _excluded(serving_d, resolution)
        serving_power = serving_d**-dep.gamma
        serving_power *= scale

    serving_power[excluded] = np.nan
    total[excluded] = np.nan
    return RfpField(
        lattice=lattice,
        resolution=resolution,
        xs=xs,
        ys=ys,
        serving_site=serving_id,
        serving_distance=serving_d,
        rfp_serving=serving_power,
        rfp_total=total,
        excluded=excluded,
    )


def field_bands(field: RfpField) -> Iterator[RfpField]:
    """The field in row-major bands of at most ``TILE_PIXELS`` pixels.

    A band is one kernel tile: whole rows, or a piece of one row where a row
    is wider than ``TILE_PIXELS``. Its arrays are views of the field's; its
    lattice and resolution are the whole field's. A field without pixels
    still gives a band (an empty one).
    """
    height, width = _tile_shape(len(field.xs))
    for r0 in range(0, max(1, len(field.ys)), height):
        rows = slice(r0, r0 + height)
        for c0 in range(0, max(1, len(field.xs)), width):
            cols = slice(c0, c0 + width)
            yield RfpField(
                lattice=field.lattice,
                resolution=field.resolution,
                xs=field.xs[cols],
                ys=field.ys[rows],
                serving_site=field.serving_site[rows, cols],
                serving_distance=field.serving_distance[rows, cols],
                rfp_serving=field.rfp_serving[rows, cols],
                rfp_total=field.rfp_total[rows, cols],
                excluded=field.excluded[rows, cols],
            )


#: Relative slack granted to the bound check (floating-point headroom).
UPPER_BOUND_SLACK = 1e-9


def verify_upper_bound(field: RfpField, dep: Deployment, layout: LayoutKind) -> np.ndarray:
    """Check the neighbor upper bound over the central cell; return the
    centres of the violating pixels as a (k, 2) array of (x, y) in meters.

    Every non-excluded central-cell pixel with serving distance at most
    zeta * d_max is tested against the bound, which charges the layout's
    ``layout.n_neighbors`` first-ring sites at zeta * d_max each
    (``neighbor_charge``). Up to 10 rings no violation was found for
    gamma >= 2; for gamma < 2 the farther rings break the bound (hexagonal,
    gamma = 1.8: from 6 rings on). The tests' negative control patches
    ``neighbor_charge`` to charge fewer neighbors.
    The serving term is the field's own ``rfp_serving``, so ``dep`` must be
    the deployment the field was computed for. The check runs band by band
    (``field_bands``); the centres come in row-major order.
    """
    import numpy as np
    if layout is not field.lattice.kind:
        raise ValueError(
            f"layout kind {layout.value} does not match the lattice "
            f"({field.lattice.kind.value})"
        )
    if dep.d_max != field.lattice.d_max:
        raise ValueError(
            f"deployment d_max {dep.d_max} does not match the lattice "
            f"({field.lattice.d_max})"
        )

    limit = layout.zeta * dep.d_max
    neighbor_term = dep.p_r_th * neighbor_charge(dep.gamma, layout, layout.n_neighbors)
    centres = []
    for band in field_bands(field):
        checked = band.central_cell & (band.serving_distance <= limit)
        bound = band.rfp_serving + neighbor_term
        iy, ix = np.nonzero(checked & (band.rfp_total > bound * (1.0 + UPPER_BOUND_SLACK)))
        centres.append(np.stack((band.xs[ix], band.ys[iy]), axis=1))
    return np.concatenate(centres)


def central_alpha(serving_site: np.ndarray, serving_distance: np.ndarray,
                  resolution: float, d_max: float) -> float:
    """The empirical alpha: the mean serving distance over d_max of the pixels
    served by site 0, less those within half a ``resolution`` of their site
    (``RfpField.central_cell``). Without such a pixel, raises ``OutOfRangeError``.
    The mask is made ``TILE_PIXELS`` at a time, once to count the pixels and
    once to gather their distances, so no mask is held at grid size."""
    import numpy as np
    site, distance = serving_site.reshape(-1), serving_distance.reshape(-1)
    parts = [slice(i, i + TILE_PIXELS) for i in range(0, site.size, TILE_PIXELS)]

    def central(part: slice) -> np.ndarray:
        return _central(site[part], _excluded(distance[part], resolution))

    counts = [int(np.count_nonzero(central(part))) for part in parts]
    if not sum(counts):
        raise OutOfRangeError(
            f"resolution {resolution:.9g} m leaves no usable pixel in the central cell "
            f"(pixels: {site.size}, excluded: {np.count_nonzero(_excluded(distance, resolution))})"
        )
    gathered, n = np.empty(sum(counts)), 0
    for part, k in zip(parts, counts):
        np.compress(central(part), distance[part], out=gathered[n:n + k])
        n += k
    return float(gathered.mean() / d_max)


def empirical_alpha(lattice: SiteLattice, resolution: float) -> float:
    """``central_alpha`` over the default region, from a sweep without power;
    converges to the layout's closed-form alpha as the resolution shrinks.
    """
    import numpy as np
    refuse(range_violations(fields=[("resolution", resolution)]))
    if not resolution <= (limit := lattice.d_max / 100.0):
        raise OutOfRangeError(f"resolution must be <= d_max/100 = {limit}, got {resolution}")
    xs, ys = _pixel_axes(default_region(lattice), resolution)
    serving_id, min_d2, _ = _site_sweep(lattice, xs, ys)
    return central_alpha(serving_id, np.sqrt(min_d2, out=min_d2), resolution, lattice.d_max)


_CSV_HEADER = "x_m,y_m,serving_site,distance_m,rfp_serving,rfp_total,excluded\n"

#: Decimal exponents of the values that the CSV formatter writes from their
#: own digits. Every other value, and 0, inf and NaN, goes through
#: ``format(v, ".9g")``.
_FAST_EXPONENTS = range(-290, 290)

#: Largest distance of a fast-path value's scaled mantissa from the nearest
#: integer. The scaled value is within 2.3e-7 of exact, so one that is further
#: than 1e-6 from a rounding half rounds as the exact value does.
_HALF_GUARD = 0.5 - 1e-6

#: Serving ids below this are written from a table; larger ones by ``str``.
_SMALL_IDS = 1000


@cache
def _csv_tables() -> dict[str, np.ndarray]:
    """Read-only lookup tables of the CSV formatter, built on its first call.

    Tables by exponent hold one row per exponent of ``_FAST_EXPONENTS`` plus
    one at each end for the exponents outside it (their power of ten is NaN,
    so their values fall back). Text is little-endian bytes in ``<u8`` words.
    """
    import numpy as np
    u8 = np.dtype("<u8")
    exponents = range(_FAST_EXPONENTS.start - 1, _FAST_EXPONENTS.stop + 1)
    pow10 = np.full(len(exponents), math.nan)
    head, minus, after, dot, suffix = np.zeros((5, len(exponents)), dtype=u8)
    keep_row = np.zeros(len(exponents), dtype=np.intp)
    for i, e in enumerate(exponents):
        # The text before the first digit, and the place of the point among
        # the eight digits after it (8: none). Row 9 of "keep": all eight are
        # decimals.
        prefix, point, row, exponent = "", 0, 0, ""
        if e in _FAST_EXPONENTS:
            pow10[i] = float(f"1e{8 - e}")  # correctly rounded
            if -4 <= e < 0:
                prefix, point, row = "0." + "0" * (-e - 1), 8, 9
            elif 0 <= e <= 8:
                point = row = e
            else:
                exponent = f"e{e:+03d}"
        head[i] = int.from_bytes((prefix + "0").encode().rjust(8, b"\0"), "little")
        minus[i] = ord("-") << 8 * (6 - len(prefix))
        if point < 8:
            after[i] = 2**64 - (1 << 8 * point)
            dot[i] = ord(".") << 8 * point
        suffix[i] = int.from_bytes(exponent.encode(), "little") << 8
        keep_row[i] = 9 * row

    # Bytes kept of the eight digits after the first (and the point among
    # them), by row and by their number of trailing zeros.
    keep = np.zeros(90, dtype=u8)
    for row in range(10):
        for zeros in range(9):
            decimals = 8 - row - zeros
            length = 8 - zeros if row == 9 else row + 1 + decimals if decimals > 0 else row
            keep[9 * row + zeros] = (1 << 8 * min(length, 8)) - 1

    # "0000" to "9999" as text, and their trailing zeros, from those of "00"
    # to "99"; the ids below _SMALL_IDS as text without leading zeros.
    q = np.arange(100, dtype=u8)
    pairs = (q // 10 + ord("0")) | (q % 10 + ord("0")) << 8
    quad = (pairs[:, None] | pairs[None, :] << 16).reshape(-1)
    pair_zeros = (q % 10 == 0).astype(np.uint8) + (q == 0)
    zeros = np.where(q[None, :] == 0, 2 + pair_zeros[:, None], pair_zeros[None, :]).reshape(-1)
    q = np.arange(_SMALL_IDS, dtype=u8)
    ids = quad[:_SMALL_IDS] >> 8 * (1 + (q < 10) + (q < 100)).astype(u8)
    tables = {"pow10": pow10, "head": head, "minus": minus, "after": after, "dot": dot,
              "suffix": suffix, "keep_row": keep_row, "keep": keep, "quad": quad,
              "zeros": zeros.astype(np.uint8), "ids": ids}
    for table in tables.values():
        table.setflags(write=False)
    return tables


def _g9(words: np.ndarray, blank: np.ndarray | None = None) -> np.ndarray:
    """Replace the floats in the first row of ``words``, (3, n) ``<u8``, by
    ``format(v, ".9g")`` of each, as three words per value that join to the
    text, NUL bytes aside: the head (sign, any "0.0..." prefix and the first
    digit, right-aligned), the next eight bytes (digits and the point,
    left-aligned), and the tail (the ninth digit and any "e+NN"). Where
    ``blank`` is set, all three are empty. Returns ``words``; runs under
    ``np.errstate(all="ignore")``.

    The digits are ``rint(|v| * 10**(8 - e))`` with ``e = floor(log10|v|)``.
    The power of ten is correctly rounded, so the scaled value is within
    2.3e-7 of exact. A value whose scaled value lies further than 1e-6 from a
    rounding half, and whose nine digits lie at least 1 from the ends of
    [1e8, 1e9), therefore has the digits and the exponent that ``format``
    gives it; a ``log10`` one off only sends its value to ``format``, which
    writes every other value too.
    """
    import numpy as np
    t = _csv_tables()
    head, rest, tail = words
    digits, low, row = np.empty((3, words.shape[1]), dtype=words.dtype)
    row = row.view(np.intp)
    fast, flag, negative = np.empty((3, words.shape[1]), dtype=bool)
    # Until the first digit goes into the head, the head holds the values,
    # and the rest the scaled values, then their nine digits as an integer.
    values, scaled, rounded = head.view(np.float64), rest.view(np.float64), digits.view(np.float64)
    np.abs(values, out=scaled)
    np.log10(scaled, out=rounded)
    rounded -= _FAST_EXPONENTS.start - 1
    np.floor(rounded, out=rounded)
    np.copyto(row, rounded, casting="unsafe")  # clipped by every take
    t["pow10"].take(row, out=rounded, mode="clip")
    scaled *= rounded  # NaN outside the fast exponents
    np.rint(scaled, out=rounded)
    scaled -= rounded
    np.abs(scaled, out=scaled)
    np.less(scaled, _HALF_GUARD, out=fast)
    mantissa = rest
    np.copyto(mantissa, rounded, casting="unsafe")
    # At least 1 from the ends of [1e8, 1e9): an unsigned difference.
    np.subtract(mantissa, 10**8 + 1, out=low)
    np.less_equal(low, 9 * 10**8 - 2, out=flag)
    fast &= flag
    if blank is not None:
        fast |= blank
    # The values that fall back are formatted now, while the head holds them.
    slow = None if fast.all() else np.flatnonzero(~fast)
    if slow is not None:
        slow_text = [format(x, ".9g") for x in values[slow].tolist()]
    np.less(values, 0, out=negative)
    # The nine digits: the first, then two groups of four.
    np.floor_divide(mantissa, 10**8, out=head)
    np.multiply(head, 10**8, out=low)
    mantissa -= low
    np.floor_divide(mantissa, 10**4, out=tail)
    np.multiply(tail, 10**4, out=low)
    mantissa -= low
    t["quad"].take(tail, out=digits, mode="clip")
    t["quad"].take(mantissa, out=low, mode="clip")
    low <<= 32
    digits |= low
    # Trailing zeros, where the last digit is one: their mask is kept for
    # the end.
    np.right_shift(digits, 56, out=low)
    np.equal(low, ord("0"), out=flag)
    trailing = None
    if flag.any():
        trailing = np.flatnonzero(flag)
        lower, upper = mantissa[trailing], tail[trailing]
        zeros = t["zeros"].take(lower).astype(np.intp)
        zeros += t["zeros"].take(upper) * (lower == 0)
        zeros += t["keep_row"].take(row[trailing], mode="clip")
        trailing_mask = t["keep"].take(zeros)
    # The digits after the point's place move up one byte and the point goes
    # in: L + (H << 8) == digits + 255 * H, H the digits after it.
    t["after"].take(row, out=low, mode="clip")
    low &= digits
    np.right_shift(low, 56, out=tail)
    t["dot"].take(row, out=rest, mode="clip")
    rest += digits
    low *= 255
    rest += low
    if trailing is not None:
        rest[trailing] &= trailing_mask
        tail[trailing] = 0
    t["suffix"].take(row, out=low, mode="clip")
    tail |= low
    head <<= 56
    t["head"].take(row, out=low, mode="clip")
    head |= low
    if negative.any():
        t["minus"].take(row, out=low, mode="clip")
        low *= negative
        head |= low

    if slow is not None:
        text = np.array(slow_text, dtype="S16").view(words.dtype).reshape(-1, 2)
        head[slow] = 0
        rest[slow] = text[:, 0]
        tail[slow] = text[:, 1]
    if blank is not None:
        words[:, np.flatnonzero(blank)] = 0
    return words


def _cell(pieces: np.ndarray, span: list[int], shape: tuple[int, int],
          end: bytes = b",") -> list:
    """The [words, width] pairs of a column of formatted values, in the shape
    they are written in, with ``end`` after the text. ``span`` holds the
    bitwise OR of each of the three pieces; the pieces are changed in place."""
    import numpy as np
    cell = []
    for k, piece in enumerate(pieces):
        if not span[k]:
            continue
        if k == 0:  # the head is right-aligned
            width = 8 - ((span[0] & -span[0]).bit_length() - 1) // 8
            piece >>= 8 * (8 - width)
        else:
            width = (span[k].bit_length() + 7) // 8
        cell.append([piece.reshape(shape), width])
    if not cell or cell[-1][1] + len(end) > 8:
        cell.append([np.zeros((1, 1), dtype=np.dtype("<u8")), 0])
    cell[-1][0] |= int.from_bytes(end, "little") << 8 * cell[-1][1]
    cell[-1][1] += len(end)
    return cell


def _band_csv(band: RfpField) -> str:
    """The CSV rows of one band (no header), formatted in one pass."""
    import numpy as np
    u8 = np.dtype("<u8")
    excluded = band.excluded
    ny, nx = excluded.shape
    n = ny * nx
    if n == 0:
        return ""
    _csv_tables()  # built on the first call, before any scratch
    # One run of values per column: x, y, then the three of the pixels.
    starts = [0, nx, nx + ny, nx + ny + n, nx + ny + 2 * n]
    pieces = np.empty((3, nx + ny + 3 * n), dtype=u8)
    np.concatenate((band.xs, band.ys, band.serving_distance.reshape(n),
                    band.rfp_serving.reshape(n), band.rfp_total.reshape(n)),
                   out=pieces[0].view(np.float64))
    blank = None
    if excluded.any():
        blank = np.zeros(pieces.shape[1], dtype=bool)
        blank[starts[3]:starts[4]] = blank[starts[4]:] = excluded.reshape(n)
    with np.errstate(all="ignore"):
        _g9(pieces, blank)
    columns = np.split(pieces, starts[1:], axis=1)
    spans = np.bitwise_or.reduceat(pieces, starts, axis=1).T.tolist()
    cells = [_cell(columns[0], spans[0], (1, nx)), _cell(columns[1], spans[1], (ny, 1))]
    sid = band.serving_site.reshape(n)
    lo, hi = int(sid.min()), int(sid.max())
    if lo >= 0 and hi < _SMALL_IDS:
        words = _csv_tables()["ids"].take(sid)
        words |= ord(",") << 8 * len(str(hi))
        cells.append([[words.reshape(ny, nx), len(str(hi)) + 1]])
    else:
        text = np.array([f"{s}," for s in sid.tolist()], dtype="S24")
        width = max(len(str(lo)), len(str(hi))) + 1
        words = text.view(u8).reshape(ny, nx, 3)
        cells.append([[words[:, :, k], min(8, width - 8 * k)] for k in range((width + 7) // 8)])
    for k in range(2, 5):
        cells.append(_cell(columns[k], spans[k], (ny, nx), b",0\n" if k == 4 else b","))
    if blank is not None:  # the flag of an excluded pixel is 1
        last = cells[-1][-1]
        last[0] = last[0] + (excluded.astype(u8) << 8 * (last[1] - 2))

    # Every word is written whole, left to right: the NUL bytes past a
    # piece's width land where the next pieces (or the row's padding) go.
    placed, offset = [], 0
    for cell in cells:
        for piece, width in cell:
            placed.append((offset, piece))
            offset += width
    stride = max(offset, placed[-1][0] + 8)
    buf = bytearray(n * stride)
    for offset, piece in placed:
        np.ndarray((ny, nx), u8, buffer=buf, offset=offset, strides=(nx * stride, stride))[...] = piece
    # Each copy of the text frees what it was made from: the peak holds the
    # pieces or the matrix, not both with the text.
    del cells, placed, pieces, columns
    text = buf.translate(None, b"\0")
    del buf
    return text.decode("ascii")


def export_field_csv(field: RfpField, *, header: bool = True) -> str:
    """Render the field as CSV, row-major by y then x.

    Floating values are written as ``format(v, ".9g")`` writes them; excluded
    pixels leave the two power columns empty and set the flag column to 1.
    The texts of ``field_bands(field)``, only the first with the header line,
    join to the text of the whole field.

    numpy formats each band in one pass, with no Python per value: one
    ``_g9`` call makes the digits of the band's x, y and three value columns
    by integer arithmetic, and leaves to ``format`` the values whose digits it
    cannot prove exact. The cells go as little-endian words into one
    NUL-padded byte matrix, one row per pixel, and ``bytearray.translate``
    deletes the NUL bytes.
    """
    parts = [_CSV_HEADER] if header else []
    parts += [_band_csv(band) for band in field_bands(field)]
    return "".join(parts)
