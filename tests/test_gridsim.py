"""Lattice simulator: site generation, field evaluation, oracles, CSV export."""

from __future__ import annotations

import csv
import io
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from rfpcompare import (
    Deployment,
    LayoutKind,
    NoTessellationError,
    Region,
    SiteLattice,
    TESSELLATING_KINDS,
    builtin_scenario,
    cell_contains,
    compute_field,
    empirical_alpha,
    export_field_csv,
    generate_sites,
    rfp_upper_bound,
    verify_upper_bound,
)
from rfpcompare.gridsim import (
    MAX_FIELD_PIXELS,
    SITE_BLOCK,
    TILE_PIXELS,
    UPPER_BOUND_SLACK,
    RfpField,
    _pixel_axes,
    _site_sweep,
    default_region,
    field_bands,
)
from rfpcompare import gridsim
from rfpcompare.propagation import emitted_power

SQRT3 = math.sqrt(3.0)
S1_DEP1 = Deployment(d_max=500.0, p_r_th=1.0, gamma=3.0, f=700.0)
HEX = LayoutKind.HEXAGONAL


def single_site_lattice(kind: LayoutKind, d_max: float) -> SiteLattice:
    """Isolated single-site lattice for serving-term-only checks."""
    return SiteLattice(
        kind=kind,
        d_max=d_max,
        sites=np.array([[0.0, 0.0]]),
        ring_of=np.array([0]),
    )


def pixel_region(x: float, y: float, resolution: float) -> Region:
    """Region holding exactly one pixel centered at (x, y)."""
    return Region(
        x - resolution / 2.0, x + resolution / 2.0,
        y - resolution / 2.0, y + resolution / 2.0,
    )


def hypot_oracle(lattice: SiteLattice, dep: Deployment, fld) -> dict[str, np.ndarray]:
    """Brute-force reference for ``compute_field`` on ``fld``'s pixel grid:
    full meshgrid, ``np.hypot`` distances, a nearest-site search that keeps
    the lowest id on ties, and the exact per-site sum of the total power."""
    X, Y = np.meshgrid(fld.xs, fld.ys)
    scale = emitted_power(dep) / (dep.f**dep.eta * dep.c)
    serving_id = np.zeros(X.shape, dtype=int)
    serving_d = np.full(X.shape, np.inf)
    total = np.zeros(X.shape)
    with np.errstate(divide="ignore"):
        for i in range(len(lattice.sites)):
            d = np.hypot(X - lattice.sites[i, 0], Y - lattice.sites[i, 1])
            closer = d < serving_d
            serving_id[closer] = i
            serving_d[closer] = d[closer]
            total += scale * d**-dep.gamma
    excluded = serving_d < fld.resolution / 2.0
    total[excluded] = np.nan
    return {"serving_site": serving_id, "serving_distance": serving_d,
            "rfp_total": total, "excluded": excluded}


def site_loop_oracle(lattice: SiteLattice, xs, ys, gamma=None, scale=1.0):
    """Reference for ``_site_sweep``: one loop over all sites on the whole
    grid, with a strict ``<`` nearest-site search (the lowest id wins ties)
    and, given ``gamma``, the total added site by site as
    ``np.power(d2, -gamma/2) * scale``."""
    shape = (len(ys), len(xs))
    serving_id = np.zeros(shape, dtype=int)
    min_d2 = np.full(shape, np.inf)
    total = None if gamma is None else np.zeros(shape)
    dx2 = (xs - lattice.sites[:, :1]) ** 2
    dy2 = (ys - lattice.sites[:, 1:]) ** 2
    for i in range(len(lattice.sites)):
        d2 = dy2[i, :, None] + dx2[i]
        closer = d2 < min_d2
        np.minimum(min_d2, d2, out=min_d2)
        serving_id[closer] = i
        if total is not None:
            total += np.power(d2, -gamma / 2.0) * scale
    return serving_id, min_d2, total


def per_cell_oracle(field) -> str:
    """Reference for ``export_field_csv``: every pixel formatted on its own,
    with ``format`` specs, the empty power cells for excluded pixels."""
    lines = ["x_m,y_m,serving_site,distance_m,rfp_serving,rfp_total,excluded\n"]
    for iy, y in enumerate(field.ys.tolist()):
        for ix, x in enumerate(field.xs.tolist()):
            sid = int(field.serving_site[iy, ix])
            d = float(field.serving_distance[iy, ix])
            if field.excluded[iy, ix]:
                lines.append(f"{x:.9g},{y:.9g},{sid},{d:.9g},,,1\n")
            else:
                rs, rt = float(field.rfp_serving[iy, ix]), float(field.rfp_total[iy, ix])
                lines.append(f"{x:.9g},{y:.9g},{sid},{d:.9g},{rs:.9g},{rt:.9g},0\n")
    return "".join(lines)


def spans_partial_tiles(fld) -> bool:
    """True when the field needs more than one kernel tile and its last tile
    is cut short (rows, or columns for a strip wider than one tile)."""
    ny, nx = fld.serving_site.shape
    width = min(nx, TILE_PIXELS)
    height = TILE_PIXELS // width
    return nx * ny > TILE_PIXELS and bool(ny % height or nx % width)


# -- site generation -----------------------------------------------------------


def test_highway_sites():
    lattice = generate_sites(LayoutKind.HIGHWAY, 500.0, 1)
    assert len(lattice.sites) == 3
    assert sorted(lattice.sites[:, 0].tolist()) == [-1000.0, 0.0, 1000.0]
    assert np.all(lattice.sites[:, 1] == 0.0)
    assert lattice.sites[0].tolist() == [0.0, 0.0]  # central site first


def test_hexagonal_sites_first_ring_equidistant():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    assert len(lattice.sites) == 7
    distances = np.hypot(lattice.sites[1:, 0], lattice.sites[1:, 1])
    assert distances == pytest.approx([2 * (SQRT3 / 2) * 500.0] * 6, rel=1e-12)
    assert distances == pytest.approx([866.0254037844] * 6, abs=1e-6)


def test_square_sites_three_by_three():
    lattice = generate_sites(LayoutKind.SQUARE, 250.0, 1)
    assert len(lattice.sites) == 9
    assert lattice.spacing == pytest.approx(353.5533905933, abs=1e-6)
    distances = np.hypot(lattice.sites[1:, 0], lattice.sites[1:, 1])
    # 4 edge-adjacent at the spacing, 4 diagonal sites farther out.
    assert sorted(np.round(distances, 6).tolist()) == pytest.approx(
        [353.553391] * 4 + [500.0] * 4
    )


def test_ring_structure_and_counts():
    hex2 = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    assert len(hex2.sites) == 19
    assert int(np.count_nonzero(hex2.ring_of == 1)) == 6
    assert int(np.count_nonzero(hex2.ring_of == 2)) == 12
    sq2 = generate_sites(LayoutKind.SQUARE, 500.0, 2)
    assert len(sq2.sites) == 25
    assert int(np.count_nonzero(sq2.ring_of == 1)) == 8
    hw2 = generate_sites(LayoutKind.HIGHWAY, 500.0, 2)
    assert len(hw2.sites) == 5
    assert int(np.count_nonzero(hw2.ring_of == 1)) == 2


def test_first_ring_matches_neighbor_count():
    for kind in TESSELLATING_KINDS:
        lattice = generate_sites(kind, 500.0, 3)
        assert int(np.count_nonzero(lattice.ring_of == 1)) == kind.n_neighbors, kind


def test_generate_sites_rejects_bad_inputs():
    with pytest.raises(NoTessellationError):
        generate_sites(LayoutKind.CIRCLE, 500.0, 1)
    with pytest.raises(ValueError):
        generate_sites(LayoutKind.HEXAGONAL, 500.0, 0)
    with pytest.raises(ValueError):
        generate_sites(LayoutKind.HEXAGONAL, 500.0, 11)
    with pytest.raises(ValueError):
        generate_sites(LayoutKind.HEXAGONAL, -5.0, 1)


def test_generate_sites_refuses_sites_past_the_float_range():
    """A lattice whose outer ring overflows is refused, naming d_max, the rings
    and the limit; one ring fewer, or a smaller d_max, still builds."""
    for kind, d_max, rings in [(LayoutKind.HIGHWAY, 1e307, 9), (LayoutKind.SQUARE, 1.7e308, 1),
                               (LayoutKind.HEXAGONAL, 1.7e308, 1), (LayoutKind.HEXAGONAL, 1e308, 2)]:
        with pytest.raises(ValueError) as refused:
            generate_sites(kind, d_max, rings)
        assert str(refused.value).startswith(f"d_max {d_max:.9g} m with {rings} rings ")
        assert str(refused.value).endswith(" the largest float, 1.79769e+308 m")
    for kind, d_max, rings in [(LayoutKind.HIGHWAY, 1e307, 8), (LayoutKind.SQUARE, 1e307, 10),
                               (LayoutKind.HEXAGONAL, 1e307, 10)]:
        assert np.isfinite(generate_sites(kind, d_max, rings).sites).all()


def loop_sites_oracle(kind: LayoutKind, d_max: float, rings: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``generate_sites``: sites and rings built one at a time
    with ``math.atan2``, then sorted by (ring, angle)."""
    s = 2.0 * kind.zeta * d_max
    entries = []  # (ring, angle, x, y)
    if kind is LayoutKind.HIGHWAY:
        for k in range(-rings, rings + 1):
            x = k * s
            entries.append((abs(k), math.atan2(0.0, x) % (2 * math.pi), x, 0.0))
    elif kind is LayoutKind.SQUARE:
        for i in range(-rings, rings + 1):
            for j in range(-rings, rings + 1):
                x, y = i * s, j * s
                entries.append((max(abs(i), abs(j)), math.atan2(y, x) % (2 * math.pi), x, y))
    else:
        a1 = (s * SQRT3 / 2.0, s / 2.0)
        a2 = (0.0, s)
        for q in range(-rings, rings + 1):
            for r in range(-rings, rings + 1):
                ring = (abs(q) + abs(r) + abs(q + r)) // 2
                if ring > rings:
                    continue
                x = q * a1[0] + r * a2[0]
                y = q * a1[1] + r * a2[1]
                entries.append((ring, math.atan2(y, x) % (2 * math.pi), x, y))
    entries.sort(key=lambda e: (e[0], e[1]))
    sites = np.array([[x, y] for _, _, x, y in entries], dtype=float)
    ring_of = np.array([ring for ring, _, _, _ in entries], dtype=int)
    return sites, ring_of


@pytest.mark.parametrize("d_max", [1e-150, 50.0, 123.456, 500.0, 1e150, 1e306])
@pytest.mark.parametrize("kind", TESSELLATING_KINDS, ids=lambda k: k.value)
def test_generate_sites_matches_loop_oracle(kind, d_max):
    for rings in range(1, 11):
        lattice = generate_sites(kind, d_max, rings)
        sites, ring_of = loop_sites_oracle(kind, d_max, rings)
        assert lattice.sites.tobytes() == sites.tobytes(), rings
        assert lattice.ring_of.tobytes() == ring_of.tobytes(), rings


def test_generation_is_deterministic():
    a = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    b = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    assert np.array_equal(a.sites, b.sites)
    assert np.array_equal(a.ring_of, b.ring_of)


# -- Voronoi geometry ------------------------------------------------------------


@pytest.mark.parametrize("kind", [LayoutKind.SQUARE, LayoutKind.HEXAGONAL])
def test_central_voronoi_cell_matches_cell_contains(kind):
    """Nearest-site assignment reproduces the unit-cell membership test; this
    pins the lattice orientation to the geometry module's convention."""
    lattice = generate_sites(kind, 500.0, 2)
    fld = compute_field(lattice, S1_DEP1, resolution=7.3)
    X, Y = np.meshgrid(fld.xs, fld.ys)
    central = fld.serving_site == 0
    for iy, ix in np.argwhere(central | ~central)[:: 7]:  # sample the grid
        point = (X[iy, ix] / 500.0, Y[iy, ix] / 500.0)
        assert cell_contains(kind, point) == bool(central[iy, ix]), point


def test_central_cell_distances_bounded_by_d_max():
    """Central-cell serving distances stay below d_max plus half-pixel slack."""
    for kind in TESSELLATING_KINDS:
        lattice = generate_sites(kind, 500.0, 2)
        fld = compute_field(lattice, S1_DEP1, resolution=5.0)
        slack = 5.0 * math.sqrt(2.0) / 2.0
        central = fld.serving_site == 0
        assert fld.serving_distance[central].max() <= 500.0 + slack, kind


def test_non_serving_sites_at_least_zeta_d_max_away():
    """Geometric premise of the upper bound: every other site is at least
    zeta * d_max (minus half-pixel slack) from every central-cell pixel."""
    for kind in TESSELLATING_KINDS:
        lattice = generate_sites(kind, 500.0, 2)
        fld = compute_field(lattice, S1_DEP1, resolution=10.0)
        X, Y = np.meshgrid(fld.xs, fld.ys)
        central = fld.serving_site == 0
        slack = 10.0 * math.sqrt(2.0) / 2.0
        floor = kind.zeta * 500.0 - slack
        for i in range(1, len(lattice.sites)):
            d = np.hypot(X - lattice.sites[i, 0], Y - lattice.sites[i, 1])
            assert d[central].min() >= floor, (kind, i)


# -- field evaluation -------------------------------------------------------------


def test_field_serving_power_at_d_max_is_threshold():
    """Pixel exactly at d_max from an isolated site receives p_r_th."""
    lattice = single_site_lattice(LayoutKind.HEXAGONAL, 500.0)
    fld = compute_field(lattice, S1_DEP1, 5.0, region=pixel_region(500.0, 0.0, 5.0))
    assert fld.n_pixels == 1
    assert fld.serving_distance[0, 0] == 500.0
    assert fld.rfp_serving[0, 0] == pytest.approx(S1_DEP1.p_r_th, rel=1e-12)


def test_field_midpoint_between_adjacent_sites_sees_equal_leaders():
    """At the midpoint of two adjacent sites the two dominant terms match."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    neighbor = lattice.sites[1]
    mid = neighbor / 2.0
    fld = compute_field(lattice, S1_DEP1, 2.0, region=pixel_region(mid[0], mid[1], 2.0))
    d_neighbor = math.hypot(mid[0] - neighbor[0], mid[1] - neighbor[1])
    assert fld.serving_distance[0, 0] == pytest.approx(d_neighbor, abs=1e-9)
    assert fld.rfp_total[0, 0] > 2.0 * fld.rfp_serving[0, 0] * (1 - 1e-12)


def test_field_at_25m_matches_fixed_distance_closed_form():
    """Serving power at beta * d_max = 25 m equals p_r_th * beta^-gamma."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    fld = compute_field(lattice, S1_DEP1, 5.0, region=pixel_region(25.0, 0.0, 5.0))
    assert fld.serving_distance[0, 0] == 25.0
    assert fld.rfp_serving[0, 0] == pytest.approx(8000.0, rel=1e-9)
    bound = rfp_upper_bound(S1_DEP1, 25.0, HEX, 6)
    assert fld.rfp_serving[0, 0] < fld.rfp_total[0, 0] <= bound * (1 + 1e-9)


def test_field_serving_matches_power_law_along_symmetry_axis():
    """rfp_serving equals p_r_th * beta^-gamma on the positive x axis."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    for beta in (0.05, 0.2, 0.4):
        x = beta * 500.0
        fld = compute_field(lattice, S1_DEP1, 1.0, region=pixel_region(x, 0.0, 1.0))
        assert fld.rfp_serving[0, 0] == pytest.approx(beta**-3.0, rel=1e-9), beta


def test_field_total_at_least_serving_everywhere():
    for kind in TESSELLATING_KINDS:
        lattice = generate_sites(kind, 500.0, 2)
        fld = compute_field(lattice, S1_DEP1, resolution=10.0)
        valid = ~fld.excluded
        assert np.all(fld.rfp_total[valid] >= fld.rfp_serving[valid]), kind


def test_field_excludes_pixels_on_sites():
    """A pixel centered on a site is excluded with NaN power."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    fld = compute_field(lattice, S1_DEP1, 10.0, region=pixel_region(0.0, 0.0, 10.0))
    assert fld.n_excluded == 1
    assert bool(fld.excluded[0, 0])
    assert math.isnan(fld.rfp_serving[0, 0]) and math.isnan(fld.rfp_total[0, 0])


def test_field_values_independent_of_region_partitioning():
    """Per-pixel purity: sub-region values equal the full-region values at the
    same pixel centers, also where the full grid's tiles split differently."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    full = compute_field(lattice, S1_DEP1, 1.0, region=Region(-100.0, 100.0, -100.0, 105.0))
    part = compute_field(lattice, S1_DEP1, 1.0, region=Region(0.0, 100.0, 0.0, 100.0))
    assert spans_partial_tiles(full)
    ix = np.searchsorted(full.xs, part.xs)
    iy = np.searchsorted(full.ys, part.ys)
    assert np.array_equal(full.xs[ix], part.xs)
    assert np.array_equal(full.ys[iy], part.ys)
    for name in ("serving_site", "serving_distance", "rfp_total"):
        assert np.array_equal(getattr(full, name)[np.ix_(iy, ix)], getattr(part, name)), name


def test_serving_site_ties_keep_lowest_id():
    """Pixels exactly midway between two highway sites go to the lower id."""
    lattice = generate_sites(LayoutKind.HIGHWAY, 500.0, 2)
    assert lattice.sites[:, 0].tolist() == [0.0, 1000.0, -1000.0, 2000.0, -2000.0]
    fld = compute_field(lattice, S1_DEP1, 1.0, region=Region(-1500.5, 1500.5, 0.0, 0.0))
    serving = dict(zip(fld.xs.tolist(), fld.serving_site[0].tolist()))
    assert [serving[x] for x in (-1500.0, -500.0, 500.0, 1500.0)] == [2, 0, 0, 1]


@pytest.mark.parametrize("gamma", [2.1, 3.0, 4.0])
@pytest.mark.parametrize("kind,resolution", [
    (LayoutKind.HIGHWAY, 0.05),  # 22,000-pixel strip: the columns are tiled too
    (LayoutKind.SQUARE, 5.0),
    (LayoutKind.HEXAGONAL, 5.0),
])
def test_field_matches_hypot_oracle(kind, resolution, gamma):
    """The squared-distance kernel agrees with the brute-force hypot loop.

    Serving ids and exclusions are identical. sqrt(dx**2 + dy**2) is within
    about one ulp of hypot (2.2e-16 relative), hence rtol 4e-16 on distances;
    each power term then moves by a few ulp, hence rtol 1e-13 on totals.
    """
    dep = Deployment(d_max=500.0, p_r_th=1.0, gamma=gamma, f=700.0)
    lattice = generate_sites(kind, 500.0, 2)
    fld = compute_field(lattice, dep, resolution)
    assert spans_partial_tiles(fld)
    ref = hypot_oracle(lattice, dep, fld)
    assert np.array_equal(fld.serving_site, ref["serving_site"])
    assert np.array_equal(fld.excluded, ref["excluded"])
    np.testing.assert_allclose(fld.serving_distance, ref["serving_distance"], rtol=4e-16, atol=0)
    np.testing.assert_allclose(fld.rfp_total, ref["rfp_total"], rtol=1e-13, atol=0)


def tie_axis(coords: np.ndarray) -> np.ndarray:
    """The distinct site coordinates and the midpoints of every pair of them."""
    c = np.unique(coords)
    return np.unique(np.concatenate([c, ((c[:, None] + c[None, :]) / 2.0).ravel()]))


#: Grids for the kernel's oracle test: (xs, ys) from the lattice, and the
#: tile size in pixels. Small tiles make the serving search prune hard.
ORACLE_GRIDS = {
    # Several tiles of the default region, the last one cut short.
    "tiles": (lambda lat: _pixel_axes(default_region(lat), lat.d_max / 90.0), TILE_PIXELS),
    # Every site and every midpoint of two: exact ties (highway and hexagonal
    # midpoints, 4-way at square cell corners), in tiles of 5 pixels.
    "ties": (lambda lat: (tie_axis(lat.sites[:, 0]), tie_axis(lat.sites[:, 1])), 5),
    # A region wholly outside the lattice.
    "outside": (lambda lat: (np.linspace(9.0, 11.0, 61) * lat.spacing,
                             np.linspace(-1.0, 4.0, 41) * lat.spacing), 64),
    # One pixel, at a square cell corner.
    "1x1": (lambda lat: (np.array([0.5 * lat.spacing]), np.array([0.5 * lat.spacing])),
            TILE_PIXELS),
    # Tiles of one pixel make the site axis of each reduce contiguous, which
    # numpy would sum pairwise from 8 terms on, not in site order.
    "1-pixel-tiles": (lambda lat: (np.linspace(-1.3, 1.7, 9) * lat.d_max,
                                   np.linspace(-1.1, 0.9, 7) * lat.d_max), 1),
    # One row, in two column strips.
    "1xN": (lambda lat: (np.linspace(-3.0, 3.0, TILE_PIXELS + 5) * lat.d_max,
                         np.array([0.1 * lat.d_max])), TILE_PIXELS),
    "Nx1": (lambda lat: (np.array([0.1 * lat.d_max]),
                         np.linspace(-3.0, 3.0, 301) * lat.d_max), TILE_PIXELS),
}


@pytest.mark.parametrize("d_max", [500.0, 1e-150, 1e150])
@pytest.mark.parametrize("grid", list(ORACLE_GRIDS))
@pytest.mark.parametrize("kind", TESSELLATING_KINDS, ids=lambda kind: kind.value)
def test_site_sweep_matches_site_loop_oracle(monkeypatch, kind, grid, d_max):
    """The blocked kernel with its pruned serving search against the plain
    loop over sites: serving ids and squared distances bit-equal for every
    gamma, totals bit-equal for gamma = 2.1 and within 2e-15 for gamma = 3
    (scale / d2 / sqrt(d2) against np.power). At d_max = 1e-150 the power
    terms overflow to infinity, at 1e150 they underflow to zero."""
    axes, tile = ORACLE_GRIDS[grid]
    monkeypatch.setattr(gridsim, "TILE_PIXELS", tile)
    lattice = generate_sites(kind, d_max, 3)
    assert len(lattice.sites) % SITE_BLOCK  # a last block cut short
    xs, ys = axes(lattice)
    with np.errstate(all="ignore"):
        for gamma in (None, 2.1, 3.0):
            serving, min_d2, total = _site_sweep(lattice, xs, ys, gamma, 1.7)
            ref_serving, ref_min_d2, ref_total = site_loop_oracle(lattice, xs, ys, gamma, 1.7)
            assert np.array_equal(serving, ref_serving), gamma
            assert np.array_equal(min_d2, ref_min_d2), gamma
            if gamma == 2.1:
                assert np.array_equal(total, ref_total)
            elif gamma == 3.0:
                np.testing.assert_allclose(total, ref_total, rtol=2e-15, atol=0)
        if grid == "ties" or (grid == "1x1" and kind is LayoutKind.SQUARE):
            dx2 = (xs - lattice.sites[:, :1]) ** 2
            dy2 = (ys - lattice.sites[:, 1:]) ** 2
            d2 = dy2[:, :, None] + dx2[:, None, :]
            most_tied = int((d2 == ref_min_d2).sum(axis=0).max())
            assert most_tied >= (4 if kind is LayoutKind.SQUARE else 2)


def test_gamma_3_terms_of_far_sites_do_not_overflow():
    """d_max = 1e102 m passes emitted_power with a small p_r_th, and sites of
    the tenth ring lie ~1e104 m away: d2 * sqrt(d2) would overflow there
    (from d2 = 1.8e205 on) and drop 6% of the total. The kernel's
    scale / d2 / sqrt(d2) matches a reference summed in units of d_max."""
    d_max = 1e102
    dep = Deployment(d_max=d_max, p_r_th=1e-20, gamma=3.0, f=700.0)
    lattice = generate_sites(HEX, d_max, 10)
    fld = compute_field(lattice, dep, d_max / 20.0)
    X, Y = np.meshgrid(fld.xs / d_max, fld.ys / d_max)
    ref = np.zeros(X.shape)
    for sx, sy in lattice.sites / d_max:
        ref += dep.p_r_th * ((X - sx) ** 2 + (Y - sy) ** 2) ** -1.5
    assert fld.n_excluded == 0
    np.testing.assert_allclose(fld.rfp_total, ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind,resolution,row_tiles", [
    (LayoutKind.HIGHWAY, 0.05, 1),  # three column strips of one tile each
    (LayoutKind.SQUARE, 7.0, 2),
    (LayoutKind.HEXAGONAL, 8.0, 3),
])
def test_field_is_bit_identical_for_any_worker_count(force_cpus, kind, resolution, row_tiles):
    """One worker or three: every pixel sweeps the sites in the same order,
    so the arrays are bit-equal, and they match the hypot oracle as above."""
    dep = Deployment(d_max=500.0, p_r_th=1.0, gamma=2.1, f=700.0)
    lattice = generate_sites(kind, 500.0, 2)
    fields = {}
    for n in (1, 3):
        sizes = force_cpus(n)
        fields[n] = compute_field(lattice, dep, resolution)
        assert sizes == [min(n, row_tiles)]
    height = TILE_PIXELS // min(len(fields[1].xs), TILE_PIXELS)
    assert -(-len(fields[1].ys) // height) == row_tiles
    assert spans_partial_tiles(fields[1])
    for name in ("serving_site", "serving_distance", "rfp_serving", "rfp_total", "excluded"):
        assert np.array_equal(getattr(fields[1], name), getattr(fields[3], name),
                              equal_nan=name.startswith("rfp")), name
    ref = hypot_oracle(lattice, dep, fields[3])
    assert np.array_equal(fields[3].serving_site, ref["serving_site"])
    assert np.array_equal(fields[3].excluded, ref["excluded"])
    np.testing.assert_allclose(fields[3].serving_distance, ref["serving_distance"],
                               rtol=4e-16, atol=0)
    np.testing.assert_allclose(fields[3].rfp_total, ref["rfp_total"], rtol=1e-13, atol=0)


def test_field_with_more_workers_than_cpus_under_fast_thread_switching(force_cpus):
    """Stress: eight workers over 34 row tiles, switching threads every
    microsecond. A buffer or tile shared between workers would corrupt it."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    force_cpus(1)
    serial = compute_field(lattice, S1_DEP1, 2.0)
    sizes = force_cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = compute_field(lattice, S1_DEP1, 2.0)
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [8]
    for name in ("serving_site", "serving_distance", "rfp_total"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name),
                              equal_nan=name == "rfp_total"), name


def test_field_worker_exception_reaches_the_caller(monkeypatch, force_cpus):
    """gamma = 2.1: the kernel's gamma = 3 path does not call np.power."""
    force_cpus(2)
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    dep = Deployment(d_max=500.0, p_r_th=1.0, gamma=2.1, f=700.0)
    raised_in = []

    def failing_power(*args, **kwargs):
        raised_in.append(threading.current_thread())
        raise ArithmeticError("power failed in a worker")

    monkeypatch.setattr(np, "power", failing_power)
    with pytest.raises(ArithmeticError, match="power failed in a worker"):
        compute_field(lattice, dep, 5.0)
    assert raised_in and threading.main_thread() not in raised_in


def test_field_pixel_on_a_site_is_silent_in_every_worker(force_cpus):
    """numpy's error state does not pass to new threads by itself; the pixel
    at (0, 0) sits on the central site, in a middle one of six row tiles."""
    force_cpus(3)
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    region = Region(-201.0, 201.0, -201.0, 201.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fld = compute_field(lattice, S1_DEP1, 2.0, region=region)
    assert fld.n_pixels > 2 * TILE_PIXELS
    assert fld.xs[100] == fld.ys[100] == 0.0
    assert fld.excluded[100, 100] and fld.n_excluded == 1


def test_compute_field_rejects_bad_resolution():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    with pytest.raises(ValueError):
        compute_field(lattice, S1_DEP1, 0.0)


def test_pixel_budget_admits_the_1m_hexagonal_field():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    fld = compute_field(lattice, S1_DEP1, 1.0)
    assert fld.n_pixels == 1_047_200 <= MAX_FIELD_PIXELS


def test_pixel_budget_refuses_oversized_grid_before_allocating():
    """At 0.01 m the default hexagonal region is ~1.05e10 pixels; the refusal
    comes from the axis lengths, so almost nothing is allocated."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_FIELD_PIXELS"):
            compute_field(lattice, S1_DEP1, 0.01)
        with pytest.raises(ValueError, match="MAX_FIELD_PIXELS"):
            empirical_alpha(lattice, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_highway_field_is_a_single_row():
    lattice = generate_sites(LayoutKind.HIGHWAY, 500.0, 2)
    fld = compute_field(lattice, S1_DEP1, 5.0)
    assert fld.serving_distance.shape[0] == 1
    assert np.all(fld.ys == 0.0)



@pytest.mark.parametrize("bound", range(4), ids=["x_min", "x_max", "y_min", "y_max"])
def test_region_refuses_a_nan_bound(bound):
    bounds = [0.0, 1.0, 0.0, 1.0]
    bounds[bound] = math.nan
    with pytest.raises(ValueError, match="degenerate region bounds"):
        Region(*bounds)


@pytest.mark.parametrize("bounds,name", [
    ((math.inf, math.inf, 0.0, 0.0), "x_min"),
    ((-math.inf, -math.inf, 0.0, 0.0), "x_min"),
    ((0.0, 100.0, math.inf, math.inf), "y_min"),
], ids=["inf-strip", "minus-inf-strip", "row-at-inf"])
def test_compute_field_refuses_a_non_finite_region_bound(bounds, name):
    """``Region`` accepts infinite bounds, but no pixel axis can be laid on
    one: the field names the bound instead of failing on NaN or giving a row
    of pixels at y = inf."""
    lattice = generate_sites(LayoutKind.HIGHWAY, 500.0, 1)
    with pytest.raises(ValueError, match=f"region bound {name} must be finite"):
        compute_field(lattice, S1_DEP1, 5.0, region=Region(*bounds))


def former_default_region(kind: LayoutKind, d: float) -> Region:
    """``default_region`` as it was written out by hand, layout by layout."""
    if kind is LayoutKind.HIGHWAY:
        return Region(-1.1 * d, 1.1 * d, 0.0, 0.0)
    if kind is LayoutKind.SQUARE:
        half = 1.1 * LayoutKind.SQUARE.zeta * d
        return Region(-half, half, -half, half)
    return Region(-1.1 * d, 1.1 * d, -1.1 * SQRT3 / 2.0 * d, 1.1 * SQRT3 / 2.0 * d)


@pytest.mark.parametrize("d_max", [1e-300, 1e-3, 123.456, 500.0, 1e150, 1.7e308])
@pytest.mark.parametrize("kind", TESSELLATING_KINDS, ids=lambda kind: kind.value)
def test_default_region_keeps_the_former_bounds_bit_for_bit(kind, d_max):
    """The cell's bounding box times 1.1 d_max gives the former bounds, the
    sign of zero included (``float.hex`` tells 0.0 from -0.0)."""
    def bits(region):
        return [v.hex() for v in (region.x_min, region.x_max, region.y_min, region.y_max)]

    region = default_region(single_site_lattice(kind, d_max))
    assert bits(region) == bits(former_default_region(kind, d_max))


@pytest.mark.parametrize("gamma", [2.1, 3.0])
@pytest.mark.parametrize("kind", TESSELLATING_KINDS, ids=lambda kind: kind.value)
def test_metamorphic_doubling_p_r_th_doubles_every_power(kind, gamma):
    """Received power is linear in the threshold: twice p_r_th gives twice
    each power, bit for bit (a factor of 2 is exact), and the same sites."""
    lattice = generate_sites(kind, 500.0, 4)
    once, twice = (compute_field(lattice, Deployment(500.0, p_r_th, gamma, 700.0), 10.0)
                   for p_r_th in (1.0, 2.0))
    assert np.array_equal(twice.serving_site, once.serving_site)
    assert (2.0 * once.rfp_serving).tobytes() == twice.rfp_serving.tobytes()
    assert (2.0 * once.rfp_total).tobytes() == twice.rfp_total.tobytes()


@pytest.mark.parametrize("gamma", [2.1, 3.0, 4.0])
@pytest.mark.parametrize("kind", TESSELLATING_KINDS, ids=lambda kind: kind.value)
def test_metamorphic_doubling_every_length_keeps_sites_and_totals(kind, gamma):
    """Power depends on d / d_max only: twice d_max on a grid of twice the
    resolution gives the same serving sites and totals. Every squared distance
    scales by 4 exactly, so gamma = 3, whose terms take only correctly rounded
    steps, keeps every bit. Other gammas take ``np.power``, which need not
    round alike at d2 and 4 * d2: within 2e-15 (measured: at most 6.7e-16 at
    gamma = 2.1; at gamma = 4 bit for bit with AVX-512, 3.3e-16 on numpy's
    baseline SIMD path)."""
    small, big = (compute_field(generate_sites(kind, d_max, 4),
                                Deployment(d_max, 1.0, gamma, 700.0), d_max / 100.0)
                  for d_max in (500.0, 1000.0))
    assert np.array_equal(big.xs, 2.0 * small.xs) and np.array_equal(big.ys, 2.0 * small.ys)
    assert np.array_equal(big.serving_site, small.serving_site)
    assert np.array_equal(big.excluded, small.excluded)
    if gamma == 3.0:
        assert big.rfp_total.tobytes() == small.rfp_total.tobytes()
    else:
        np.testing.assert_allclose(big.rfp_total, small.rfp_total, rtol=2e-15, atol=0.0)


MIRROR_FLIPS = {
    "x": lambda a: a[:, ::-1],
    "y": lambda a: a[::-1, :],
    "transpose": lambda a: a.T,
}


@pytest.mark.parametrize("dep", [Deployment(100.0, 1.0, 3.0, 700.0), builtin_scenario("S2").dep2],
                         ids=["S1-dep1-gamma3", "S2-dep2-gamma2.1"])
@pytest.mark.parametrize("kind,flip", [
    (LayoutKind.SQUARE, "x"), (LayoutKind.SQUARE, "y"), (LayoutKind.SQUARE, "transpose"),
    (HEX, "x"), (HEX, "y"), (LayoutKind.HIGHWAY, "x"),
], ids=lambda v: getattr(v, "value", v))
def test_metamorphic_mirror_symmetry_of_the_field(kind, flip, dep):
    """Each lattice is symmetric under these flips, and so is a region
    centred on the site and a whole number of pixels wide (the default region
    is neither): the field read in mirror order is the same field. Serving
    distances and exclusions keep every bit. Serving ids are not compared: a
    flip maps each site to another id (though here every pixel lies in the
    central cell). Totals sum the sites in another order: within 4e-15
    (measured: at most 1.3e-15, also on numpy's baseline SIMD path)."""
    region = (Region(-60.0, 60.0, 0.0, 0.0) if kind is LayoutKind.HIGHWAY
              else Region(-60.0, 60.0, -60.0, 60.0))
    fld = compute_field(generate_sites(kind, 100.0, 4), dep, 2.0, region)
    assert np.array_equal(-fld.xs[::-1], fld.xs) and np.array_equal(-fld.ys[::-1], fld.ys)
    mirror = MIRROR_FLIPS[flip]
    assert mirror(fld.serving_distance).tobytes() == fld.serving_distance.tobytes()
    assert np.array_equal(mirror(fld.excluded), fld.excluded)
    np.testing.assert_allclose(mirror(fld.rfp_total), fld.rfp_total, rtol=4e-15, atol=0.0)


# -- upper-bound verification ------------------------------------------------------


def test_upper_bound_holds_on_hexagonal_lattice_rings2():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    fld = compute_field(lattice, S1_DEP1, resolution=5.0)
    assert verify_upper_bound(fld, S1_DEP1, HEX).shape == (0, 2)


def test_upper_bound_holds_on_rings3_at_5m():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 3)
    fld = compute_field(lattice, S1_DEP1, resolution=5.0)
    assert verify_upper_bound(fld, S1_DEP1, HEX).shape == (0, 2)


def test_upper_bound_holds_for_all_layouts():
    for kind in TESSELLATING_KINDS:
        lattice = generate_sites(kind, 500.0, 2)
        fld = compute_field(lattice, S1_DEP1, resolution=10.0)
        assert verify_upper_bound(fld, S1_DEP1, kind).shape == (0, 2), kind


def charge_neighbors(monkeypatch, n_i: int) -> None:
    """Make ``verify_upper_bound`` charge ``n_i`` neighbors instead of the
    layout's own count: the negative control of the bound check."""
    real = gridsim.neighbor_charge
    monkeypatch.setattr(gridsim, "neighbor_charge",
                        lambda gamma, layout, _n_i: real(gamma, layout, n_i))


def test_upper_bound_negative_control_violates_everywhere(monkeypatch):
    """Assuming zero neighbors against a real lattice flags every checked pixel."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    fld = compute_field(lattice, S1_DEP1, resolution=25.0)
    charge_neighbors(monkeypatch, 0)
    violations = verify_upper_bound(fld, S1_DEP1, HEX)
    checked = fld.central_cell & (fld.serving_distance <= HEX.zeta * 500.0)
    assert len(violations) == int(checked.sum()) > 0


def test_upper_bound_checks_only_the_validity_region(monkeypatch):
    """Central-cell pixels beyond zeta * d_max are not part of the check."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    fld = compute_field(lattice, S1_DEP1, resolution=5.0)
    central = fld.central_cell
    beyond = central & (fld.serving_distance > HEX.zeta * 500.0)
    assert int(beyond.sum()) > 0  # hexagon corners exist beyond the inradius
    # ... and even with no neighbor charged those pixels never appear among
    # violations.
    charge_neighbors(monkeypatch, 0)
    centres = verify_upper_bound(fld, S1_DEP1, HEX)
    assert len(centres) > 0
    ix = np.searchsorted(fld.xs, centres[:, 0])
    iy = np.searchsorted(fld.ys, centres[:, 1])
    assert np.array_equal(fld.xs[ix], centres[:, 0]) and np.array_equal(fld.ys[iy], centres[:, 1])
    assert (fld.serving_distance[iy, ix] <= HEX.zeta * 500.0).all()


def whole_grid_bound_oracle(field, dep, layout, n_i):
    """Reference for ``verify_upper_bound``: the bound over the whole grid at once."""
    limit = layout.zeta * dep.d_max
    checked = field.central_cell & (field.serving_distance <= limit)
    scale = emitted_power(dep) / (dep.f**dep.eta * dep.c)
    with np.errstate(divide="ignore"):
        bound = (
            scale * field.serving_distance**-dep.gamma
            + n_i * scale * limit**-dep.gamma
        )
    bad = checked & (field.rfp_total > bound * (1.0 + UPPER_BOUND_SLACK))
    return np.array([[field.xs[ix], field.ys[iy]] for iy, ix in np.argwhere(bad)]).reshape(-1, 2)


@pytest.mark.parametrize("kind,rings,resolution", [
    (LayoutKind.HEXAGONAL, 1, 5.0),  # six row bands
    (LayoutKind.SQUARE, 2, 5.0),  # three row bands
    (LayoutKind.HIGHWAY, 1, 0.05),  # one row in three column bands
])
@pytest.mark.parametrize("n_i", [0, 3, None])
def test_banded_bound_check_matches_whole_grid_oracle(monkeypatch, kind, rings, resolution,
                                                      n_i):
    lattice = generate_sites(kind, 500.0, rings)
    fld = compute_field(lattice, S1_DEP1, resolution)
    layout = kind
    bands = list(field_bands(fld))
    assert len(bands) > 1
    if n_i is not None:
        charge_neighbors(monkeypatch, n_i)
    centres = verify_upper_bound(fld, S1_DEP1, layout)
    expected_n_i = int(np.count_nonzero(lattice.ring_of == 1)) if n_i is None else n_i
    expected = whole_grid_bound_oracle(fld, S1_DEP1, layout, expected_n_i)
    assert centres.dtype == np.float64
    assert np.array_equal(centres, expected)
    if n_i == 0:
        per_band = [verify_upper_bound(band, S1_DEP1, layout) for band in bands]
        assert sum(1 for found in per_band if len(found)) > 1  # spread over several bands
        assert np.array_equal(np.concatenate(per_band), centres)


def test_upper_bound_rejects_mismatched_inputs():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    fld = compute_field(lattice, S1_DEP1, resolution=25.0)
    with pytest.raises(ValueError):
        verify_upper_bound(fld, S1_DEP1, LayoutKind.SQUARE)
    with pytest.raises(ValueError):
        verify_upper_bound(fld, Deployment(250.0, 1.0, 3.0, 700.0), HEX)


@pytest.mark.parametrize("rings,violations", [(6, 56), (7, 3972), (10, 5890)])
def test_field_check_agrees_with_the_scalar_bound_where_it_fails(rings, violations):
    """At gamma = 1.8 the farther rings break the paper's bound. Pixel by
    pixel, the field check flags exactly the checked pixels whose total
    exceeds the published scalar bound ``rfp_upper_bound``."""
    dep = Deployment(d_max=100.0, p_r_th=1.0, gamma=1.8, f=700.0)
    lattice = generate_sites(HEX, dep.d_max, rings)
    fld = compute_field(lattice, dep, 2.0)
    centres = verify_upper_bound(fld, dep, HEX)
    assert len(centres) == violations
    flagged = np.zeros(fld.serving_site.shape, dtype=bool)
    flagged[np.searchsorted(fld.ys, centres[:, 1]), np.searchsorted(fld.xs, centres[:, 0])] = True
    expected = np.zeros_like(flagged)
    checked = fld.central_cell & (fld.serving_distance <= HEX.zeta * dep.d_max)
    for iy, ix in np.argwhere(checked):
        bound = rfp_upper_bound(dep, float(fld.serving_distance[iy, ix]), HEX, 6)
        expected[iy, ix] = fld.rfp_total[iy, ix] > bound * (1.0 + UPPER_BOUND_SLACK)
    assert np.array_equal(flagged, expected)


# -- empirical alpha ---------------------------------------------------------------


def test_empirical_alpha_hexagonal():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    assert empirical_alpha(lattice, 1.0) == pytest.approx(0.6080, abs=0.006)


def test_empirical_alpha_highway():
    lattice = generate_sites(LayoutKind.HIGHWAY, 500.0, 1)
    assert empirical_alpha(lattice, 1.0) == pytest.approx(0.5, abs=0.005)


def test_empirical_alpha_square():
    lattice = generate_sites(LayoutKind.SQUARE, 500.0, 1)
    assert empirical_alpha(lattice, 1.0) == pytest.approx(0.5411, abs=0.006)


def test_empirical_alpha_converges_first_order():
    """Error stays within a first-order envelope and ends deep below it."""
    for kind in TESSELLATING_KINDS:
        lattice = generate_sites(kind, 500.0, 1)
        closed = kind.alpha
        for resolution in (4.0, 2.0, 1.0):
            err = abs(empirical_alpha(lattice, resolution) - closed)
            assert err <= 0.6 * resolution / 500.0, (kind, resolution, err)
        assert abs(empirical_alpha(lattice, 1.0) - closed) < 1e-3, kind


def test_empirical_alpha_matches_hypot_oracle():
    """Mean serving distance over the central cell equals the oracle's to
    1e-15 relative (the per-pixel distances differ by at most ~1 ulp)."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    fld = compute_field(lattice, S1_DEP1, 2.0)
    ref = hypot_oracle(lattice, S1_DEP1, fld)
    central = (ref["serving_site"] == 0) & ~ref["excluded"]
    expected = ref["serving_distance"][central].mean() / 500.0
    assert empirical_alpha(lattice, 2.0) == pytest.approx(expected, rel=1e-15, abs=0)


def test_empirical_alpha_resolution_guard():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    with pytest.raises(ValueError):
        empirical_alpha(lattice, 5.01)


@pytest.mark.parametrize("resolution", [0.0, -1.0, -1e-300])
def test_empirical_alpha_refuses_a_resolution_not_above_zero(resolution):
    """Refused by name, like ``compute_field``, not by a division by zero or a
    pixel count computed from a negative size."""
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    with pytest.raises(ValueError, match=r"resolution must be > 0 and <= d_max/100 = 5\.0"):
        empirical_alpha(lattice, resolution)


@pytest.mark.parametrize("kind,resolution", [
    (LayoutKind.HIGHWAY, 4.0),  # one pixel excluded, its centre on the site
    (LayoutKind.SQUARE, 2.0),  # the wide-lattice benchmark's grid; one pixel excluded
    (HEX, 5.0),  # validate's grid; no pixel excluded
])
def test_simulate_prints_the_empirical_alpha_that_validate_checks(kind, resolution):
    """``simulate``'s printed alpha (``central_alpha`` over ``compute_field``'s
    field) and ``empirical_alpha`` (its power-free sweep) are the same bits."""
    dep = builtin_scenario("S1").dep1
    lattice = generate_sites(kind, dep.d_max, 2)
    fld = compute_field(lattice, dep, resolution)
    printed = gridsim.central_alpha(fld.serving_site, fld.serving_distance, resolution, dep.d_max)
    assert printed == float(fld.serving_distance[fld.central_cell].mean() / dep.d_max)
    assert empirical_alpha(lattice, resolution) == printed


# -- CSV export --------------------------------------------------------------------


CSV_HEADER = "x_m,y_m,serving_site,distance_m,rfp_serving,rfp_total,excluded"


def test_export_header_and_row_order():
    """2x2 field exports 4 data rows, row-major by y then x."""
    lattice = single_site_lattice(LayoutKind.SQUARE, 500.0)
    fld = compute_field(lattice, S1_DEP1, 10.0, region=Region(100.0, 120.0, 200.0, 220.0))
    text = export_field_csv(fld)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    coords = [tuple(map(float, line.split(",")[:2])) for line in lines[1:]]
    assert coords == [(105.0, 205.0), (115.0, 205.0), (105.0, 215.0), (115.0, 215.0)]


def test_export_empty_region_is_header_only():
    lattice = single_site_lattice(LayoutKind.SQUARE, 500.0)
    # No column, then no row.
    for region in (Region(50.0, 50.0, 0.0, 100.0), Region(0.0, 100.0, 0.0, 5.0)):
        fld = compute_field(lattice, S1_DEP1, 10.0, region=region)
        assert fld.n_pixels == 0
        assert export_field_csv(fld) == CSV_HEADER + "\n"
        assert banded_csv(fld) == CSV_HEADER + "\n"


def test_export_round_trip_to_9_significant_digits():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 2)
    fld = compute_field(lattice, S1_DEP1, resolution=50.0)
    rows = list(csv.DictReader(io.StringIO(export_field_csv(fld))))
    assert len(rows) == fld.n_pixels
    it = iter(rows)
    for iy in range(len(fld.ys)):
        for ix in range(len(fld.xs)):
            row = next(it)
            assert int(row["serving_site"]) == fld.serving_site[iy, ix]
            if row["excluded"] == "1":
                assert row["rfp_serving"] == "" and row["rfp_total"] == ""
                continue
            back = float(row["rfp_total"])
            assert back == pytest.approx(fld.rfp_total[iy, ix], rel=1e-8)


def test_export_marks_excluded_pixels():
    lattice = generate_sites(LayoutKind.HEXAGONAL, 500.0, 1)
    fld = compute_field(lattice, S1_DEP1, 10.0, region=pixel_region(0.0, 0.0, 10.0))
    lines = export_field_csv(fld).strip().split("\n")
    assert lines[1].endswith(",,,1")


SPECIALS = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1e300, -1e-300, 9.99999999e299,
            1.0000000005e-300, 5e-324, 1.7976931348623157e308, 123456789.5, 0.1)


def synthetic_field(nx: int, ny: int, excluded_at: list[tuple[int, int]]) -> RfpField:
    """A field with random values over many magnitudes, the ``SPECIALS``
    scattered over each float column, and the pixels in ``excluded_at``
    (row, column) flagged."""
    rng = np.random.default_rng(nx * 1000 + ny)
    shape = (ny, nx)

    def column():
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        flat = values.reshape(-1)
        for k, v in enumerate(SPECIALS):
            flat[(k * 7919 + rng.integers(nx * ny)) % flat.size] = v
        return values

    excluded = np.zeros(shape, dtype=bool)
    for iy, ix in excluded_at:
        excluded[iy, ix] = True
    return RfpField(
        lattice=single_site_lattice(LayoutKind.SQUARE, 500.0),
        resolution=1.0,
        xs=(nx // 2 - np.arange(nx)) * -1.25,  # -0.0 at the middle
        ys=np.linspace(-3.3, 7.7, ny),
        serving_site=rng.integers(0, 441, shape),
        serving_distance=np.abs(column()),
        rfp_serving=column(),
        rfp_total=column(),
        excluded=excluded,
    )


#: Synthetic fields by name: (nx, ny, excluded pixels as (row, column)).
EXPORT_FIELDS = {
    "grid": (37, 11, [(0, 3), (5, 0), (5, 36), (10, 20)]),  # first, middle and last rows
    "grid-none-excluded": (37, 11, []),
    "row": (53, 1, [(0, 52)]),  # a 1-row strip
    "column": (1, 29, [(0, 0), (14, 0)]),  # a 1-column grid
    "wide-strip": (2 * TILE_PIXELS + 5, 1, [(0, TILE_PIXELS + 2)]),  # split into three pieces
    "wide-strip-none-excluded": (2 * TILE_PIXELS + 5, 1, []),
}
BAND_ROWS = TILE_PIXELS // 37  # rows per band of a 37-pixel-wide grid
#: Fields of several bands, with excluded pixels in the first and last rows of bands.
BANDED_FIELDS = {
    **EXPORT_FIELDS,
    "three-bands": (37, 2 * BAND_ROWS + 3, [(0, 0), (BAND_ROWS - 1, 36), (BAND_ROWS, 0),
                                             (2 * BAND_ROWS - 1, 20), (2 * BAND_ROWS, 5)]),
    "wide-rows": (TILE_PIXELS + 3, 2, [(0, TILE_PIXELS - 1), (0, TILE_PIXELS), (1, 0)]),
    "long-column": (1, TILE_PIXELS + 7, [(TILE_PIXELS - 1, 0), (TILE_PIXELS, 0)]),
}


@pytest.mark.parametrize("nx,ny,excluded_at", EXPORT_FIELDS.values(), ids=list(EXPORT_FIELDS))
def test_export_matches_per_cell_oracle(nx, ny, excluded_at):
    fld = synthetic_field(nx, ny, excluded_at)
    assert export_field_csv(fld) == per_cell_oracle(fld)


def banded_csv(fld) -> str:
    """The CSV as ``simulate`` writes it: band by band, the header first."""
    return "".join(export_field_csv(band, header=i == 0)
                   for i, band in enumerate(field_bands(fld)))


@pytest.mark.parametrize("nx,ny,excluded_at", BANDED_FIELDS.values(), ids=list(BANDED_FIELDS))
def test_banded_export_joins_to_the_whole_export(nx, ny, excluded_at):
    fld = synthetic_field(nx, ny, excluded_at)
    bands = list(field_bands(fld))
    assert sum(band.n_pixels for band in bands) == fld.n_pixels
    assert all(0 < band.n_pixels <= TILE_PIXELS for band in bands)
    assert all(np.shares_memory(band.rfp_total, fld.rfp_total) for band in bands)
    text = banded_csv(fld)
    assert text == export_field_csv(fld)
    assert text.startswith(CSV_HEADER + "\n") and text.count(CSV_HEADER) == 1


def test_export_uses_lf_and_9_digit_precision():
    lattice = single_site_lattice(LayoutKind.SQUARE, 500.0)
    fld = compute_field(lattice, S1_DEP1, 5.0, region=pixel_region(123.456789123, 0.0, 5.0))
    text = export_field_csv(fld)
    assert "\r" not in text
    assert "123.456789" in text.split("\n")[1]


# -- The vectorized 9-digit formatter --------------------------------------------


def g9_lines(values: np.ndarray) -> str:
    """The CSV formatter's text of each value, one per line."""
    words = np.empty((4, len(values)), dtype="<u8")  # three pieces, then a newline
    words[0] = values.view("<u8")
    words[3] = ord("\n")
    with np.errstate(all="ignore"):
        gridsim._g9(words[:3])
    return words.T.tobytes().translate(None, b"\0").decode("ascii")


def format_lines(values: np.ndarray) -> str:
    return "".join(f"{v:.9g}\n" for v in values.tolist())


def assert_formats_like_format(values: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype=float)
    got, want = g9_lines(values), format_lines(values)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.splitlines(),
                                            want.splitlines()) if g != w]
        pytest.fail(f"{len(bad)} of {len(values)} differ, first: {bad[:5]}")


def test_formatter_matches_format_on_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    values = bits[np.isfinite(bits)]
    assert len(values) > 999_000
    # Most random bit patterns lie outside the fast exponents: add as many
    # log-uniform values inside them.
    inside = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-290, 290, 100_000)
    assert_formats_like_format(np.concatenate((values, inside)))


def adversarial_values() -> np.ndarray:
    """Values at the formatter's edges, and their negatives."""
    rng = np.random.default_rng(7)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers]
    for steps in (1, 2, 3):  # nextafter neighbours, both ways
        up, down = powers.copy(), powers.copy()
        for _ in range(steps):
            up, down = np.nextafter(up, math.inf), np.nextafter(down, 0.0)
        near += [up, down]
    # Decade edges after rounding: 999999999.5 and around, at every scale.
    nines = np.array([9.999999995, 9.9999999949999, 9.99999999500001, 9.99999999, 1.000000005])
    near.append((nines[:, None] * powers[None, 20:-20]).ravel())
    # Rounding halves: (k + 0.5) * 10**j, exact for small j.
    k = rng.integers(10**8, 10**9, 4000).astype(float)
    j = rng.integers(-300, 290, 4000)
    halves = [(k + 0.5) * 10.0 ** (j - 8), k + 0.5, (k + 0.5) / 2**20,
              np.array([0.5, 1.5, 2.5, 0.125, 123456789.5, 987654321.5, 1.00000000500000])]
    # Nine-digit integers times powers of ten: trailing zeros to strip.
    whole = (rng.integers(1, 10**9, 4000) // 10 ** rng.integers(0, 9, 4000)).astype(float)
    scaled = whole * 10.0 ** rng.integers(-12, 12, 4000)
    # 1e+-290, the fast path's edges, and beyond.
    edges = np.array([1e290, 1e-290, 9.99999999e289, 1.00000001e-290, 1e291, 1e-291,
                      9.999999999e289, 1e-289, 1.7976931348623157e308, 2.2250738585072014e-308])
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310, 2.5e-320])
    values = np.concatenate(near + halves + [whole, scaled, edges, special])
    return np.concatenate((values, -values))


def test_formatter_matches_format_on_adversarial_values():
    assert_formats_like_format(adversarial_values())


def test_formatter_mixes_fast_and_fallback_values_in_one_band():
    """Every other value of a band falls back to ``format``; blank power cells
    of excluded pixels sit among both."""
    rng = np.random.default_rng(3)
    nx, ny = 64, 32
    fld = synthetic_field(nx, ny, [(r, c) for r in range(ny) for c in range(0, nx, 5)])
    slow = np.array([math.nan, 0.0, -0.0, math.inf, 1e300, -1e-300, 5e-324, 123456789.5])
    for name in ("serving_distance", "rfp_serving", "rfp_total"):
        column = getattr(fld, name).reshape(-1)
        column[:] = rng.random(column.size) * 10.0 ** rng.integers(-20, 20, column.size)
        column[::2] = slow[rng.integers(0, len(slow), column[::2].size)]
    assert export_field_csv(fld) == per_cell_oracle(fld)


@pytest.mark.parametrize("tile", [2**11, 1], ids=["2^11", "1"])
@pytest.mark.parametrize("nx,ny,excluded_at", [
    (37, 120, [(0, 0), (55, 36), (119, 20)]),  # several bands of whole rows
    (2**11 + 3, 1, [(0, 2**11)]),  # a row wider than a band
    (1, 300, [(0, 0), (299, 0)]),  # a single column
    (1, 1, []),  # a single pixel
], ids=["rows", "wide-rows", "column", "pixel"])
def test_band_and_chunk_size_leave_the_bytes_unchanged(monkeypatch, tile, nx, ny, excluded_at):
    """Bands of 2**11 and of 1 pixel give the bytes of the per-cell
    reference; serving ids go up to 10**6."""
    fld = synthetic_field(nx, ny, excluded_at)
    ids = fld.serving_site.reshape(-1)
    ids[:] = np.random.default_rng(nx + ny).integers(0, 10**6 + 1, ids.size)
    ids[-1] = 10**6
    monkeypatch.setattr(gridsim, "TILE_PIXELS", tile)
    text = banded_csv(fld)
    assert text == per_cell_oracle(fld)
    assert text.count(CSV_HEADER) == 1


def test_serving_ids_past_the_lookup_table():
    """Ids from 10**4 on are written without the table of small ids."""
    fld = synthetic_field(50, 4, [(1, 1)])
    fld.serving_site.reshape(-1)[:] = np.arange(9_990, 9_990 + 200)
    assert export_field_csv(fld) == per_cell_oracle(fld)
