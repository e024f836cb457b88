"""Geometry module: layout constants, cell membership, Monte Carlo alpha."""

from __future__ import annotations

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rfpcompare import (
    LayoutKind,
    NoTessellationError,
    TESSELLATING_KINDS,
    estimate_alpha_monte_carlo,
)
from rfpcompare.geometry import _BOUNDING_BOX, _hexagon_mask, contains_mask
from rfpcompare.selfcheck import _MC_BLOCK, _MC_CHUNK

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Published 4-decimal values for the mean-distance coefficient.
ALPHA_TABLE = {
    LayoutKind.HIGHWAY: 0.5,
    LayoutKind.SQUARE: 0.5411,
    LayoutKind.HEXAGONAL: 0.6080,
    LayoutKind.CIRCLE: 0.6667,
}

# numpy 2.0 added np.trapezoid and 2.4 removed np.trapz; pyproject allows >=1.24.
_trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def sector_alpha(apothem: float, half_angle: float) -> float:
    """Quadrature oracle: mean distance over a regular polygon, by symmetry
    reduced to one edge sector with boundary r(t) = apothem / cos(t)."""
    theta = np.linspace(-half_angle, half_angle, 400_001)
    r = apothem / np.cos(theta)
    return float(_trapz(r**3 / 3.0, theta) / _trapz(r**2 / 2.0, theta))


def point_in_polygon(vertices: list[tuple[float, float]], x: float, y: float) -> bool:
    """Even-odd ray-casting oracle, independent of the half-plane tests."""
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
            if x < xi:
                inside = not inside
    return inside


HEX_VERTICES = [
    (math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)
]
SQUARE_VERTICES = [
    (1 / SQRT2, 1 / SQRT2),
    (-1 / SQRT2, 1 / SQRT2),
    (-1 / SQRT2, -1 / SQRT2),
    (1 / SQRT2, -1 / SQRT2),
]


# -- closed-form constants ----------------------------------------------------


def test_alpha_matches_published_table_to_4_decimals():
    """Each closed-form alpha rounds to the published 4-decimal value."""
    for kind, expected in ALPHA_TABLE.items():
        assert abs(kind.alpha - expected) <= 5e-5, kind


def test_alpha_matches_quadrature_oracle():
    """Closed forms agree with direct numeric integration over the cell."""
    assert LayoutKind.HIGHWAY.alpha == 0.5
    assert abs(LayoutKind.SQUARE.alpha - sector_alpha(1 / SQRT2, math.pi / 4)) < 1e-9
    assert abs(LayoutKind.HEXAGONAL.alpha - sector_alpha(SQRT3 / 2, math.pi / 6)) < 1e-9
    assert abs(LayoutKind.CIRCLE.alpha - 2.0 / 3.0) == 0.0


def test_zeta_values():
    assert LayoutKind.HIGHWAY.zeta == 1.0
    assert abs(LayoutKind.SQUARE.zeta - 0.70711) <= 1e-5
    assert LayoutKind.SQUARE.zeta == 1.0 / SQRT2
    assert LayoutKind.HEXAGONAL.zeta == SQRT3 / 2.0


def test_circle_has_no_tessellation_constants():
    assert [k for k in LayoutKind if k.tessellates] == list(TESSELLATING_KINDS)
    with pytest.raises(NoTessellationError, match="circle layout does not tessellate: zeta"):
        LayoutKind.CIRCLE.zeta
    with pytest.raises(NoTessellationError, match="tessellate: neighbor count is undefined"):
        LayoutKind.CIRCLE.n_neighbors


def test_neighbor_counts():
    assert LayoutKind.HIGHWAY.n_neighbors == 2
    assert LayoutKind.SQUARE.n_neighbors == 8
    assert LayoutKind.HEXAGONAL.n_neighbors == 6


def test_alpha_below_zeta_for_tessellating_layouts():
    for kind in TESSELLATING_KINDS:
        assert kind.alpha < kind.zeta, kind


def test_alpha_ordering_across_layouts():
    """highway < square < hexagonal < circle."""
    values = [
        k.alpha
        for k in (
            LayoutKind.HIGHWAY,
            LayoutKind.SQUARE,
            LayoutKind.HEXAGONAL,
            LayoutKind.CIRCLE,
        )
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


# -- cell membership ----------------------------------------------------------


def test_cell_contains_examples():
    assert contains_mask(LayoutKind.HEXAGONAL, 0.0, 0.0)
    assert not contains_mask(LayoutKind.SQUARE, 1.01, 0.0)
    # Flat-topped hexagon has a vertex on the x axis, so this is inside.
    assert contains_mask(LayoutKind.HEXAGONAL, 0.99, 0.0)
    assert contains_mask(LayoutKind.HEXAGONAL, 1.0, 0.0)
    assert not contains_mask(LayoutKind.HEXAGONAL, 0.99, 0.5)


def test_cell_contains_square_is_axis_aligned_with_unit_circumradius():
    h = 1 / SQRT2
    assert contains_mask(LayoutKind.SQUARE, h, h)  # vertex, distance 1
    assert not contains_mask(LayoutKind.SQUARE, h + 1e-9, 0.0)
    assert contains_mask(LayoutKind.SQUARE, h - 1e-9, 0.0)


def test_cell_contains_highway_is_a_segment():
    assert contains_mask(LayoutKind.HIGHWAY, 0.5, 0.0)
    assert contains_mask(LayoutKind.HIGHWAY, -1.0, 0.0)
    assert not contains_mask(LayoutKind.HIGHWAY, 0.5, 1e-9)
    assert not contains_mask(LayoutKind.HIGHWAY, 1.0001, 0.0)


def test_cell_contains_circle():
    assert contains_mask(LayoutKind.CIRCLE, 0.6, 0.6)
    assert not contains_mask(LayoutKind.CIRCLE, 0.8, 0.8)


@pytest.mark.parametrize(
    "kind,vertices",
    [(LayoutKind.HEXAGONAL, HEX_VERTICES), (LayoutKind.SQUARE, SQUARE_VERTICES)],
)
def test_cell_contains_matches_ray_casting_oracle(kind, vertices):
    """Half-plane membership agrees with an independent polygon test."""
    rng = np.random.default_rng(411)
    pts = rng.uniform(-1.2, 1.2, size=(20_000, 2))
    for x, y in pts:
        assert contains_mask(kind, x, y) == point_in_polygon(vertices, x, y), (x, y)


def test_cell_contains_hexagon_symmetry():
    """Membership is invariant under the hexagon's 12 symmetries."""
    rng = np.random.default_rng(77)
    pts = rng.uniform(-1.2, 1.2, size=(2_000, 2))
    for x, y in pts:
        member = contains_mask(LayoutKind.HEXAGONAL, x, y)
        for k in range(6):
            c, s = math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)
            rx, ry = c * x - s * y, s * x + c * y
            assert contains_mask(LayoutKind.HEXAGONAL, rx, ry) == member
            assert contains_mask(LayoutKind.HEXAGONAL, rx, -ry) == member


def test_cell_contains_square_symmetry():
    """Membership is invariant under the square's 8 symmetries."""
    rng = np.random.default_rng(78)
    pts = rng.uniform(-1.2, 1.2, size=(2_000, 2))
    for x, y in pts:
        member = contains_mask(LayoutKind.SQUARE, x, y)
        for rx, ry in ((y, -x), (-x, -y), (-y, x)):
            assert contains_mask(LayoutKind.SQUARE, rx, ry) == member
        assert contains_mask(LayoutKind.SQUARE, x, -y) == member


def half_plane_hexagon(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The hexagon's three edge pairs, each tested on its own."""
    return (
        (np.abs(y) <= SQRT3 / 2.0)
        & (np.abs(SQRT3 * x + y) <= SQRT3)
        & (np.abs(SQRT3 * x - y) <= SQRT3)
    )


def hexagon_boundary_points(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Points on the slanted edges (x from y) and on the flat ones
    (y = +-sqrt(3)/2), then every vertex, all nudged by -4..4 ulps in each
    coordinate."""
    t = rng.uniform(-SQRT3 / 2.0, SQRT3 / 2.0, 20_000)
    edge_x = (SQRT3 - np.abs(t)) / SQRT3
    flat_x = rng.uniform(-0.5, 0.5, 20_000)
    bx = np.concatenate([edge_x, -edge_x, edge_x, -edge_x, flat_x, flat_x,
                         [v[0] for v in HEX_VERTICES]])
    by = np.concatenate([t, t, -t, -t, np.full(20_000, SQRT3 / 2.0),
                         np.full(20_000, -SQRT3 / 2.0), [v[1] for v in HEX_VERTICES]])
    nudge = np.arange(-4, 5)
    near_x = bx[:, None, None] + nudge[:, None] * np.spacing(bx)[:, None, None]
    near_y = by[:, None, None] + nudge * np.spacing(by)[:, None, None]
    near_x, near_y = np.broadcast_arrays(near_x, near_y)
    return near_x.ravel(), near_y.ravel()


def test_hexagon_mask_is_bit_identical_to_three_edge_pairs():
    """The folded slanted-edge test accepts exactly the same points, random
    ones and ones within a few ulps of every edge and vertex."""
    rng = np.random.default_rng(2718)
    x = rng.uniform(-1.2, 1.2, 2_000_000)
    y = rng.uniform(-1.2, 1.2, 2_000_000)
    near_x, near_y = hexagon_boundary_points(rng)
    x = np.concatenate([x, near_x])
    y = np.concatenate([y, near_y])
    mask = contains_mask(LayoutKind.HEXAGONAL, x, y)
    expected = half_plane_hexagon(x, y)
    assert np.array_equal(mask, expected)
    # The boundary points really straddle the edges.
    assert 0 < np.count_nonzero(mask[-near_x.size:]) < near_x.size


# -- Monte Carlo --------------------------------------------------------------


def scale_in_place(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Doubles of ``rng.random`` made uniform on [lo, hi) as the estimator
    makes its draws: multiplied by hi - lo, then shifted by lo, in place."""
    u *= hi - lo
    u += lo
    return u


# The premises of the estimator's draw path. The bit-identity tests below
# compare it with oracles; these name the assumption that broke, if one does.


@pytest.mark.parametrize("kind", list(LayoutKind))
@pytest.mark.parametrize("seed", [0, 58121])
def test_random_scaled_in_place_is_bit_identical_to_uniform(kind, seed):
    """numpy's uniform computes lo + (hi - lo) * u from the doubles random
    gives. A build that fused the multiply and the add would round
    differently, and every estimate and `validate` report would change."""
    for lo, hi in _BOUNDING_BOX[kind]:
        expected = np.random.default_rng(seed).uniform(lo, hi, 2**20)
        drawn = scale_in_place(np.random.default_rng(seed).random(2**20), lo, hi)
        assert drawn.tobytes() == expected.tobytes(), (lo, hi)


def test_square_box_accepts_every_draw():
    """The estimator skips the square's mask. Every draw from its bounding
    box, the extremes of u in [0, 1) included, lies in the cell."""
    (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[LayoutKind.SQUARE]
    u = np.array([0.0, 2.0**-53, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                  1.0 - 2.0**-53])
    x, y = np.meshgrid(scale_in_place(u.copy(), x_lo, x_hi), scale_in_place(u, y_lo, y_hi))
    assert contains_mask(LayoutKind.SQUARE, x, y).all()
    rng = np.random.default_rng(12)
    x = scale_in_place(rng.random(2**20), x_lo, x_hi)
    y = scale_in_place(rng.random(2**20), y_lo, y_hi)
    assert contains_mask(LayoutKind.SQUARE, x, y).all()


def test_circle_d2_test_accepts_what_contains_mask_accepts():
    """The estimator masks the circle with d2 <= 1.0 on the x*x + y*y it
    forms for the distances, the expression contains_mask evaluates. Random
    draws and points on the unit circle, where d2 rounds either way."""
    rng = np.random.default_rng(13)
    (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[LayoutKind.CIRCLE]
    t = rng.uniform(0.0, 2.0 * math.pi, 20_000)
    x = np.concatenate([scale_in_place(rng.random(2**20), x_lo, x_hi), np.cos(t)])
    y = np.concatenate([scale_in_place(rng.random(2**20), y_lo, y_hi), np.sin(t)])
    expected = contains_mask(LayoutKind.CIRCLE, x, y)
    d2 = x * x
    d2 += y * y
    assert np.array_equal(d2 <= 1.0, expected)
    # The points on the circle really straddle it.
    assert 0 < np.count_nonzero(expected[-t.size:]) < t.size


def test_hexagon_helper_on_scratch_is_bit_identical_to_contains_mask():
    """The estimator runs the hexagon test in its per-worker scratch, one
    block at a time: rows reused for every block, left dirty by the last one.
    It accepts what contains_mask accepts, on scaled draws, on points within a
    few ulps of every edge and vertex, and on signed zeros, and leaves |x| and
    |y| in the x and y rows."""
    rng = np.random.default_rng(14)
    (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[LayoutKind.HEXAGONAL]
    near_x, near_y = hexagon_boundary_points(rng)
    zero_x = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 0.0, -0.0])
    zero_y = np.array([0.0, 0.0, -0.0, -0.0, -0.0, -0.0, SQRT3 / 2, SQRT3 / 2, -SQRT3 / 2, -SQRT3 / 2])
    x = np.concatenate([scale_in_place(rng.random(2**20), x_lo, x_hi), near_x, zero_x])
    y = np.concatenate([scale_in_place(rng.random(2**20), y_lo, y_hi), near_y, zero_y])
    expected = contains_mask(LayoutKind.HEXAGONAL, x, y)
    rows = (np.full(_MC_BLOCK, np.nan), np.full(_MC_BLOCK, np.nan), np.ones(_MC_BLOCK, bool),
            np.full(_MC_BLOCK, np.nan), np.ones(_MC_BLOCK, bool))
    for start in range(0, x.size, _MC_BLOCK):
        stop = min(start + _MC_BLOCK, x.size)
        bx, by, keep, t, flag = (row[:stop - start] for row in rows)
        bx[:] = x[start:stop]
        by[:] = y[start:stop]
        assert _hexagon_mask(bx, by, t, flag, keep) is keep
        assert keep.tobytes() == expected[start:stop].tobytes(), start
        assert bx.tobytes() == np.abs(x[start:stop]).tobytes()
        assert by.tobytes() == np.abs(y[start:stop]).tobytes()
    # The points near the boundary really straddle it.
    assert 0 < np.count_nonzero(expected[2**20:]) < expected.size - 2**20


def full_array_oracle(kind: LayoutKind, n_samples: int, seed: int) -> tuple[float, float]:
    """The estimator as it was before it streamed: every accepted distance in
    one array, then numpy's mean and std. Same draws and acceptance rule."""
    rng = np.random.default_rng(seed)
    if kind is LayoutKind.HIGHWAY:
        d = np.abs(rng.uniform(-1.0, 1.0, n_samples))
    else:
        (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[kind]
        d = np.empty(n_samples)
        filled = 0
        while filled < n_samples:
            m = min(_MC_CHUNK, max(2 * (n_samples - filled), 4096))
            x = rng.uniform(x_lo, x_hi, m)
            y = rng.uniform(y_lo, y_hi, m)
            keep = contains_mask(kind, x, y)
            take = min(int(keep.sum()), n_samples - filled)
            d[filled : filled + take] = np.hypot(x[keep][:take], y[keep][:take])
            filled += take
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(n_samples))


def chunked_oracle(kind: LayoutKind, n_samples: int, seed: int) -> tuple[float, float]:
    """The streamed estimator as it was before it drew in blocks: each chunk's
    x and y drawn as whole arrays, one after the other, then masked, squared
    and compressed at once. Same chunk statistics and merge."""
    rng = np.random.default_rng(seed)
    if kind is not LayoutKind.HIGHWAY:
        (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[kind]
    count, mean, m2 = 0, 0.0, 0.0
    while count < n_samples:
        remaining = n_samples - count
        if kind is LayoutKind.HIGHWAY:
            d = rng.uniform(-1.0, 1.0, min(_MC_CHUNK, remaining))
            np.abs(d, out=d)
        else:
            m = min(_MC_CHUNK, max(2 * remaining, 4096))
            x = rng.uniform(x_lo, x_hi, m)
            y = rng.uniform(y_lo, y_hi, m)
            keep = contains_mask(kind, x, y)
            np.multiply(x, x, out=x)
            np.multiply(y, y, out=y)
            np.add(x, y, out=x)
            d = np.compress(keep, x)[:remaining]
            np.sqrt(d, out=d)
        n_chunk = d.size
        mean_chunk = float(d.mean())
        d -= mean_chunk
        total = count + n_chunk
        delta = mean_chunk - mean
        mean += delta * n_chunk / total
        m2 += float(np.einsum("i,i->", d, d)) + delta * delta * count * n_chunk / total
        count = total
    return mean, math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)


def block_oracle(kind: LayoutKind, n_samples: int, seed: int) -> tuple[float, float]:
    """The estimator's reduction order on chunked_oracle's draws: each chunk's
    x and y drawn as whole arrays, masked, squared and compressed at once,
    then the count, mean and centred sum of squares of each _MC_BLOCK-candidate
    block (only the points still owed, in the block that crosses n_samples)
    merged in block order. An empty block changes nothing."""
    rng = np.random.default_rng(seed)
    if kind is not LayoutKind.HIGHWAY:
        (x_lo, x_hi), (y_lo, y_hi) = _BOUNDING_BOX[kind]
    count, mean, m2 = 0, 0.0, 0.0
    while count < n_samples:
        remaining = n_samples - count
        if kind is LayoutKind.HIGHWAY:
            d = rng.uniform(-1.0, 1.0, min(_MC_CHUNK, remaining))
            np.abs(d, out=d)
            keep = np.ones(d.size, bool)
        else:
            m = min(_MC_CHUNK, max(2 * remaining, 4096))
            x = rng.uniform(x_lo, x_hi, m)
            y = rng.uniform(y_lo, y_hi, m)
            keep = contains_mask(kind, x, y)
            np.multiply(x, x, out=x)
            np.multiply(y, y, out=y)
            d = np.sqrt(np.add(x, y, out=x), out=x)
        for start in range(0, d.size, _MC_BLOCK):
            block = d[start:start + _MC_BLOCK][keep[start:start + _MC_BLOCK]][:n_samples - count]
            n = block.size
            block_mean = float(block.mean()) if n else 0.0
            block -= block_mean
            total = count + n
            delta = block_mean - mean
            mean += delta * n / total
            m2 += float(np.einsum("i,i->", block, block)) + delta * delta * count * n / total
            count = total
    return mean, math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)


# 1.5 chunks + 5 leave a little over half a chunk owed after the first chunk even
# if all its candidates are accepted, so the next chunk is queued ahead: whole for
# the cells that reject, exactly what is owed for the highway.
MC_SIZES = [1000, 4096, _MC_CHUNK, _MC_CHUNK + 1, _MC_CHUNK + _MC_CHUNK // 2 + 5, 3 * _MC_CHUNK + 17]


@pytest.mark.parametrize("kind", list(LayoutKind))
@pytest.mark.parametrize("n_samples", MC_SIZES)
@pytest.mark.parametrize("seed", [0, 58121])
def test_monte_carlo_blocks_are_bit_identical_to_whole_chunks(kind, n_samples, seed):
    """Drawing each chunk in blocks, with y from an advanced copy of the
    stream, keeps every draw, so the estimate has every bit of the oracle
    that reduces whole-chunk draws block by block. Reducing per block instead
    of per chunk moves only the last bits."""
    result = estimate_alpha_monte_carlo(kind, n_samples, seed)
    assert result == block_oracle(kind, n_samples, seed)
    assert result == pytest.approx(chunked_oracle(kind, n_samples, seed), rel=1e-14, abs=0)


@pytest.mark.parametrize("kind", list(LayoutKind))
@pytest.mark.parametrize("n_samples", MC_SIZES)
def test_monte_carlo_matches_full_array_oracle(kind, n_samples):
    """Exact chunk multiples and short last chunks give the oracle's numbers."""
    estimate, stderr = estimate_alpha_monte_carlo(kind, n_samples, 31)
    oracle_estimate, oracle_stderr = full_array_oracle(kind, n_samples, 31)
    assert estimate == pytest.approx(oracle_estimate, rel=1e-14, abs=0)
    assert stderr == pytest.approx(oracle_stderr, rel=1e-14, abs=0)


@pytest.mark.parametrize("kind", list(LayoutKind))
def test_monte_carlo_memory_does_not_grow_with_samples(kind):
    """4e6 samples peak below 48 MiB; one array of them alone is 30.5 MiB."""
    tracemalloc.start()
    try:
        estimate_alpha_monte_carlo(kind, 4_000_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind", list(LayoutKind))
def test_monte_carlo_frees_each_chunk_before_the_next(kind):
    """A chunk's peak is one buffer of _MC_CHUNK squared distances plus one
    block's draws, masks and temporaries. Keeping the previous chunk's
    distances alive while the next is drawn adds a whole chunk array and, in a
    whole `validate`, fragmented the heap for up to 20 MB more peak RSS."""
    tracemalloc.start()
    try:
        estimate_alpha_monte_carlo(kind, 4_000_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * _MC_CHUNK * 8, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind", list(LayoutKind))
def test_monte_carlo_peak_is_one_chunk_buffer_plus_blocks(kind):
    """4e6 samples peak below 1.5 chunk arrays (12 MiB): the chunk's distance
    buffer (8 MiB) and one block's draws and temporaries. Whole-chunk x, y and
    mask temporaries peaked at 33-35 MiB."""
    tracemalloc.start()
    try:
        estimate_alpha_monte_carlo(kind, 4_000_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * _MC_CHUNK * 8, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind", list(LayoutKind))
@pytest.mark.parametrize("n_samples", MC_SIZES)
def test_monte_carlo_is_bit_identical_for_any_worker_count(force_cpus, kind, n_samples):
    """One, two, three or eight workers (the cap, here for 64 CPUs) draw the
    same candidates from the same stream offsets and pack them in the same
    order, so the estimates are equal."""
    results = {}
    for cpus, workers in ((1, 1), (2, 2), (3, 3), (64, 8)):
        sizes = force_cpus(cpus)
        results[cpus] = estimate_alpha_monte_carlo(kind, n_samples, 58121)
        assert sizes == [workers]
    assert results[1] == results[2] == results[3] == results[64]


@pytest.mark.parametrize("kind", [k for k in LayoutKind if k is not LayoutKind.HIGHWAY])
def test_monte_carlo_with_more_workers_than_cpus_under_fast_thread_switching(force_cpus, kind):
    """Stress: eight workers, switching threads every microsecond, share the
    list of scratch sets with the calling thread, which redraws the block
    that crosses n_samples (the highway never has one). One set drawn into
    by two threads at once would mix their draws, and the estimate would
    leave the oracle's."""
    sizes = force_cpus(64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = estimate_alpha_monte_carlo(kind, 2 * _MC_CHUNK + 17, 7)
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [8]
    assert result == block_oracle(kind, 2 * _MC_CHUNK + 17, 7)


@pytest.mark.parametrize("cpus", [1, 3, 4])
@pytest.mark.parametrize("kind", list(LayoutKind))
def test_monte_carlo_peak_holds_for_any_worker_count(force_cpus, kind, cpus):
    """The workers share one block budget, so the peak bound above holds at
    any worker count."""
    sizes = force_cpus(cpus)
    test_monte_carlo_peak_is_one_chunk_buffer_plus_blocks(kind)
    test_monte_carlo_frees_each_chunk_before_the_next(kind)
    assert sizes == [cpus, cpus]


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
@pytest.mark.parametrize("kind", list(LayoutKind))
def test_monte_carlo_peak_is_below_one_chunk_buffer(force_cpus, kind, cpus):
    """Nothing is held at chunk size: 4e6 samples on one, two, three or eight
    workers (the cap) peak below one chunk of doubles (8 MiB), the buffer
    the distances were once packed into. Each worker's scratch is 0.81 MiB."""
    sizes = force_cpus(cpus)
    tracemalloc.start()
    try:
        estimate_alpha_monte_carlo(kind, 4_000_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == [min(cpus, 8)]
    assert peak < _MC_CHUNK * 8, f"{peak / 2**20:.1f} MiB"


# Prints every kind's estimate at 3 chunks and a short fourth, in a child whose
# BLAS thread count is set by its environment.
BLAS_CHILD = """
from rfpcompare import LayoutKind, estimate_alpha_monte_carlo
from rfpcompare.selfcheck import _MC_CHUNK
for kind in LayoutKind:
    print(repr(estimate_alpha_monte_carlo(kind, 3 * _MC_CHUNK + 17, 58121)))
"""


def test_monte_carlo_does_not_depend_on_blas_threads(child_env):
    """np.dot over a chunk gave different bits with one and two BLAS threads;
    the estimator makes no BLAS call, so its output is the same."""
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", BLAS_CHILD],
                              env={**child_env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == len(LayoutKind)
    assert outputs[0] == outputs[1]


def test_monte_carlo_highway_close_to_half():
    """Highway estimate lands within 3 standard errors of 1/2."""
    for seed in (0, 1, 2):
        estimate, stderr = estimate_alpha_monte_carlo(LayoutKind.HIGHWAY, 10**6, seed)
        assert abs(estimate - 0.5) <= 3 * stderr, seed


def test_monte_carlo_hexagonal_within_1e3_at_1e7():
    estimate, _ = estimate_alpha_monte_carlo(LayoutKind.HEXAGONAL, 10**7, 2024)
    assert abs(estimate - LayoutKind.HEXAGONAL.alpha) <= 1e-3


def test_monte_carlo_circle_within_1e3_at_1e7():
    estimate, _ = estimate_alpha_monte_carlo(LayoutKind.CIRCLE, 10**7, 2024)
    assert abs(estimate - 2.0 / 3.0) <= 1e-3


def test_monte_carlo_converges_within_4_stderr_across_10_seeds():
    """|estimate - closed form| <= 4 stderr at 1e7 samples, 10 seeds, all kinds."""
    worst = 0.0
    for seed in range(10):
        for kind in LayoutKind:
            estimate, stderr = estimate_alpha_monte_carlo(kind, 10**7, seed)
            pull = abs(estimate - kind.alpha) / stderr
            worst = max(worst, pull)
            assert pull <= 4.0, (kind, seed, pull)
    print(f"\n  worst Monte Carlo deviation: {worst:.2f} stderr")


def test_monte_carlo_is_deterministic_for_a_seed():
    a = estimate_alpha_monte_carlo(LayoutKind.HEXAGONAL, 50_000, 9)
    b = estimate_alpha_monte_carlo(LayoutKind.HEXAGONAL, 50_000, 9)
    c = estimate_alpha_monte_carlo(LayoutKind.HEXAGONAL, 50_000, 10)
    assert a == b
    assert a != c


def test_monte_carlo_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        estimate_alpha_monte_carlo(LayoutKind.SQUARE, 999, 1)


def test_monte_carlo_refuses_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        estimate_alpha_monte_carlo(LayoutKind.SQUARE, 1000, -1)


def test_monte_carlo_stderr_scale_is_sane():
    """Standard error is close to the analytic std/sqrt(n) for the disc."""
    n = 10**6
    _, stderr = estimate_alpha_monte_carlo(LayoutKind.CIRCLE, n, 5)
    analytic = math.sqrt(0.5 - (2.0 / 3.0) ** 2) / math.sqrt(n)
    assert 0.8 * analytic < stderr < 1.2 * analytic
