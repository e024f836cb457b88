"""Self-validation suite: cross-checks the closed forms, the geometry
constants (against a Monte Carlo re-derivation of the mean site-to-point
distance), the propagation identities, and the lattice simulator against each
other. Everything is seeded, so repeated runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import math

from . import DEFAULT_MC_SAMPLES, DEFAULT_SEED
from ._record import record
from .comparison import CLOSED_FORM_RTOL, verify_closed_forms
from .geometry import _BOUNDING_BOX, TESSELLATING_KINDS, LayoutKind, _hexagon_mask, _usable_cpus
from .gridsim import compute_field, empirical_alpha, generate_sites, verify_upper_bound
from .propagation import (Deployment, NeighborMode, emitted_power, range_violations,
                          received_power, refuse, rfp_fixed)

#: Absolute floor for the Monte Carlo alpha tolerance; below the floor the
#: tolerance follows the sample's own standard error (5 sigma), so the check
#: stays sound at any sample count.
MC_ALPHA_TOL = 1e-3


_MC_CHUNK = 1 << 20  # candidate points drawn per rejection round
# Candidates per block, whatever the worker count, so the bits do not depend on
# it; a worker's rows (0.81 MiB) stay in cache. A block holds the GIL for 25-55 us
# of its 0.3-0.75 ms (one worker), so more than 8 workers would mostly queue on it.
_MC_BLOCK = 1 << 15
_MC_MAX_WORKERS = 8


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
    refuse(range_violations(fields=[("n_samples", n_samples), ("seed", seed)]))
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


@record
class CheckResult:
    """Outcome of one self-validation check."""

    family: str
    name: str
    passed: bool
    detail: str


def _closed_form_checks() -> list[CheckResult]:
    """One result per built-in scenario and metric, over every layout and mode."""
    by_key: dict[tuple[str, str], list] = {}
    for c in verify_closed_forms():
        by_key.setdefault((c.scenario_id, c.metric.value), []).append(c)
    return [CheckResult("closed-form", f"{sid}/{metric}", all(g.passed for g in group),
                        f"max relative error {max(g.relative_error for g in group):.3e} "
                        f"(tol {CLOSED_FORM_RTOL:.0e})")
            for (sid, metric), group in sorted(by_key.items())]


def _geometry_checks(seed: int, mc_samples: int) -> list[CheckResult]:
    results = []
    for i, kind in enumerate(LayoutKind):
        estimate, stderr = estimate_alpha_monte_carlo(kind, mc_samples, seed + i)
        err = abs(estimate - kind.alpha)
        tol = max(MC_ALPHA_TOL, 5.0 * stderr)
        results.append(
            CheckResult(
                family="geometry",
                name=f"monte-carlo-alpha-{kind.value}",
                passed=err <= tol,
                detail=(
                    f"estimate {estimate:.6f} vs {kind.alpha:.6f} "
                    f"(|err| {err:.2e}, stderr {stderr:.2e}, tol {tol:.2e})"
                ),
            )
        )
    below = all(k.alpha < k.zeta for k in TESSELLATING_KINDS)
    results.append(
        CheckResult(
            family="geometry",
            name="alpha-below-zeta",
            passed=below,
            detail="alpha < zeta for every tessellating layout",
        )
    )
    order = [k.alpha for k in LayoutKind]
    increasing = order == sorted(order) and len(set(order)) == len(order)
    results.append(
        CheckResult(
            family="geometry",
            name="alpha-ordering",
            passed=increasing,
            detail="highway < square < hexagonal < circle",
        )
    )
    return results


def _random_deployment(rng: np.random.Generator) -> Deployment:
    return Deployment(
        d_max=float(rng.uniform(10.0, 2000.0)),
        p_r_th=float(rng.uniform(0.01, 10.0)),
        gamma=float(rng.uniform(1.5, 6.5)),
        f=float(rng.uniform(400.0, 6000.0)),
        eta=float(rng.uniform(0.0, 4.0)),
        c=float(rng.uniform(0.1, 10.0)),
    )


def _propagation_checks(seed: int) -> list[CheckResult]:
    import numpy as np
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        dep = _random_deployment(rng)
        back = received_power(emitted_power(dep), dep.d_max, dep.gamma, dep.f, dep.eta, dep.c)
        worst = max(worst, abs(back - dep.p_r_th) / dep.p_r_th)
    edge = CheckResult(
        family="propagation",
        name="edge-closure",
        passed=worst <= 1e-12,
        detail=f"max relative error {worst:.3e} over 100 random deployments (tol 1e-12)",
    )

    dep = Deployment(d_max=500.0, p_r_th=1.0, gamma=3.0, f=700.0)
    monotone = True
    for layout in TESSELLATING_KINDS:
        betas = [0.02 * k for k in range(1, 31)]
        values = [rfp_fixed(dep, layout, b, NeighborMode.NONE) for b in betas]
        monotone &= all(a > b for a, b in zip(values, values[1:]))
    beta_mono = CheckResult(
        family="propagation",
        name="beta-monotonicity",
        passed=monotone,
        detail="fixed-distance power strictly decreases in beta (all layouts)",
    )

    ordering = True
    for layout in TESSELLATING_KINDS:
        ordering &= rfp_fixed(dep, layout, 0.05, NeighborMode.ADJACENT) > rfp_fixed(
            dep, layout, 0.05, NeighborMode.NONE
        )
    mode_order = CheckResult(
        family="propagation",
        name="neighbor-mode-ordering",
        passed=ordering,
        detail="adjacent-mode power exceeds neighbor-free power",
    )
    return [edge, beta_mono, mode_order]


def _simulation_checks() -> list[CheckResult]:
    dep = Deployment(d_max=500.0, p_r_th=1.0, gamma=3.0, f=700.0)
    lattice = generate_sites(LayoutKind.HEXAGONAL, dep.d_max, rings=2)
    fld = compute_field(lattice, dep, resolution=20.0)
    violations = len(verify_upper_bound(fld, dep, LayoutKind.HEXAGONAL))
    bound_check = CheckResult(
        family="simulation",
        name="hexagonal-upper-bound",
        passed=not violations,
        detail=(
            f"{violations} violations over {fld.n_pixels} pixels "
            f"({fld.n_excluded} excluded)"
        ),
    )
    emp = empirical_alpha(lattice, resolution=5.0)
    err = abs(emp - LayoutKind.HEXAGONAL.alpha)
    alpha_check = CheckResult(
        family="simulation",
        name="empirical-alpha-hexagonal",
        passed=err <= 0.005,
        detail=f"empirical {emp:.6f} vs closed form (|err| {err:.2e}, tol 5e-3)",
    )
    return [bound_check, alpha_check]


def run_validation(
    seed: int = DEFAULT_SEED, mc_samples: int = DEFAULT_MC_SAMPLES
) -> list[CheckResult]:
    """Run every check family and return the ordered results."""
    results: list[CheckResult] = []
    results.extend(_closed_form_checks())
    results.extend(_geometry_checks(seed, mc_samples))
    results.extend(_propagation_checks(seed))
    results.extend(_simulation_checks())
    return results
