"""Self-validation suite: cross-checks the closed forms, the geometry
constants, the propagation identities, and the lattice simulator against each
other. Everything is seeded, so repeated runs are byte-for-byte reproducible.
"""

from __future__ import annotations

from . import DEFAULT_MC_SAMPLES, DEFAULT_SEED
from ._record import record
from .comparison import CLOSED_FORM_RTOL, verify_closed_forms
from .geometry import LayoutKind, TESSELLATING_KINDS, estimate_alpha_monte_carlo
from .gridsim import compute_field, empirical_alpha, generate_sites, verify_upper_bound
from .propagation import Deployment, NeighborMode, emitted_power, received_power, rfp_fixed

#: Absolute floor for the Monte Carlo alpha tolerance; below the floor the
#: tolerance follows the sample's own standard error (5 sigma), so the check
#: stays sound at any sample count.
MC_ALPHA_TOL = 1e-3


@record
class CheckResult:
    """Outcome of one self-validation check."""

    family: str
    name: str
    passed: bool
    detail: str


def _closed_form_checks() -> list[CheckResult]:
    checks = verify_closed_forms()
    results = []
    by_key: dict[tuple[str, str], list] = {}
    for c in checks:
        by_key.setdefault((c.scenario_id, c.metric.value), []).append(c)
    for (sid, metric), group in sorted(by_key.items()):
        worst = max(g.relative_error for g in group)
        results.append(
            CheckResult(
                family="closed-form",
                name=f"{sid}/{metric}",
                passed=all(g.passed for g in group),
                detail=f"max relative error {worst:.3e} (tol {CLOSED_FORM_RTOL:.0e})",
            )
        )
    return results


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
