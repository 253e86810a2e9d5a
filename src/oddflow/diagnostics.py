"""Rows of the CLI's three tables, each a named tuple whose fields are the
CSV header: observe's diagnostics (conservation, energy functionals,
continuation integrands, residual verifiers), twin-run difference energies
and eps-sweep final-state distances."""

from __future__ import annotations

import collections
import math
import warnings

import numpy as np

from .dynamics import (
    FlowState,
    good_unknowns,
    grad_pi_minus_rho_omega,
    residual_omega,
    residual_theta,
)
from .errors import RuntimeAbort, ValidationError
from .littlewood_paley import sobolev_norm, sobolev_norm_vector
from .pressure import solve_pressure
from .spectral import (
    SpectralScalar,
    SpectralVector,
    dealias,
    dealiased_samples,
    laplacian,
    leray_project,
    l2_norm,
    mismatch,
    sup_magnitude,
)
from .stepping import StepperConfig, run, trajectory

DIAGNOSTIC_FIELDS = (
    "t", "kinetic", "rho_l2", "rho_min", "rho_max", "E", "F", "G",
    "M_integrand", "Mtilde_integrand", "theta_residual", "omega_residual",
    "pressure_iterations",
)
DiagnosticsRecord = collections.namedtuple("DiagnosticsRecord", DIAGNOSTIC_FIELDS)
STABILITY_FIELDS = ("t", "D", "Theta")
StabilityRecord = collections.namedtuple("StabilityRecord", STABILITY_FIELDS)
SWEEP_FIELDS = ("eps_high", "eps_low", "u_distance", "rho_distance")
SweepRecord = collections.namedtuple("SweepRecord", SWEEP_FIELDS)


def kinetic_energy(state: FlowState) -> float:
    """||sqrt(rho) u||_{L2}^2 evaluated on the grid."""
    fl = state.fields
    u1, u2 = fl.u_phys
    h2 = (2.0 * np.pi / state.grid.n) ** 2
    return float(np.sum(fl.rho_phys * (u1 * u1 + u2 * u2)) * h2)


def energy_functionals(state: FlowState, s: float) -> tuple[float, float, float]:
    """E = ||rho-1||_{H^{s+1}} + ||u||_{H^s};
    F = ||rho-1||_{L2} + ||u||_{L2} + ||theta||_{H^{s-1}} + ||omega||_{H^{s-1}};
    G = ||rho-1||^2_{H^s} + ||u||^2_{L2} + ||omega||^2_{H^{s-1}}
        + ||theta||^2_{H^{s-1}}."""
    if s <= 0:
        raise ValidationError("energy functionals need s > 0")
    if s <= 2:
        warnings.warn(f"s = {s} is below the well-posedness range s > 2",
                      RuntimeWarning, stacklevel=2)
    gu = good_unknowns(state)
    # numpy scalars' powers are a float's (libm pow), but one past the float
    # range is inf, which observe rejects, where a float's raises OverflowError
    rho_hs1 = sobolev_norm(state.rho_dev, s + 1.0)
    rho_hs = np.float64(sobolev_norm(state.rho_dev, s))
    rho_l2 = l2_norm(state.rho_dev)
    u_hs = sobolev_norm_vector(state.u, s)
    u_l2 = np.float64(l2_norm(state.u))
    om = np.float64(sobolev_norm(gu.omega, s - 1.0))
    th = np.float64(sobolev_norm(gu.theta, s - 1.0))
    E = rho_hs1 + u_hs
    F = rho_l2 + u_l2 + th + om
    G = rho_hs**2 + u_l2**2 + om**2 + th**2
    return E, F, G


def continuation_monitor(state: FlowState, s: float) -> tuple[float, float]:
    """Integrands of the two continuation criteria.

    M      = |grad u|^2 + |grad rho|^s + |grad rho|^{s-1} |grad u|
             + |Lap rho| + |grad pi|^{s/(s-1)}        (all sup-norms)
    Mtilde = same with |grad rho|^{max(2, s-1)} |grad u| and the pressure
             term using grad(pi - rho*omega).
    The sups are taken on the collocation grid; |grad u| is the pointwise
    Frobenius norm, read with |grad rho| from the state's cache, and the
    band-limited pressure gradients are sampled on the band path.
    """
    if s <= 1:
        raise ValidationError("continuation monitor needs s > 1")
    fl = state.fields
    (d1u1, d1u2), (d2u1, d2u2) = fl.grad_u_phys
    # numpy scalars, as in energy_functionals: a power past the float range is inf
    gu_sup = np.float64(sup_magnitude(d1u1, d2u1, d1u2, d2u2))
    grho_sup = np.float64(sup_magnitude(*fl.grad_rho_phys))
    lap_sup = float(np.max(np.abs(dealiased_samples(state.rho_dev, -state.grid.k_sq))))
    gpi_sup = np.float64(sup_magnitude(*dealiased_samples(state.pressure.grad_pi)))
    greg_sup = np.float64(sup_magnitude(*dealiased_samples(grad_pi_minus_rho_omega(state))))
    p_exp = s / (s - 1.0)
    M = (gu_sup**2 + grho_sup**s + grho_sup ** (s - 1.0) * gu_sup
         + lap_sup + gpi_sup**p_exp)
    Mt = (gu_sup**2 + grho_sup**s + grho_sup ** max(2.0, s - 1.0) * gu_sup
          + lap_sup + greg_sup**p_exp)
    return M, Mt


def observe(state: FlowState, s: float) -> DiagnosticsRecord:
    """Full diagnostics row for one state, from its stored pressure solution
    (solved here if it holds none, and shared with the next step's stage 1);
    RuntimeAbort, naming the columns, when a value is not finite."""
    if not state.solved:
        solve_pressure(state)
    rho = state.fields.rho_phys
    rec = DiagnosticsRecord(
        state.t, kinetic_energy(state), l2_norm(state.rho_dev),
        float(np.min(rho)), float(np.max(rho)), *energy_functionals(state, s),
        *continuation_monitor(state, s), residual_theta(state), residual_omega(state),
        state.pressure.iterations)
    bad = [name for name, v in zip(DIAGNOSTIC_FIELDS, rec) if not math.isfinite(v)]
    if bad:
        raise RuntimeAbort(f"diagnostics {', '.join(bad)} not finite at t = {state.t:.6f}")
    return rec


# ---------------------------------------------------------------------------
# twin-run stability


def stability_record(state_a: FlowState, state_b: FlowState) -> StabilityRecord:
    """D and Theta difference energies of two states at equal times.

    D     = ||d rho||^2 + ||Lap d rho||^2 + ||d u||^2 + ||d omega||^2
    Theta = ||d rho||^2 + ||d u||^2 + ||d omega||^2 + ||d theta||^2
    and the definitional identity Lap(d rho) = d eta - d theta is checked.
    """
    drho = state_a.rho_dev - state_b.rho_dev
    du = state_a.u - state_b.u
    ga = good_unknowns(state_a)
    gb = good_unknowns(state_b)
    domega = ga.omega - gb.omega
    dtheta = ga.theta - gb.theta
    deta = ga.eta - gb.eta

    lap = laplacian(dealias(drho))
    gap = mismatch(lap, deta - dtheta)
    if gap > 1e-10:
        raise ValidationError(f"Lap(d rho) = d eta - d theta violated by {gap:.3e}")

    rho2, lap2, om2, th2 = (l2_norm(f) ** 2 for f in (drho, lap, domega, dtheta))
    u2 = l2_norm(du) ** 2
    return StabilityRecord(state_a.t, rho2 + lap2 + u2 + om2, rho2 + u2 + om2 + th2)


def perturbed_state(initial: FlowState, rho_perturbation: SpectralScalar,
                    u_perturbation: SpectralVector) -> FlowState:
    """initial plus the perturbation, its velocity part Leray-projected."""
    up, _ = leray_project(u_perturbation)
    return FlowState(initial.t, initial.rho_dev + rho_perturbation,
                     initial.u + up, initial.epsilon, initial.odd_sign)


def twin_run_stability(initial: FlowState, perturbed: FlowState, config: StepperConfig,
                       observe_every: int = 1) -> list[StabilityRecord]:
    """Step the base and the perturbed state (perturbed_state) in lockstep
    along stepping.trajectory, one step size for both (config.dt, or
    cfl_safety times the smaller of their CFL bounds), and record the
    difference energies D(t), Theta(t) every observe_every steps and at the
    end, as each pair arrives; no earlier pair is kept."""
    records = []
    for index, pair in trajectory((initial, perturbed), config):
        if index % observe_every == 0:
            records.append(stability_record(*pair))
    if index % observe_every:
        records.append(stability_record(*pair))
    return records


def check_eps_list(eps_list: list[float]) -> None:
    """epsilon_sweep's list rules: two values or more, strictly decreasing, all >= 0."""
    if len(eps_list) < 2:
        raise ValidationError(f"eps_list needs at least two values, got {eps_list}")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    if any(e < 0 for e in eps_list):
        raise ValidationError("eps values must be >= 0")


def epsilon_sweep(initial: FlowState, config: StepperConfig,
                  eps_list: list[float]) -> list[SweepRecord]:
    """Integrate the same initial state for each eps and report pairwise
    final-state L2 distances of u and rho between consecutive eps values."""
    check_eps_list(eps_list)
    finals = [run(FlowState(initial.t, initial.rho_dev, initial.u, eps, initial.odd_sign),
                  config) for eps in eps_list]
    return [SweepRecord(e1, e2, l2_norm(f1.u - f2.u), l2_norm(f1.rho_dev - f2.rho_dev))
            for (e1, f1), (e2, f2) in zip(zip(eps_list, finals),
                                          zip(eps_list[1:], finals[1:]))]
