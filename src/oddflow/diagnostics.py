"""Conservation checks, energy functionals, continuation monitors,
twin-run stability functionals, and eps-sweep convergence studies."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .dynamics import (
    Fields,
    FlowState,
    density_bounds,
    good_unknowns,
    residual_omega,
    residual_theta,
)
from .errors import ValidationError
from .littlewood_paley import sobolev_norm, sobolev_norm_vector
from .pressure import PressureSolution, solve_pressure
from .spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    dealias,
    gradient,
    inverse_transform,
    laplacian,
    leray_project,
    l2_norm,
    l2_norm_vector,
    resample,
    sup_norm,
    sup_norm_vector,
)
from .stepping import StepperConfig, run

DIAGNOSTIC_FIELDS = (
    "t", "kinetic", "rho_l2", "rho_min", "rho_max", "E", "F", "G",
    "M_integrand", "Mtilde_integrand", "theta_residual", "omega_residual",
    "pressure_iterations",
)


class DiagnosticsRecord:
    """One row of the observation table; field order is DIAGNOSTIC_FIELDS."""

    __slots__ = DIAGNOSTIC_FIELDS

    def __init__(self, **kw):
        for name in DIAGNOSTIC_FIELDS:
            setattr(self, name, kw.get(name, float("nan")))

    def values(self):
        return [getattr(self, name) for name in DIAGNOSTIC_FIELDS]


@dataclasses.dataclass(frozen=True)
class StabilityRecord:
    """Difference energies of a twin run at one time."""

    t: float
    D: float
    Theta: float


def kinetic_energy(state: FlowState) -> float:
    """||sqrt(rho) u||_{L2}^2 evaluated on the grid."""
    fl = Fields(state)
    u1, u2 = fl.u_phys
    h2 = (2.0 * np.pi / state.grid.n) ** 2
    return float(np.sum(fl.rho_phys * (u1 * u1 + u2 * u2)) * h2)


def conservation_report(state: FlowState) -> DiagnosticsRecord:
    rmin, rmax = density_bounds(state)
    return DiagnosticsRecord(
        t=state.t,
        kinetic=kinetic_energy(state),
        rho_l2=l2_norm(state.rho_dev),
        rho_min=rmin,
        rho_max=rmax,
    )


def energy_functionals(state: FlowState, s: float,
                       unknowns=None) -> tuple[float, float, float]:
    """E = ||rho-1||_{H^{s+1}} + ||u||_{H^s};
    F = ||rho-1||_{L2} + ||u||_{L2} + ||theta||_{H^{s-1}} + ||omega||_{H^{s-1}};
    G = ||rho-1||^2_{H^s} + ||u||^2_{L2} + ||omega||^2_{H^{s-1}}
        + ||theta||^2_{H^{s-1}}."""
    if s <= 0:
        raise ValidationError("energy functionals need s > 0")
    if s <= 2:
        warnings.warn(f"s = {s} is below the well-posedness range s > 2",
                      RuntimeWarning, stacklevel=2)
    gu = unknowns if unknowns is not None else good_unknowns(state, check=False)
    rho_hs1 = sobolev_norm(state.rho_dev, s + 1.0)
    rho_hs = sobolev_norm(state.rho_dev, s)
    rho_l2 = l2_norm(state.rho_dev)
    u_hs = sobolev_norm_vector(state.u, s)
    u_l2 = l2_norm_vector(state.u)
    om = sobolev_norm(gu.omega, s - 1.0)
    th = sobolev_norm(gu.theta, s - 1.0)
    E = rho_hs1 + u_hs
    F = rho_l2 + u_l2 + th + om
    G = rho_hs**2 + u_l2**2 + om**2 + th**2
    return E, F, G


def continuation_monitor(state: FlowState, pressure_solution: PressureSolution,
                         s: float, oversample: bool = False) -> tuple[float, float]:
    """Integrands of the two continuation criteria.

    M      = |grad u|^2 + |grad rho|^s + |grad rho|^{s-1} |grad u|
             + |Lap rho| + |grad pi|^{s/(s-1)}        (all sup-norms)
    Mtilde = same with |grad rho|^{max(2, s-1)} |grad u| and the pressure
             term using grad(pi - rho*omega).
    """
    if s <= 1:
        raise ValidationError("continuation monitor needs s > 1")
    gu_sup = _grad_u_sup(state, oversample)
    grho_sup = sup_norm_vector(gradient(dealias(state.rho_dev)), oversample)
    lap_sup = sup_norm(laplacian(dealias(state.rho_dev)), oversample)
    gpi_sup = sup_norm_vector(pressure_solution.grad_pi, oversample)
    greg_sup = sup_norm_vector(pressure_solution.grad_pi_minus_rho_omega, oversample)
    p_exp = s / (s - 1.0)
    M = (gu_sup**2 + grho_sup**s + grho_sup ** (s - 1.0) * gu_sup
         + lap_sup + gpi_sup**p_exp)
    Mt = (gu_sup**2 + grho_sup**s + grho_sup ** max(2.0, s - 1.0) * gu_sup
          + lap_sup + greg_sup**p_exp)
    return M, Mt


def _grad_u_sup(state: FlowState, oversample: bool) -> float:
    """Sup of the pointwise Frobenius norm of grad u."""
    g = state.grid
    fine = Grid(2 * g.n) if oversample else g
    comps = [
        inverse_transform(resample(SpectralScalar(g, 1j * kk * dealias(cc).coeffs), fine))
        for cc, kk in ((state.u.x1, g.k1), (state.u.x1, g.k2),
                       (state.u.x2, g.k1), (state.u.x2, g.k2))
    ]
    return float(np.max(np.sqrt(sum(c * c for c in comps))))


def observe(state: FlowState, s: float) -> DiagnosticsRecord:
    """Full diagnostics row for one state (solves the pressure afresh)."""
    fl = Fields(state)
    psol = solve_pressure(state, fields=fl)
    gu = good_unknowns(state, check=False)
    E, F, G = energy_functionals(state, s, unknowns=gu)
    M, Mt = continuation_monitor(state, psol, s)
    rec = conservation_report(state)
    rec.E, rec.F, rec.G = E, F, G
    rec.M_integrand, rec.Mtilde_integrand = M, Mt
    rec.pressure_iterations = psol.iterations
    rec.theta_residual = residual_theta(state, psol.grad_pi)
    rec.omega_residual = residual_omega(state, psol)
    return rec


def norm_equivalence_ratios(state: FlowState, s: float) -> tuple[float, float]:
    """Measured ratios F / (E(1+E)) and E / (F(1+F^{s-1})).

    The two-sided comparability of E and F holds with unspecified constants,
    so these are reported (and bounded empirically in the tests), never
    asserted against analytic values.
    """
    E, F, _ = energy_functionals(state, s)
    if E == 0.0 or F == 0.0:
        return 0.0, 0.0
    return F / (E * (1.0 + E)), E / (F * (1.0 + F ** (s - 1.0)))


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
    ga = good_unknowns(state_a, check=False)
    gb = good_unknowns(state_b, check=False)
    domega = ga.omega - gb.omega
    dtheta = ga.theta - gb.theta
    deta = ga.eta - gb.eta

    lap = laplacian(dealias(drho))
    rhs = deta - dtheta
    err = l2_norm(lap - rhs)
    scale = max(l2_norm(lap), l2_norm(rhs), 1.0)
    if err > 1e-10 * scale:
        raise ValidationError(
            f"Lap(d rho) = d eta - d theta violated by {err / scale:.3e}")

    nrho = l2_norm(drho)
    nlap = l2_norm(lap)
    nu = l2_norm_vector(du)
    nom = l2_norm(domega)
    nth = l2_norm(dtheta)
    D = nrho**2 + nlap**2 + nu**2 + nom**2
    Theta = nrho**2 + nu**2 + nom**2 + nth**2
    return StabilityRecord(t=state_a.t, D=D, Theta=Theta)


def twin_run_stability(initial: FlowState, config: StepperConfig,
                       rho_perturbation: SpectralScalar,
                       u_perturbation: SpectralVector,
                       observe_every: int = 1) -> list[StabilityRecord]:
    """Run the base and perturbed trajectories side by side and collect the
    difference energies D(t), Theta(t)."""
    up, _ = leray_project(u_perturbation)  # keep the perturbed state admissible
    pert = FlowState(initial.t, initial.rho_dev + rho_perturbation,
                     initial.u + up, initial.epsilon, initial.odd_sign)

    base_states: list[FlowState] = []
    pert_states: list[FlowState] = []

    def grab(bucket, every):
        def obs(state, idx):
            if idx % every == 0:
                bucket.append(state.copy())
        return obs

    final_a = run(initial, config, observers=[grab(base_states, observe_every)])
    final_b = run(pert, config, observers=[grab(pert_states, observe_every)])
    if base_states[-1].t != final_a.t:
        base_states.append(final_a)
        pert_states.append(final_b)

    records = []
    for sa, sb in zip(base_states, pert_states):
        if abs(sa.t - sb.t) > 1e-12:
            raise ValidationError("twin trajectories desynchronized "
                                  f"({sa.t} vs {sb.t}); use a fixed dt")
        records.append(stability_record(sa, sb))
    return records


def epsilon_sweep(initial: FlowState, config: StepperConfig,
                  eps_list: list[float]) -> list[dict]:
    """Integrate the same initial state for each eps and report pairwise
    final-state L2 distances of u and rho between consecutive eps values."""
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    if any(e < 0 for e in eps_list):
        raise ValidationError("eps values must be >= 0")
    finals = []
    for eps in eps_list:
        st = FlowState(initial.t, initial.rho_dev, initial.u, eps, initial.odd_sign)
        finals.append(run(st, dataclasses.replace(config, epsilon=eps)))
    table = []
    for (e1, f1), (e2, f2) in zip(zip(eps_list, finals), zip(eps_list[1:], finals[1:])):
        table.append({
            "eps_high": e1,
            "eps_low": e2,
            "u_distance": l2_norm_vector(f1.u - f2.u),
            "rho_distance": l2_norm(f1.rho_dev - f2.rho_dev),
        })
    return table
