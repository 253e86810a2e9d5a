"""Seeded identity suites: partition of unity, Bony reconstruction,
odd-term skew-symmetry, good-unknown equation residuals, the pressure
split consistency, and the algebraic identities under the dynamics
operators.  Used by the `verify` CLI subcommand and by the tests.

The second route of every identity lives here, beside the suite that
checks it: identity_checks for the dynamics operators, and for the
pressure split (criterion 6) pressure_split_via_phi, which reassembles
grad(pi - sign*rho*omega) from the source decomposition
Phi_1 + Phi_2 - sign*[rho - 1, Lap] omega, with the commutator in two forms
(commutator_rho_laplacian, commutator_expanded).  The program itself calls
none of them.

Each suite draws its own states: skew the full-band seed..seed+9;
pressure_split the full-band seed..seed+4, each solved once for the split,
the commutator and the full-band residuals; residuals the half-band
seed..seed+4; homogeneous_gradient and identities the half-band seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .app_io import random_band_scalar
from .dynamics import (
    FlowState,
    bilinear_B,
    good_unknowns,
    grad_pi_minus_rho_omega,
    odd_stress_divergence,
    residual_omega,
    residual_theta,
    trilinear_T,
)
from .errors import ValidationError
from .littlewood_paley import (
    bony_reconstruction,
    partition_of_unity_error,
    sobolev_norm_vector,
)
from .pressure import solve_pressure
from .spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    biot_savart,
    curl,
    dealiased_product,
    dealias,
    dealiased_samples,
    inner_product,
    inverse_laplacian,
    inverse_transform,
    divergence,
    gradient,
    laplacian,
    leray_project,
    l2_norm,
    mismatch,
    perp,
    product_physical,
    sup_magnitude,
    zero_scalar,
)


def make_state(grid: Grid, seed: int, profile: str = "half_band") -> FlowState:
    """Seeded random state for identity checks.

    half_band: spectra confined to half the dealias band, so quadratic and
    cubic identities are exact to roundoff.
    full_band: velocity spectra reach the dealias cutoff under a steep
    power-law envelope, so residuals are dealiasing-limited (~1e-9), while
    the density stays narrow-band to keep composition tails negligible.
    """
    cut = grid.dealias_cutoff
    # envelope steepness scales with the cutoff so the spectrum reaches a
    # fixed ~1e-10 relative amplitude at the band edge on any grid
    p_edge = 22.8 / np.log(cut)
    if profile == "half_band":
        rho = random_band_scalar(grid, seed, 0, max(cut // 5, 2), power=4.0,
                                 sup_amplitude=0.1)
        om = random_band_scalar(grid, seed, 1, cut // 2, power=p_edge)
    elif profile == "full_band":
        rho = random_band_scalar(grid, seed, 0, cut // 2,
                                 power=0.6 * p_edge, sup_amplitude=0.22)
        om = random_band_scalar(grid, seed, 1, cut - 1, power=p_edge)
    else:
        raise ValidationError(f"unknown profile {profile!r}")
    u = biot_savart(om)
    sup = sup_magnitude(*inverse_transform(u))
    if sup > 0:
        u = u * (1.0 / sup)
    return FlowState(0.0, rho, u)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.value:.3e} (bound {self.bound:.1e})"


def suite_partition(grid: Grid) -> list[CheckResult]:
    return [CheckResult("partition of unity", partition_of_unity_error(grid), 1e-12)]


def suite_bony(grid: Grid, seed: int) -> list[CheckResult]:
    u = random_band_scalar(grid, seed, 10, grid.dealias_cutoff - 1, power=1.0)
    v = random_band_scalar(grid, seed, 11, grid.dealias_cutoff - 1, power=1.0)
    lhs = bony_reconstruction(u, v)
    rhs = dealiased_product(u, v)
    err = l2_norm(lhs - rhs) / max(l2_norm(rhs), 1.0)
    return [CheckResult("Bony reconstruction", err, 1e-12)]


def suite_skew(grid: Grid, seed: int) -> list[CheckResult]:
    worst = 0.0
    for i in range(10):
        st = make_state(grid, seed + i, "full_band")
        stress = odd_stress_divergence(st)
        val = abs(inner_product(stress, st.u))
        scale = sobolev_norm_vector(st.u, 1.0) ** 2
        worst = max(worst, val / scale)
    return [CheckResult("odd-term skew-symmetry (10 states)", worst, 1e-12)]


def suite_residuals(grid: Grid, seed: int) -> list[CheckResult]:
    theta = omega = 0.0
    for i in range(5):
        st = make_state(grid, seed + i, "half_band")
        solve_pressure(st)
        theta = max(theta, residual_theta(st))
        omega = max(omega, residual_omega(st))
    return [
        CheckResult("theta residual (half band)", theta, 1e-10),
        CheckResult("omega residual (half band)", omega, 1e-10),
    ]


def commutator_rho_laplacian(state: FlowState) -> SpectralScalar:
    """[rho - 1, Lap] omega = (rho-1)Lap(omega) - Lap((rho-1)omega)."""
    fl = state.fields
    g = state.grid
    dev_phys = fl.rho_phys - 1.0
    lap_om = dealiased_samples(fl.omega, -g.k_sq)
    t1 = product_physical(dev_phys * lap_om, g)
    t2 = laplacian(product_physical(dev_phys * fl.omega_phys, g))
    return t1 - t2


def commutator_expanded(state: FlowState) -> SpectralScalar:
    """-2 div(omega grad rho) + omega Lap rho (equal to the commutator)."""
    fl = state.fields
    g = state.grid
    om = fl.omega_phys
    w = product_physical(om * fl.grad_rho_phys, g)
    lap_rho = dealiased_samples(state.rho_dev, -g.k_sq)
    return -2.0 * divergence(w) + product_physical(om * lap_rho, g)


def pressure_split_via_phi(state: FlowState) -> SpectralVector:
    """Reassemble the state's stored grad(pi - sign*rho*omega) from the
    source decomposition.

    High frequencies come from grad((-Lap)^{-1} Phi) with
    Phi = -grad(log rho).grad(pi) + rho div((u.grad)u + sign(...)u_perp
    + (eps/rho)Lap^2 u) - sign*[rho-1, Lap]omega; the lowest dyadic block is
    copied from the direct difference.
    """
    fl = state.fields
    g = state.grid
    sigma = state.odd_sign

    # Phi_1 = -grad(log rho) . grad(pi)
    L1, L2 = fl.grad_log_rho_phys
    p1, p2 = dealiased_samples(state.pressure.grad_pi)
    phi1 = -1.0 * product_physical(L1 * p1 + L2 * p2, g)

    # Phi_2 (+ eps part) = rho * div(G) for the same dealiased source vector
    # G that feeds the elliptic solve, without its -sign*grad(omega) piece
    G = fl.transport
    if state.epsilon > 0.0:
        G = G + state.epsilon * fl.hyper
    divG = dealiased_samples(divergence(G))
    phi2 = product_physical(fl.rho_phys * divG, g)

    phi3 = commutator_rho_laplacian(state)

    phi = phi1 + phi2 - sigma * phi3

    low_mult = g.dyadic_blocks[0]
    high_mult = (1.0 - low_mult) * g.inv_k_sq
    return gradient(phi * high_mult) + grad_pi_minus_rho_omega(state) * low_mult


def suite_pressure_split(grid: Grid, seed: int) -> list[CheckResult]:
    worst = worst_comm = theta = omega = 0.0
    for i in range(5):
        st = make_state(grid, seed + i, "full_band")
        solve_pressure(st)
        direct = grad_pi_minus_rho_omega(st)
        err = l2_norm(pressure_split_via_phi(st) - direct) / max(l2_norm(direct), 1.0)
        worst = max(worst, err)
        del direct  # freed before the residuals build their arrays
        worst_comm = max(worst_comm, mismatch(commutator_rho_laplacian(st),
                                              commutator_expanded(st)))
        theta = max(theta, residual_theta(st))
        omega = max(omega, residual_omega(st))
    return [
        CheckResult("theta residual (full band)", theta, 1e-8),
        CheckResult("omega residual (full band)", omega, 1e-8),
        CheckResult("pressure split (direct vs Phi)", worst, 1e-8),
        CheckResult("commutator expansion", worst_comm, 1e-10),
    ]


def suite_homogeneous_gradient(grid: Grid, seed: int) -> list[CheckResult]:
    """For rho = 1 the odd stress is a pure gradient with potential -omega."""
    st = make_state(grid, seed, "half_band")
    st = FlowState(0.0, zero_scalar(grid), st.u, odd_sign=st.odd_sign)
    stress = odd_stress_divergence(st)
    p_part, q_part = leray_project(stress)
    rel_p = l2_norm(p_part) / max(l2_norm(stress), 1.0)
    pot = -1.0 * inverse_laplacian(divergence(q_part))  # grad(pot) = q_part
    gu = good_unknowns(st)
    target = -st.odd_sign * gu.omega
    pot_err = l2_norm(pot - dealias(target)) / max(l2_norm(target), 1.0)
    return [
        CheckResult("homogeneous odd term: div-free part", rel_p, 1e-12),
        CheckResult("homogeneous odd term: potential = -omega", pot_err, 1e-12),
    ]


def identity_checks(state: FlowState) -> list[CheckResult]:
    """The second route of each algebraic identity under the dynamics
    operators, against the route the operator takes.  Every grid sample
    comes from the state's cache."""
    fl = state.fields
    g = state.grid
    rho = fl.rho_phys
    u1, u2 = fl.u_phys
    d1u, d2u = fl.grad_u_phys
    r1, r2 = fl.grad_rho_phys

    # sign * div(rho grad u_perp) = sign * (rho Lap u_perp + (grad rho . grad) u_perp)
    # with u_perp = (-u2, u1), so (a . grad) u_perp = perp((a . grad) u)
    rho_transport = perp(product_physical(r1 * d1u + r2 * d2u, g))
    lap_perp = dealiased_samples(perp(state.u), -g.k_sq)
    expanded = product_physical(rho * lap_perp, g) + rho_transport
    stress = mismatch(odd_stress_divergence(state), state.odd_sign * expanded)

    # B(grad u, Hess alpha) = curl((grad alpha . grad) u_perp) when div u = 0
    L1, L2 = fl.grad_log_rho_phys
    log_transport = perp(product_physical(L1 * d1u + L2 * d2u, g))
    b_rho = mismatch(bilinear_B(state, state.rho_dev), curl(rho_transport))
    b_log = mismatch(bilinear_B(state, fl.log_rho), curl(log_transport))

    # grad_perp(rho) . grad(|u|^2) = -2 (u2 d1u.grad rho - u1 d2u.grad rho)
    d1u_r = dealiased_samples(product_physical(d1u[0] * r1 + d1u[1] * r2, g))
    d2u_r = dealiased_samples(product_physical(d2u[0] * r1 + d2u[1] * r2, g))
    cubic = -2.0 * (product_physical(u2 * d1u_r, g) - product_physical(u1 * d2u_r, g))
    trilinear = mismatch(trilinear_T(state), cubic)

    # eta = curl(rho u) = rho*omega + grad_perp(rho).u, grad_perp = (-d2, d1)
    eta = mismatch(good_unknowns(state).eta,
                   fl.rho_omega + product_physical(-r2 * u1 + r1 * u2, g))

    # grad_perp(1/rho).grad(rho*omega) = -grad_perp(log rho).grad(omega),
    # the cancellation behind omega_rhs's rewritten transport
    d1, d2 = dealiased_samples(fl.rho_omega, g.ik)
    o1, o2 = dealiased_samples(fl.omega, g.ik)
    I1, I2 = fl.grad_inv_rho_phys
    cancellation = mismatch(product_physical(-I2 * d1 + I1 * d2, g),
                            -1.0 * product_physical(-L2 * o1 + L1 * o2, g))
    return [
        CheckResult("odd stress expansion", stress, 1e-12),
        CheckResult("bilinear form B, alpha = rho - 1", b_rho, 1e-12),
        CheckResult("bilinear form B, alpha = log rho", b_log, 1e-12),
        CheckResult("trilinear cubic form", trilinear, 1e-10),
        CheckResult("eta expansion", eta, 1e-12),
        CheckResult("vorticity cancellation", cancellation, 1e-10),
    ]


def suite_identities(grid: Grid, seed: int) -> list[CheckResult]:
    return identity_checks(make_state(grid, seed, "half_band"))


def run_all(n: int = 64, seed: int = 0) -> list[CheckResult]:
    """Every suite in turn: 22 state draws (module docstring), 10 solves."""
    grid = Grid(n)
    results = []
    results += suite_partition(grid)
    results += suite_bony(grid, seed)
    results += suite_skew(grid, seed)
    results += suite_residuals(grid, seed)
    results += suite_pressure_split(grid, seed)
    results += suite_homogeneous_gradient(grid, seed)
    results += suite_identities(grid, seed)
    return results
