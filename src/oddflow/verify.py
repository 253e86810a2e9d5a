"""Seeded identity suites: partition of unity, Bony reconstruction,
odd-term skew-symmetry, good-unknown equation residuals, and the pressure
split consistency.  Used by the `verify` CLI subcommand and by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .app_io import _hermitian_part, _stream
from .dynamics import (
    Fields,
    FlowState,
    good_unknowns,
    odd_stress_divergence,
    residual_omega,
    residual_theta,
)
from .littlewood_paley import (
    bony_reconstruction,
    build_partition,
    partition_of_unity_error,
    sobolev_norm_vector,
)
from .pressure import (
    commutator_expanded,
    commutator_rho_laplacian,
    pressure_split_via_phi,
    solve_pressure,
)
from .spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    biot_savart,
    dealiased_product,
    dealias,
    inner_product_vector,
    inverse_laplacian,
    divergence,
    leray_project,
    l2_norm,
    l2_norm_vector,
    resample,
    sup_norm,
    sup_norm_vector,
    zero_scalar,
)


def random_band_scalar(grid: Grid, seed: int, stream: int, band: int,
                       power: float = 0.0, sup_amplitude: float = 1.0) -> SpectralScalar:
    """Mean-zero field with |k|_inf <= band and a |k|^(-power) envelope."""
    rng = _stream(seed, stream)
    n = grid.n
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kmag = np.sqrt(grid.k_sq)
    env = np.where(kmag > 0, np.maximum(kmag, 1.0) ** (-power), 0.0)
    mask = (np.abs(grid.k1) <= band) & (np.abs(grid.k2) <= band)
    c = np.where(mask, noise * env, 0.0)
    c[0, 0] = 0.0
    c = _hermitian_part(c)
    f = SpectralScalar(grid, c)
    sup = sup_norm(f)
    return SpectralScalar(grid, c * (sup_amplitude / sup)) if sup > 0 else f


def make_state(grid: Grid, seed: int, profile: str = "half_band",
               epsilon: float = 0.0, odd_sign: float = 1.0) -> FlowState:
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
        raise ValueError(f"unknown profile {profile!r}")
    u = biot_savart(om)
    sup = sup_norm_vector(u)
    if sup > 0:
        u = u * (1.0 / sup)
    return FlowState(0.0, rho, u, epsilon=epsilon, odd_sign=odd_sign)


def restrict_state(state: FlowState, grid: Grid) -> FlowState:
    """Re-discretize a state on a coarser grid (drop unrepresentable modes,
    then apply the coarse grid's Nyquist and dealias truncation)."""
    if grid.n > state.grid.n:
        raise ValueError("restriction only goes to coarser grids")

    def restrict(f: SpectralScalar) -> SpectralScalar:
        return dealias(SpectralScalar(grid, resample(f, grid).coeffs * grid.keep_mask))

    return FlowState(state.t, restrict(state.rho_dev),
                     SpectralVector(restrict(state.u.x1), restrict(state.u.x2),
                                    divergence_free=state.u.divergence_free),
                     state.epsilon, state.odd_sign)


def spectral_trend_state(seed: int, n_master: int = 256) -> FlowState:
    """State with a fixed slowly-decaying power-law spectrum, meant to be
    restricted to coarser grids for spectral-accuracy trend measurements."""
    grid = Grid(n_master)
    cut = grid.dealias_cutoff
    rho = random_band_scalar(grid, seed, 0, cut - 1, power=5.5,
                             sup_amplitude=0.2)
    om = random_band_scalar(grid, seed, 1, cut - 1, power=5.5)
    u = biot_savart(om)
    sup = sup_norm_vector(u)
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
    part = build_partition(grid)
    return [CheckResult("partition of unity", partition_of_unity_error(part), 1e-12)]


def suite_bony(grid: Grid, seed: int) -> list[CheckResult]:
    u = random_band_scalar(grid, seed, 10, grid.dealias_cutoff - 1, power=1.0)
    v = random_band_scalar(grid, seed, 11, grid.dealias_cutoff - 1, power=1.0)
    lhs = bony_reconstruction(u, v)
    rhs = dealiased_product(u, v)
    err = l2_norm(lhs - rhs) / max(l2_norm(rhs), 1.0)
    return [CheckResult("Bony reconstruction", err, 1e-12)]


def suite_skew(grid: Grid, seed: int, count: int = 10) -> list[CheckResult]:
    worst = 0.0
    for i in range(count):
        st = make_state(grid, seed + i, "full_band")
        stress = odd_stress_divergence(st, check=False)
        val = abs(inner_product_vector(stress, st.u))
        scale = sobolev_norm_vector(st.u, 1.0) ** 2
        worst = max(worst, val / scale)
    return [CheckResult(f"odd-term skew-symmetry ({count} states)", worst, 1e-12)]


def suite_residuals(grid: Grid, seed: int, count: int = 5) -> list[CheckResult]:
    worst_half = {"theta": 0.0, "omega": 0.0}
    worst_full = {"theta": 0.0, "omega": 0.0}
    for i in range(count):
        for profile, bucket in (("half_band", worst_half), ("full_band", worst_full)):
            st = make_state(grid, seed + i, profile)
            psol = solve_pressure(st)
            bucket["theta"] = max(bucket["theta"], residual_theta(st, psol.grad_pi))
            bucket["omega"] = max(bucket["omega"], residual_omega(st, psol))
    return [
        CheckResult("theta residual (half band)", worst_half["theta"], 1e-10),
        CheckResult("omega residual (half band)", worst_half["omega"], 1e-10),
        CheckResult("theta residual (full band)", worst_full["theta"], 1e-8),
        CheckResult("omega residual (full band)", worst_full["omega"], 1e-8),
    ]


def suite_pressure_split(grid: Grid, seed: int, count: int = 5) -> list[CheckResult]:
    worst = 0.0
    worst_comm = 0.0
    for i in range(count):
        st = make_state(grid, seed + i, "full_band")
        fl = Fields(st)
        psol = solve_pressure(st, fields=fl)
        via_phi = pressure_split_via_phi(st, psol, fields=fl)
        direct = psol.grad_pi_minus_rho_omega
        err = l2_norm_vector(via_phi - direct) / max(l2_norm_vector(direct), 1.0)
        worst = max(worst, err)
        c1 = commutator_rho_laplacian(st, fl)
        c2 = commutator_expanded(st, fl)
        errc = l2_norm(c1 - c2) / max(l2_norm(c1), l2_norm(c2), 1.0)
        worst_comm = max(worst_comm, errc)
    return [
        CheckResult("pressure split (direct vs Phi)", worst, 1e-8),
        CheckResult("commutator expansion", worst_comm, 1e-10),
    ]


def suite_homogeneous_gradient(grid: Grid, seed: int) -> list[CheckResult]:
    """For rho = 1 the odd stress is a pure gradient with potential -omega."""
    st = make_state(grid, seed, "half_band")
    st = FlowState(0.0, zero_scalar(grid), st.u, odd_sign=st.odd_sign)
    stress = odd_stress_divergence(st, check=False)
    p_part, q_part = leray_project(stress)
    rel_p = l2_norm_vector(p_part) / max(l2_norm_vector(stress), 1.0)
    pot = -1.0 * inverse_laplacian(divergence(q_part))  # grad(pot) = q_part
    gu = good_unknowns(st, check=False)
    target = -st.odd_sign * gu.omega
    pot_err = l2_norm(pot - dealias(target)) / max(l2_norm(target), 1.0)
    return [
        CheckResult("homogeneous odd term: div-free part", rel_p, 1e-12),
        CheckResult("homogeneous odd term: potential = -omega", pot_err, 1e-12),
    ]


def run_all(n: int = 64, seed: int = 0) -> list[CheckResult]:
    grid = Grid(n)
    results = []
    results += suite_partition(grid)
    results += suite_bony(grid, seed)
    results += suite_skew(grid, seed)
    results += suite_residuals(grid, seed)
    results += suite_pressure_split(grid, seed)
    results += suite_homogeneous_gradient(grid, seed)
    return results
