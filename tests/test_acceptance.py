"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes under a minute on 2 vCPUs, most of it in
criterion 1's n = 128 and n = 192 runs.
"""

import time

import numpy as np
import pytest

from oddflow import app_io
from oddflow.diagnostics import (
    epsilon_sweep,
    kinetic_energy,
    perturbed_state,
    twin_run_stability,
)
from oddflow.dynamics import (
    FlowState,
    grad_pi_minus_rho_omega,
    odd_stress_divergence,
    residual_omega,
    residual_theta,
)
from oddflow.littlewood_paley import (
    besov_norm,
    bony_reconstruction,
    partition_of_unity_error,
    sobolev_norm,
    sobolev_norm_vector,
)
from oddflow.pressure import solve_elliptic, solve_pressure
from oddflow.spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    biot_savart,
    dealias,
    dealiased_product,
    fold,
    gradient,
    inner_product,
    inverse_transform,
    l2_norm,
    sup_magnitude,
    zero_scalar,
)
from oddflow.stepping import StepperConfig, run
from oddflow.verify import make_state, pressure_split_via_phi, random_band_scalar

from conftest import constant_scalar, full_wavenumbers, shear_state_fields


def restrict_state(state: FlowState, grid: Grid) -> FlowState:
    """Re-discretize a state on a coarser grid: keep the modes below the
    coarse Nyquist, then apply the coarse grid's dealias truncation."""
    half = grid.n // 2
    src = np.r_[:half, state.grid.n - half:state.grid.n]
    dst = np.r_[:half, grid.n - half:grid.n]

    def restrict(f: SpectralScalar) -> SpectralScalar:
        c = np.zeros(grid.shape, dtype=np.complex128)
        c[dst, :half] = f.coeffs[src, :half]
        return dealias(SpectralScalar(grid, c))

    return FlowState(state.t, restrict(state.rho_dev),
                     SpectralVector(restrict(state.u.x1), restrict(state.u.x2)),
                     state.epsilon, state.odd_sign)


def spectral_trend_state(seed: int, n_master: int = 256) -> FlowState:
    """State with a fixed slowly-decaying power-law spectrum, meant to be
    restricted to coarser grids for spectral-accuracy trend measurements."""
    grid = Grid(n_master)
    cut = grid.dealias_cutoff
    rho = random_band_scalar(grid, seed, 0, cut - 1, power=5.5, sup_amplitude=0.2)
    om = random_band_scalar(grid, seed, 1, cut - 1, power=5.5)
    u = biot_savart(om)
    sup = sup_magnitude(*inverse_transform(u))
    if sup > 0:
        u = u * (1.0 / sup)
    return FlowState(0.0, rho, u)


def report(num: int, desc: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} -- {detail}"
    print("\n" + line)
    assert ok, line


def density_wave_series(n: int):
    cfg = app_io.validate_config({
        "grid_n": n, "t_end": 1.0,
        "scenario": {"name": "density_wave", "a": 0.5}})
    state = app_io.init_scenario(cfg)
    k0 = kinetic_energy(state)
    r0 = l2_norm(state.rho_dev)
    track = {"kdrift": 0.0, "rdrift": 0.0, "rho_min": np.inf}

    def obs(s, i):
        track["kdrift"] = max(track["kdrift"],
                              abs(kinetic_energy(s) - k0) / k0)
        track["rdrift"] = max(track["rdrift"],
                              abs(l2_norm(s.rho_dev) - r0) / r0)
        dev = inverse_transform(s.rho_dev)
        track["rho_min"] = min(track["rho_min"], 1.0 + float(dev.min()))

    t0 = time.time()
    run(state, StepperConfig(dt=None, t_end=1.0), observers=[obs])
    track["wall"] = time.time() - t0
    return track


@pytest.fixture(scope="session")
def wave128():
    return density_wave_series(128)


@pytest.fixture(scope="session")
def wave192():
    return density_wave_series(192)


def test_criterion_01_energy_conservation(wave128, wave192):
    ok = (wave128["kdrift"] <= 1e-6
          and wave192["kdrift"] < wave128["kdrift"]
          and wave128["wall"] <= 300.0)
    report(1, "energy conservation",
           ok,
           f"drift(n=128) = {wave128['kdrift']:.3e} <= 1e-6, "
           f"drift(n=192) = {wave192['kdrift']:.3e} strictly smaller, "
           f"wall = {wave128['wall']:.0f}s <= 300s")


def test_criterion_02_density_norm_transport(wave128):
    ok = wave128["rdrift"] <= 1e-5 and wave128["rho_min"] >= 0.5 - 1e-4
    report(2, "density-norm transport",
           ok,
           f"|rho-1|_L2 drift = {wave128['rdrift']:.3e} <= 1e-5, "
           f"min rho = {wave128['rho_min']:.6f} >= 0.4999")


def test_criterion_03_skew_symmetry():
    grid = Grid(64)
    worst = 0.0
    for seed in range(100):
        st = make_state(grid, seed, "full_band")
        stress = odd_stress_divergence(st)
        val = abs(inner_product(stress, st.u))
        worst = max(worst, val / sobolev_norm_vector(st.u, 1.0) ** 2)
    report(3, "odd-term skew-symmetry (100 states)",
           worst <= 1e-12,
           f"max |<div(rho grad u_perp), u>| / |u|_H1^2 = {worst:.3e} <= 1e-12")


def test_criterion_04_homogeneous_reduction():
    grid = Grid(128)
    u0 = app_io.random_divergence_free(grid, seed=2026, stream=1,
                                       band=grid.n // 8, sup_amplitude=1.0)
    cfg = StepperConfig(dt=1.0 / 128, t_end=1.0)
    out_odd = run(FlowState(0.0, zero_scalar(grid), u0), cfg)
    out_eul = run(FlowState(0.0, zero_scalar(grid), u0, odd_sign=0), cfg)
    diff = l2_norm(out_odd.u - out_eul.u)
    report(4, "homogeneous reduction to Euler",
           diff <= 1e-8,
           f"|u_odd(1) - u_euler(1)|_L2 = {diff:.3e} <= 1e-8")


def test_criterion_05_good_unknown_residuals():
    grid = Grid(64)
    worst_full = 0.0
    for seed in range(50):
        st = make_state(grid, seed, "full_band")
        solve_pressure(st)
        worst_full = max(worst_full, residual_theta(st), residual_omega(st))
    worst_half = 0.0
    for seed in range(50):
        st = make_state(grid, seed, "half_band")
        solve_pressure(st)
        worst_half = max(worst_half, residual_theta(st), residual_omega(st))
    # spectral-accuracy trend: one fixed slowly-decaying field discretized
    # at increasing resolution
    trend = []
    base = spectral_trend_state(7)
    for n in (64, 128, 256):
        st = restrict_state(base, Grid(n))
        solve_pressure(st)
        trend.append(max(residual_theta(st), residual_omega(st)))
    decreasing = trend[0] > trend[1] > trend[2]
    ok = worst_full <= 1e-8 and worst_half <= 1e-10 and decreasing
    report(5, "good-unknown equation residuals",
           ok,
           f"random max = {worst_full:.3e} <= 1e-8, "
           f"half-band max = {worst_half:.3e} <= 1e-10, "
           f"trend n=64/128/256: {trend[0]:.1e} > {trend[1]:.1e} > {trend[2]:.1e}")


def test_criterion_06_pressure_split_consistency():
    grid = Grid(64)
    worst = 0.0
    for seed in range(50):
        st = make_state(grid, seed + 100, "full_band")
        solve_pressure(st)
        direct = grad_pi_minus_rho_omega(st)
        via = pressure_split_via_phi(st)
        rel = l2_norm(via - direct) / max(l2_norm(direct), 1.0)
        worst = max(worst, rel)
    report(6, "pressure split consistency (50 states)",
           worst <= 1e-8,
           f"max relative gap direct vs Phi route = {worst:.3e} <= 1e-8")


def test_criterion_07_lax_milgram_bound():
    grid = Grid(64)
    worst_excess = 0.0
    for seed in range(100):
        noise = random_band_scalar(grid, seed, 300, band=8, power=1.0,
                                   sup_amplitude=0.5)
        a_phys = inverse_transform(dealias(constant_scalar(grid, 1.0) + noise))
        F = SpectralVector(
            random_band_scalar(grid, seed, 301, band=16, power=1.0),
            random_band_scalar(grid, seed, 302, band=16, power=1.0))
        grad_pi = solve_elliptic(a_phys, F).grad_pi
        a_star = float(np.min(a_phys))
        excess = a_star * l2_norm(grad_pi) / l2_norm(F) - 1.0
        worst_excess = max(worst_excess, excess)
    report(7, "Lax-Milgram bound (100 instances)",
           worst_excess <= 1e-9,
           f"max(a_*|grad Pi| / |F| - 1) = {worst_excess:.3e} <= 1e-9")


def test_criterion_08_littlewood_paley_suite():
    grid = Grid(64)
    part_err = partition_of_unity_error(grid)

    u = random_band_scalar(grid, 5, 310, grid.dealias_cutoff - 1, power=1.0)
    v = random_band_scalar(grid, 6, 311, grid.dealias_cutoff - 1, power=1.0)
    bony = bony_reconstruction(u, v)
    direct = dealiased_product(u, v)
    bony_err = l2_norm(bony - direct) / max(l2_norm(direct), 1.0)

    bern_ok = True
    rng = np.random.default_rng(8)
    for j in (1, 2, 3):
        lo, hi = 2.0**j, 2.0 ** (j + 1)
        kmag = full_wavenumbers(grid.n)[2]
        mask = (kmag >= lo) & (kmag <= hi)
        n = grid.n
        c = np.where(mask, rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)), 0.0)
        c = 0.5 * (c + np.conj(c[(-np.arange(n)) % n][:, (-np.arange(n)) % n]))
        f = SpectralScalar(grid, fold(c))
        nf, ng = l2_norm(f), l2_norm(gradient(f))
        bern_ok &= lo * nf <= ng * (1 + 1e-13) and ng <= hi * nf * (1 + 1e-13)

    ratios = []
    for seed in range(100):
        f = random_band_scalar(grid, seed, 312, grid.dealias_cutoff)
        ratios.append(sobolev_norm(f, 2.5) / besov_norm(f, 2.5, 2, 2))
    ratio_ok = 0.25 <= min(ratios) and max(ratios) <= 4.0

    ok = part_err <= 1e-12 and bony_err <= 1e-12 and bern_ok and ratio_ok
    report(8, "Littlewood-Paley suite",
           ok,
           f"partition = {part_err:.1e} <= 1e-12, bony = {bony_err:.3e} <= 1e-12, "
           f"Bernstein exact, backend ratio in "
           f"[{min(ratios):.2f}, {max(ratios):.2f}] within [0.25, 4]")


def test_criterion_09_steady_shear_exactness():
    grid = Grid(64)
    rho, u = shear_state_fields(grid)
    st = FlowState(0.0, rho, u)
    out = run(st, StepperConfig(dt=None, t_end=1.0))
    drift = l2_norm(out.u - st.u)

    st_eps = FlowState(0.0, rho, u, epsilon=0.1)
    out_eps = run(st_eps, StepperConfig(dt=None, t_end=1.0))
    amp = -2.0 * float(np.imag(out_eps.u.x2.coeffs[1, 0]))
    amp_err = abs(amp - np.exp(-0.1))

    ok = drift <= 1e-8 and amp_err <= 1e-6
    report(9, "steady shear exactness",
           ok,
           f"|u(1) - u0|_L2 = {drift:.3e} <= 1e-8, "
           f"|amp - e^-0.1| = {amp_err:.3e} <= 1e-6")


def test_criterion_10_epsilon_cauchy():
    # n = 32 keeps the explicit stiff-remainder step bound ~ rho_*/(eps k^4)
    # tractable for eps = 1e-2 while the scenario stays fully resolved
    cfg = app_io.validate_config({
        "grid_n": 32, "t_end": 0.5,
        "scenario": {"name": "density_wave", "a": 0.5}})
    state = app_io.init_scenario(cfg)
    table = epsilon_sweep(state, StepperConfig(dt=None, t_end=0.5),
                          [1e-2, 1e-3, 1e-4, 0.0])
    d = [row.u_distance for row in table]
    ok = d[0] > d[1] > d[2]
    report(10, "eps -> 0 Cauchy behavior",
           ok,
           "pairwise |u_eps_i(T) - u_eps_i+1(T)| strictly decreasing: "
           + " > ".join(f"{x:.3e}" for x in d))


def test_criterion_11_twin_run_scaling():
    cfg = app_io.validate_config({
        "grid_n": 64, "t_end": 0.5,
        "scenario": {"name": "density_wave", "a": 0.5}})
    state = app_io.init_scenario(cfg)
    scfg = StepperConfig(dt=0.01, t_end=0.5)
    grid = state.grid
    a = 1e-3
    finals = {}
    for amp in (2 * a, a, a / 2):
        drho = app_io.random_scalar(grid, 2026, 2, band=4, sup_amplitude=amp)
        du = app_io.random_divergence_free(grid, 2026, 3, band=4,
                                           sup_amplitude=amp)
        recs = twin_run_stability(state, perturbed_state(state, drho, du), scfg)
        finals[amp] = recs[-1].D
    r1 = finals[2 * a] / finals[a]
    r2 = finals[a] / finals[a / 2]
    ok = 4 * 0.8 <= r1 <= 4 * 1.2 and 4 * 0.8 <= r2 <= 4 * 1.2
    report(11, "twin-run stability scaling",
           ok,
           f"D ratios over halvings: {r1:.3f}, {r2:.3f} in [3.2, 4.8]")


def test_criterion_12_temporal_convergence():
    cfg = app_io.validate_config({
        "grid_n": 64, "t_end": 0.5,
        "scenario": {"name": "density_wave", "a": 0.5}})
    state = app_io.init_scenario(cfg)
    finals = {}
    for m, dt in ((1, 0.02), (2, 0.01), (4, 0.005)):
        finals[m] = run(state, StepperConfig(dt=dt, t_end=0.5))
    e1 = l2_norm(finals[1].u - finals[2].u)
    e2 = l2_norm(finals[2].u - finals[4].u)
    ratio = e1 / e2
    ok = 16 * 0.75 <= ratio <= 16 * 1.25
    report(12, "4th-order temporal convergence",
           ok,
           f"refinement factor = {ratio:.2f} in [12, 20]")
