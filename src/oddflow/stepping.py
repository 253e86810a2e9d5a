"""Time integration of the coupled (rho, u) system for eps >= 0.

One step is explicit RK4 with the exact per-mode propagator
exp(-eps |k|^4 dt) of the constant-coefficient hyperviscous part used as an
integrating factor on u; the variable-coefficient remainder
eps (1/rho - 1) Lap^2 u stays in the explicit right-hand side.  Each stage
solves the variable-coefficient pressure problem.  The velocity is
re-projected divergence-free at the end of the step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import Fields, FlowState, density_bounds, density_rhs, momentum_rhs
from .errors import RuntimeAbort
from .pressure import DEFAULT_MAX_ITER, DEFAULT_TOL, solve_pressure
from .spectral import (
    SpectralScalar,
    SpectralVector,
    dealias,
    leray_project,
    sup_norm_vector,
)

CFL_CAP = 1e6


@dataclass(frozen=True)
class StepperConfig:
    """Time-integration parameters of the RK4 integrating-factor stepper."""

    dt: float | None = None  # None means auto-CFL
    t_end: float = 0.0
    cfl_safety: float = 0.5
    epsilon: float = 0.0
    vacuum_floor: float = 1e-6
    pressure_tol: float = DEFAULT_TOL
    pressure_max_iter: int = DEFAULT_MAX_ITER
    include_odd: bool = True

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        if not (0 < self.cfl_safety <= 1):
            raise ValueError("cfl_safety must lie in (0, 1]")


def linear_factor(k_sq: np.ndarray, dt: float, epsilon: float) -> np.ndarray:
    """Exact propagator exp(-eps |k|^4 dt) of the stiff hyperviscous part."""
    return np.exp(-epsilon * np.asarray(k_sq, dtype=np.float64) ** 2 * dt)


def cfl_dt(state: FlowState, config: StepperConfig | None = None) -> float:
    """Advective and stiff-remainder step bounds, capped at 1e6."""
    tiny = 1e-30
    fl = Fields(state, vacuum_floor=(config.vacuum_floor if config else 1e-6))
    g = state.grid
    k_max = g.n / 2.0
    u_sup = sup_norm_vector(state.u)
    L1, L2 = fl.grad_log_rho_phys
    glog_sup = float(np.max(np.sqrt(L1 * L1 + L2 * L2)))
    adv = 1.0 / (k_max * u_sup + k_max * glog_sup + tiny)
    rho_min = float(np.min(fl.rho_phys))
    dev = float(np.max(np.abs(fl.inv_rho_phys - 1.0)))
    stiff = rho_min / (state.epsilon * k_max**4 * dev + tiny)
    return float(min(adv, stiff, CFL_CAP))


def _stage_rhs(state: FlowState, config: StepperConfig):
    """Explicit RHS (with the constant-coefficient eps Lap^2 u removed) and
    the density RHS for one RK stage."""
    fl = Fields(state, vacuum_floor=config.vacuum_floor)
    psol = solve_pressure(state, fields=fl, tol=config.pressure_tol,
                          max_iter=config.pressure_max_iter,
                          include_odd=config.include_odd)
    rhs_u = momentum_rhs(state, psol.grad_pi, fields=fl,
                         include_odd=config.include_odd)
    if state.epsilon > 0.0:
        g = state.grid
        stiff = state.epsilon * g.k_sq**2
        rhs_u = SpectralVector(
            SpectralScalar(g, rhs_u.x1.coeffs + stiff * dealias(state.u.x1).coeffs),
            SpectralScalar(g, rhs_u.x2.coeffs + stiff * dealias(state.u.x2).coeffs),
        )
    rhs_rho = density_rhs(state, fl)
    return rhs_rho, rhs_u


def _apply_factor(u: SpectralVector, fac: np.ndarray) -> SpectralVector:
    g = u.grid
    return SpectralVector(SpectralScalar(g, fac * u.x1.coeffs),
                          SpectralScalar(g, fac * u.x2.coeffs),
                          u.divergence_free)


def _check_finite(state: FlowState):
    for arr in (state.rho_dev.coeffs, state.u.x1.coeffs, state.u.x2.coeffs):
        if not np.all(np.isfinite(arr)):
            raise RuntimeAbort("non-finite value in state", t=state.t,
                               quantity="NaN/Inf")


def step(state: FlowState, config: StepperConfig, dt: float | None = None) -> FlowState:
    """One RK4 integrating-factor step of size dt (default config.dt)."""
    h = config.dt if dt is None else dt
    if h is None or h <= 0:
        raise ValueError("step needs a positive dt")

    g = state.grid
    eps = state.epsilon
    E = linear_factor(g.k_sq, h / 2.0, eps)
    E2 = linear_factor(g.k_sq, h, eps)
    sigma = state.odd_sign
    t = state.t

    r0, u0 = state.rho_dev, state.u

    kr1, ku1 = _stage_rhs(state, config)

    r_a = r0 + (h / 2.0) * kr1
    u_a = _apply_factor(u0 + (h / 2.0) * ku1, E)
    kr2, ku2 = _stage_rhs(FlowState(t + h / 2.0, r_a, u_a, eps, sigma), config)

    r_b = r0 + (h / 2.0) * kr2
    u_b = _apply_factor(u0, E) + (h / 2.0) * ku2
    kr3, ku3 = _stage_rhs(FlowState(t + h / 2.0, r_b, u_b, eps, sigma), config)

    r_c = r0 + h * kr3
    u_c = _apply_factor(u0, E2) + h * _apply_factor(ku3, E)
    kr4, ku4 = _stage_rhs(FlowState(t + h, r_c, u_c, eps, sigma), config)

    r_new = r0 + (h / 6.0) * (kr1 + 2.0 * kr2 + 2.0 * kr3 + kr4)
    u_new = (_apply_factor(u0, E2)
             + (h / 6.0) * (_apply_factor(ku1, E2)
                            + 2.0 * _apply_factor(ku2 + ku3, E)
                            + ku4))
    u_new, _ = leray_project(u_new)

    out = FlowState(t + h, r_new, u_new, eps, sigma)
    _check_finite(out)
    rho_min, _ = density_bounds(out)
    if rho_min < config.vacuum_floor:
        raise RuntimeAbort(
            f"vacuum breach: min rho = {rho_min:.3e} at t = {out.t:.6f}",
            t=out.t, quantity="min rho")
    return out


def run(initial: FlowState, config: StepperConfig, observers=()) -> FlowState:
    """Integrate to t_end, calling each observer as observer(state, step_index).

    Observers fire on the initial state (index 0) and after every step; the
    trajectory is deterministic for a given configuration.  The CFL bound is
    computed once per step: it sets an automatic dt, and a fixed dt above it
    draws a RuntimeWarning.
    """
    state = initial
    if state.epsilon != config.epsilon:
        state = FlowState(state.t, state.rho_dev, state.u,
                          config.epsilon, state.odd_sign)
    for obs in observers:
        obs(state, 0)
    if config.t_end <= state.t:
        return state

    index = 0
    while state.t < config.t_end - 1e-14:
        bound = cfl_dt(state, config)
        h = config.cfl_safety * bound if config.dt is None else config.dt
        h = min(h, config.t_end - state.t)
        if h > bound:
            warnings.warn(f"dt = {h:.3e} exceeds the stability estimate {bound:.3e}",
                          RuntimeWarning, stacklevel=2)
        state = step(state, config, dt=h)
        index += 1
        for obs in observers:
            obs(state, index)
    return state
