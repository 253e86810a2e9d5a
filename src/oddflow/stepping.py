"""Time integration of the coupled (rho, u) system for eps >= 0.

One step is explicit RK4 with the exact per-mode propagator
exp(-eps |k|^4 dt) of the constant-coefficient hyperviscous part used as an
integrating factor on u; the variable-coefficient remainder
eps (1/rho - 1) Lap^2 u stays in the explicit right-hand side.  Each stage
state has its variable-coefficient pressure problem solved once; stage 1
shares the solve of an observer, which starts from the same pressure
history (see step), so a run's bits do not depend on which states are
observed.  The velocity is re-projected divergence-free at the end of the
step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import FlowState, check_vacuum, density_rhs, momentum_rhs
from .errors import RuntimeAbort
from .pressure import solve_pressure
from .spectral import dealias_vector, leray_project, sup_magnitude

CFL_CAP = 1e6


@dataclass(frozen=True)
class StepperConfig:
    """Time-integration parameters of the RK4 integrating-factor stepper;
    the equation's parameters (epsilon, odd sign) belong to the state."""

    dt: float | None = None  # None means auto-CFL
    t_end: float = 0.0
    cfl_safety: float = 0.5
    vacuum_floor: float = 1e-6

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


def cfl_dt(state: FlowState) -> float:
    """Advective and stiff-remainder step bounds, capped at 1e6."""
    tiny = 1e-30
    fl = state.fields
    k_max = state.grid.n / 2.0
    u_sup = sup_magnitude(*fl.u_phys)
    glog_sup = sup_magnitude(*fl.grad_log_rho_phys)
    adv = 1.0 / (k_max * u_sup + k_max * glog_sup + tiny)
    rho_min = float(np.min(fl.rho_phys))
    dev = float(np.max(np.abs(fl.inv_rho_phys - 1.0)))
    stiff = rho_min / (state.epsilon * k_max**4 * dev + tiny)
    return float(min(adv, stiff, CFL_CAP))


def _stage_rhs(state: FlowState, config: StepperConfig):
    """Explicit RHS (with the constant-coefficient eps Lap^2 u removed), the
    density RHS and the pressure potential's band columns for one RK stage,
    whose state must be above the floor."""
    if not state.solved:
        solve_pressure(state)
    rhs_u = momentum_rhs(state)
    if state.epsilon > 0.0:
        rhs_u = rhs_u + dealias_vector(state.u) * (state.epsilon * state.grid.k_sq**2)
    # checked after the assembly: checking first cost ~40% more page faults
    check_vacuum(state, config.vacuum_floor)
    return density_rhs(state), rhs_u, state.pressure.potential


def _check_finite(state: FlowState):
    for arr in (state.rho_dev.coeffs, state.u.x1.coeffs, state.u.x2.coeffs):
        if not np.all(np.isfinite(arr)):
            raise RuntimeAbort("non-finite value in state", t=state.t,
                               quantity="NaN/Inf")


def step(state: FlowState, config: StepperConfig, dt: float | None = None) -> FlowState:
    """One RK4 integrating-factor step of size dt (default config.dt).

    Every stage state and the new state are held above config.vacuum_floor.
    Stage 1 solves the state from its pressure_guess unless it holds a
    solution; its cache, solution and history are freed after stage 1, the
    only stage that reads them.  With P1..P4 the stage potentials, stage 2
    starts from P1 + (h/2) * the state's pressure_slope (P1 without one),
    stage 3 from P2, stage 4 from 2 P3 - P1, and the new state carries P4
    and (P4 - P1) / h.  Between stages step keeps only these band-column
    arrays, no stage state."""
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

    kr1, ku1, p1 = _stage_rhs(state, config)
    slope = state.pressure_slope
    state.drop_cache()

    r_a = r0 + (h / 2.0) * kr1
    u_a = (u0 + (h / 2.0) * ku1) * E
    guess = p1 if slope is None else p1 + (h / 2.0) * slope
    kr2, ku2, p2 = _stage_rhs(FlowState(t + h / 2.0, r_a, u_a, eps, sigma,
                                        pressure_guess=guess), config)

    r_b = r0 + (h / 2.0) * kr2
    u_b = u0 * E + (h / 2.0) * ku2
    kr3, ku3, p3 = _stage_rhs(FlowState(t + h / 2.0, r_b, u_b, eps, sigma,
                                        pressure_guess=p2), config)

    r_c = r0 + h * kr3
    u_c = u0 * E2 + h * (ku3 * E)
    kr4, ku4, p4 = _stage_rhs(FlowState(t + h, r_c, u_c, eps, sigma,
                                        pressure_guess=2.0 * p3 - p1), config)

    r_new = r0 + (h / 6.0) * (kr1 + 2.0 * kr2 + 2.0 * kr3 + kr4)
    u_new = u0 * E2 + (h / 6.0) * (ku1 * E2 + 2.0 * ((ku2 + ku3) * E) + ku4)
    u_new, _ = leray_project(u_new)

    out = FlowState(t + h, r_new, u_new, eps, sigma,
                    pressure_guess=p4, pressure_slope=(p4 - p1) / h)
    _check_finite(out)
    check_vacuum(out, config.vacuum_floor)
    return out


def run(initial: FlowState, config: StepperConfig, observers=()) -> FlowState:
    """Integrate to t_end, calling each observer as observer(state, step_index).

    Observers fire on the initial state (index 0) and after every step, on
    the new state that step held above config.vacuum_floor; the trajectory
    is deterministic for a given configuration.  The CFL bound is computed
    once per step: it sets an automatic dt, and the first step whose fixed
    dt exceeds it draws a RuntimeWarning, once per run.
    """
    state = initial
    for obs in observers:
        obs(state, 0)

    index = 0
    warned = False
    while state.t < config.t_end - 1e-14:
        bound = cfl_dt(state)
        h = config.cfl_safety * bound if config.dt is None else config.dt
        h = min(h, config.t_end - state.t)
        if h > bound and not warned:
            warned = True
            warnings.warn(f"dt = {h:.3e} exceeds the stability estimate {bound:.3e}",
                          RuntimeWarning, stacklevel=2)
        state = step(state, config, dt=h)
        index += 1
        for obs in observers:
            obs(state, index)
    return state
