"""Time integration of the coupled (rho, u) system for eps >= 0.

One step is explicit RK4 with the exact per-mode propagator
exp(-eps |k|^4 dt) of the constant-coefficient hyperviscous part used as an
integrating factor on u; the variable-coefficient remainder
eps (1/rho - 1) Lap^2 u stays in the explicit right-hand side.  Each stage
state has its variable-coefficient pressure problem solved once, each
stage's CG warm-started by its StageGuess from a base plus an extrapolation
of that base's error over the last steps, to the depth that would have
served the stage best (see step); stage 1 shares the solve of an
observer, which starts from the same guess, so a run's bits do not depend
on which states are observed.  The
momentum right-hand side takes the pressure force T[(1/rho) grad pi] that
the solve accumulated (pressure.PressureSolution), so a stage transforms
nothing for it.  The velocity is re-projected divergence-free at the end
of the step.  One loop, trajectory, chooses each step's size and steps a
tuple of states in lockstep: run steps one state, and
diagnostics.twin_run_stability a pair.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import fft
from .dynamics import FlowState, check_vacuum, density_rhs, momentum_rhs
from .errors import RuntimeAbort, ValidationError
from .pressure import solve_pressure
from .spectral import dealias, leray_project, sup_magnitude, vdot

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
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        if self.dt is not None and self.dt * self.dt < sys.float_info.min:
            raise ValidationError(f"dt = {self.dt} is too small: its square underflows")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValidationError(f"t_end must be finite and >= 0, got {self.t_end}")
        if not (0 < self.cfl_safety <= 1):
            raise ValidationError("cfl_safety must lie in (0, 1]")
        if not (0 < self.vacuum_floor < 1):
            raise ValidationError(f"vacuum_floor must lie in (0, 1), got {self.vacuum_floor}")


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
    density RHS, the pressure potential's band columns and the name of the
    preconditioner its solve applied (None after 0 iterations) for one RK
    stage, whose state must be above the floor."""
    if not state.solved:
        solve_pressure(state)
    rhs_u = momentum_rhs(state)
    if state.epsilon > 0.0:
        rhs_u = rhs_u + dealias(state.u) * (state.epsilon * state.grid.k_sq**2)
    # checked after the assembly: checking first cost ~40% more page faults
    check_vacuum(state, config.vacuum_floor)
    solution = state.pressure
    return density_rhs(state), rhs_u, solution.potential, solution.preconditioner


def _check_finite(state: FlowState):
    for arr in (state.rho_dev.coeffs, state.u.coeffs):
        if not np.all(np.isfinite(arr)):
            raise RuntimeAbort(f"non-finite value (NaN/Inf) in state at t = {state.t:.6f}")


_DEPTH = 5  # backward differences kept per stage: guesses up to quartic
# sqrt(C(2d, d)): the factor by which a depth-d guess's error carries white
# noise in the coefficients (the new one's and the d extrapolated ones')
_NOISE_GAIN = tuple(math.sqrt(math.comb(2 * d, d)) for d in range(1, _DEPTH + 1))


class StageGuess:
    """One RK stage's warm start from the error coefficients c = (P - b) / h^2
    of its base b: its score weight, the backward differences [c, dc, ...,
    d^(k-1) c] of the newest c (k <= _DEPTH), each depth's score, the depth
    of the next guess, and the base, h^2 and array of its pending guess.

    The depth-d guess is b + h^2 (c + dc + ... + d^(d-1) c), the polynomial
    of degree d - 1 through the last d coefficients extrapolated one step.
    The next coefficient's table entry d^j c' is c' less the depth-j sum,
    the error of the depth-j guess, so a record yields the error of every
    depth 1..k-1 for free (and of depth _DEPTH from its guess, when used).
    A depth scores ||Lap error|| (weight |k|^4, the Grid's k_sq[:, :m] ** 2,
    which step builds once per history for its four stages), which
    approximates the residual its guess leaves, times its noise gain,
    averaged over steps with weight 1/2; the next guess takes the best
    depth (ties to the shallower), one deeper when the deepest scored depth
    is best.  The gain charges each depth for the CG's noise at its
    tolerance, which its guess carries on and whose share of the error the
    solve started from that guess keeps.  So a stage with one or two
    coefficients extrapolates them constantly or linearly, and smooth
    errors are followed to higher order while noisy ones are kept at a low
    one."""

    __slots__ = ("weight", "table", "scores", "depth", "base", "h_sq", "pending")

    def __init__(self, weight: np.ndarray):
        self.weight = weight
        self.table, self.scores, self.depth = [], [], 0
        self.base = self.h_sq = self.pending = None

    def guess(self, base: np.ndarray, h_sq: float) -> np.ndarray:
        """base + h^2 times the sum of the first depth table entries, or base
        with an empty table.  With a full table the guess overwrites the
        deepest entry, which no later guess or record reads."""
        self.base, self.h_sq = base, h_sq
        if not self.depth:
            return base
        *shallower, deepest = self.table[:self.depth]
        out = self.table[-1] if len(self.table) == _DEPTH else np.empty_like(deepest)
        np.copyto(out, deepest)
        for entry in reversed(shallower):
            out += entry
        out *= h_sq
        out += base
        self.pending = out
        return out

    def record(self, potential: np.ndarray) -> None:
        """Difference the coefficient (potential - base) / h^2, written into
        the spent guess's array, through the table (in place, deepest entry
        dropped when full), score each depth and choose the next guess's.
        The base and the guess are released."""
        weighted = np.empty_like(potential)  # weight * error, for every score
        scores = self.scores

        def score(depth, error, scale=1.0):
            np.multiply(self.weight, error, out=weighted)
            value = scale * _NOISE_GAIN[depth - 1] * math.sqrt(vdot(error, weighted).real)
            if depth > len(scores):
                scores.append(value)
            else:
                scores[depth - 1] = 0.5 * (scores[depth - 1] + value)

        new = self.pending
        if self.depth == _DEPTH:  # the one depth whose error the table lacks
            score(_DEPTH, np.subtract(potential, new, out=new), 1.0 / self.h_sq)
        new = np.subtract(potential, self.base, out=new)
        new *= 1.0 / self.h_sq
        older = self.table[:_DEPTH - 1]
        self.table = [new]
        for depth, entry in enumerate(older, 1):
            error = np.subtract(self.table[-1], entry, out=entry)
            self.table.append(error)
            score(depth, error)
        best = min(range(1, len(scores) + 1), key=lambda d: scores[d - 1], default=0)
        self.depth = best + 1 if best == len(scores) < len(self.table) else best
        self.base = self.pending = None


@dataclass(slots=True)
class PressureHistory:
    """What step keeps of one step's stage potentials P1..P4 for the next,
    as band columns: the rate 2 (P4 - P2) / h at the step's end and a
    StageGuess per stage; stage 1's guess, on base P4, is pressure_guess."""

    rate: np.ndarray
    stages: tuple[StageGuess, StageGuess, StageGuess, StageGuess]


def step(state: FlowState, config: StepperConfig, dt: float | None = None) -> FlowState:
    """One RK4 integrating-factor step of size dt (default config.dt).

    Every stage state and the new state are held above config.vacuum_floor.
    With P1..P4 the stage potentials, stage i starts from a base b_i: the
    last step's P4 (b1), P1 + (h/2) times the last step's rate (b2), P2
    (b3) and 2 P3 - P1 (b4).  Each base's error P_i - b_i scales as h^2,
    so stage i's StageGuess records c_i = (P_i - b_i) / h^2 and guesses b_i
    plus h^2 times the c_i of up to the last five steps extrapolated to
    this one, at the depth its scores chose.
    Stage 1's guess is fixed on the new state, scaled by this step's h, and
    recorded at the start of the next step; so observe solves a state as
    stage 1 does, and a run's bits do not depend on which states are
    observed.  A state without a history starts stage 1 from zero and stage
    2 from P1, and no coefficient is recorded for either.  Each stage after
    the first applies the preconditioner of the first stage whose solve
    applied one (a solve that meets the tolerance at its guess applies none).

    Stage 1 solves the state unless it holds a solution; its cache,
    solution and history are freed after stage 1, the only stage that
    reads them.  step takes over the history arrays and overwrites them in
    place for the new state's.  It keeps no stage state past its stage,
    and no slope past its last read: the RK sums kr1 + 2 kr2 + 2 kr3 + kr4
    and ku1 E2 + 2 ((ku2 + ku3) E) + ku4 are accumulated in place, left to
    right, as the slopes come, and the new state is formed in the last of
    them.  Each partial sum is taken into its newest slope's array (a + b
    and b + a round alike, so the bits are those of the expressions), the
    last large array its stage allocated: that one alive keeps the heap the
    spent stage frees below it for the next stage to reuse, where sums kept
    in arrays of their own, allocated early, let glibc return it at every
    stage and fault it in again.  Full width, step holds the input state and, in half-spectra,
    kr1 and the u sum (3) through stage 2, the two sums and ku2 (5) through
    stage 3 and the two sums (3) through stage 4, beside the stage's input
    (3), cache and solution."""
    h = config.dt if dt is None else dt
    if h is None or not (math.isfinite(h) and h > 0):
        raise ValidationError(f"step needs a positive finite dt, got {h}")
    if h * h < sys.float_info.min:  # the warm starts divide by h^2
        raise ValidationError(f"step size {h:.3e} is too small: its square underflows")

    g = state.grid
    eps = state.epsilon
    E = linear_factor(g.k_sq, h / 2.0, eps)
    E2 = linear_factor(g.k_sq, h, eps)
    h_sq = h * h
    sigma = state.odd_sign
    t = state.t

    r0, u0 = state.rho_dev, state.u

    past = state.pressure_history
    kr1, ku1, p1, pc = _stage_rhs(state, config)
    state.drop_cache()

    if past is None:
        weight = g.k_sq[:, :g.dealias_cutoff + 1] ** 2  # |k|^4 on the band columns
        s1, s2, s3, s4 = (StageGuess(weight) for _ in range(4))
        b2 = p1
    else:
        s1, s2, s3, s4 = past.stages
        s1.record(p1)
        b2 = np.multiply(past.rate, h / 2.0, out=past.rate)
        b2 += p1

    # the RK sums, in place in their newest slope's arrays (docstring): only
    # step holds ku1 and the slopes of stages 2-4; kr1, the input state's
    # cached density_rhs, is only read
    r_a = r0 + (h / 2.0) * kr1
    u_a = (u0 + (h / 2.0) * ku1) * E
    u_sum = ku1
    u_sum.coeffs *= E2
    ku1 = None
    kr2, ku2, p2, applied = _stage_rhs(FlowState(t + h / 2.0, r_a, u_a, eps, sigma,
                                                 pressure_guess=s2.guess(b2, h_sq),
                                                 preconditioner=pc), config)
    r_a = u_a = None
    pc = pc or applied
    if past is None:  # b2 = P1 is not second-order: no coefficient
        s2.base = None
    else:
        s2.record(p2)

    r_b = r0 + (h / 2.0) * kr2
    u_b = u0 * E + (h / 2.0) * ku2
    r_sum = kr2
    r_sum.coeffs *= 2.0
    r_sum.coeffs += kr1.coeffs
    kr1 = kr2 = None
    kr3, ku3, p3, applied = _stage_rhs(FlowState(t + h / 2.0, r_b, u_b, eps, sigma,
                                                 pressure_guess=s3.guess(p2, h_sq),
                                                 preconditioner=pc), config)
    r_b = u_b = None
    pc = pc or applied
    s3.record(p3)

    r_c = r0 + h * kr3
    u_c = u0 * E2 + h * (ku3 * E)
    kr3.coeffs *= 2.0
    kr3.coeffs += r_sum.coeffs
    ku3.coeffs += ku2.coeffs
    ku3.coeffs *= E
    ku3.coeffs *= 2.0
    ku3.coeffs += u_sum.coeffs
    r_sum, u_sum = kr3, ku3
    kr3 = ku2 = ku3 = None
    b4 = 2.0 * p3 - p1
    p1 = p3 = None  # freed before the last solve
    kr4, ku4, p4, _ = _stage_rhs(FlowState(t + h, r_c, u_c, eps, sigma,
                                           pressure_guess=s4.guess(b4, h_sq),
                                           preconditioner=pc), config)
    r_c = u_c = None
    s4.record(p4)

    # the new state, r0 + (h/6) (r_sum + kr4) and u0 E2 + (h/6) (u_sum + ku4),
    # in kr4's and ku4's arrays
    r_new, u_new = kr4, ku4
    kr4 = ku4 = None
    r_new.coeffs += r_sum.coeffs
    r_new.coeffs *= h / 6.0
    r_new.coeffs += r0.coeffs
    u_new.coeffs += u_sum.coeffs
    u_new.coeffs *= h / 6.0
    u_new.coeffs += u0.coeffs * E2
    r_sum = u_sum = None
    u_new, _ = leray_project(u_new)

    rate = p4 - p2 if past is None else np.subtract(p4, p2, out=past.rate)
    rate *= 2.0 / h
    out = FlowState(t + h, r_new, u_new, eps, sigma, pressure_guess=s1.guess(p4, h_sq),
                    pressure_history=PressureHistory(rate, (s1, s2, s3, s4)))
    _check_finite(out)
    check_vacuum(out, config.vacuum_floor)
    return out


def trajectory(states: tuple[FlowState, ...], config: StepperConfig):
    """Step a tuple of states to t_end in lockstep, yielding (index, states)
    at the start (index 0) and after every step; only the current states
    are held.

    Every state takes one step size: config.dt, or cfl_safety times the
    smallest of their CFL bounds (computed once per step), clamped to
    t_end.  The first step whose fixed dt exceeds that bound draws a
    RuntimeWarning, once per trajectory, pointed at the caller of the
    generator's consumer (run or diagnostics.twin_run_stability).

    The loop holds fft.workspace(n) until it ends, returns or is closed (a
    consumer's exception or break), so every stage and observer solve of
    the run, and every band-path transform, reuses one Workspace."""
    index = 0
    warned = False
    with fft.workspace(states[0].grid.n):
        yield index, states
        while states[0].t < config.t_end - 1e-14:
            bound = min(cfl_dt(state) for state in states)
            h = config.cfl_safety * bound if config.dt is None else config.dt
            h = min(h, config.t_end - states[0].t)
            if h > bound and not warned:
                warned = True
                warnings.warn(f"dt = {h:.3e} exceeds the stability estimate {bound:.3e}",
                              RuntimeWarning, stacklevel=3)
            states = tuple(step(state, config, dt=h) for state in states)
            index += 1
            yield index, states


def run(initial: FlowState, config: StepperConfig, observers=()) -> FlowState:
    """Integrate to t_end along trajectory, calling each observer as
    observer(state, step_index).

    Observers fire on the initial state (index 0) and after every step, on
    the new state that step held above config.vacuum_floor; the trajectory
    is deterministic for a given configuration.
    """
    for index, (state,) in trajectory((initial,), config):
        for obs in observers:
            obs(state, index)
    return state
