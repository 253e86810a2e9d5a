"""Right-hand sides of the odd-viscosity system and its derived equations.

The fluid state is (rho, u) with rho = 1 + r for a spectral deviation r,
u divergence-free, and the momentum equation (velocity form)

    du/dt + (u.grad)u + (1/rho) grad(pi)
        + sign * [Lap(u_perp) + (grad(log rho).grad) u_perp]
        + (eps/rho) Lap^2 u  =  0.

The good unknowns are omega = curl u, eta = curl(rho u) and
theta = eta - Lap(rho); theta rides a plain transport equation with the
trilinear and bilinear sources assembled here.  Every nonlinear term goes
through 2/3-rule dealiased products; pointwise compositions (log rho, 1/rho)
are formed on the grid and re-truncated, which requires rho > 0; a run
also holds every state above its vacuum floor (check_vacuum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, RuntimeAbort, UnsolvedPressureError, ValidationError
from .spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    bilaplacian,
    curl,
    dealias,
    dealiased_samples,
    divergence,
    gradient,
    laplacian,
    mismatch,
    perp,
    product_physical,
)


class FlowState:
    """Snapshot (t, rho-1, u, eps, odd sign) of the flow.

    rho_dev stores the deviation rho - 1; u is divergence-free; t and
    epsilon are finite.  epsilon and odd_sign are the equation's
    parameters; odd_sign 0 drops the odd terms, which leaves the
    non-homogeneous Euler reference system.  The state owns the cache of
    its grid samples (fields), built on first read, its pressure solution,
    stored by pressure.solve_pressure, and the pressure history
    stepping.step gives it: pressure_guess, where its solve starts, and
    pressure_history, a stepping.PressureHistory (a rate and one StageGuess
    per RK stage), both None on any other state.  Once the history is
    full, after six steps, it holds 22 band-column arrays, the guess
    among them, and the stages' shared weight, each of shape
    (n, n//3 + 1).  No code changes a state's arrays, so a caller may
    keep a state; step takes over the history arrays of the state it
    steps, which drops them.  preconditioner, which step sets on its stage
    states only, names the one their solves apply (see
    pressure.solve_pressure).
    """

    __slots__ = ("t", "rho_dev", "u", "epsilon", "odd_sign", "pressure_guess",
                 "pressure_history", "preconditioner", "_fields", "_pressure",
                 "__weakref__")

    def __init__(self, t: float, rho_dev: SpectralScalar, u: SpectralVector,
                 epsilon: float = 0.0, odd_sign: float = 1.0, *,
                 pressure_guess: np.ndarray | None = None,
                 pressure_history=None, preconditioner: str | None = None):
        if rho_dev.grid != u.grid:
            raise GridMismatchError("rho and u live on different grids")
        if not math.isfinite(t):
            raise ValidationError(f"t must be finite, got {t}")
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")
        if odd_sign not in (1, 0, -1):
            raise ValidationError("odd_sign must be +1, 0 or -1")
        self.t = float(t)
        self.rho_dev = rho_dev
        self.u = u
        self.epsilon = float(epsilon)
        self.odd_sign = float(odd_sign)
        self.pressure_guess = pressure_guess
        self.pressure_history = pressure_history
        self.preconditioner = preconditioner
        self._fields = None
        self._pressure = None

    @property
    def grid(self) -> Grid:
        return self.rho_dev.grid

    @property
    def fields(self) -> "Fields":
        """The cache of this state's grid samples and dealiased products."""
        if self._fields is None:
            self._fields = Fields(self)
        return self._fields

    @property
    def pressure(self):
        """The solution pressure.solve_pressure stored; UnsolvedPressureError if none."""
        if self._pressure is None:
            raise UnsolvedPressureError(f"the pressure at t = {self.t:.6g} was never solved")
        return self._pressure

    @pressure.setter
    def pressure(self, solution) -> None:
        self._pressure = solution

    @property
    def solved(self) -> bool:
        """Whether the state holds its pressure solution."""
        return self._pressure is not None

    def drop_cache(self) -> None:
        """Free the grid samples, the pressure solution and the pressure history."""
        self._fields = None
        self._pressure = None
        self.pressure_guess = None
        self.pressure_history = None


@dataclass(frozen=True)
class GoodUnknowns:
    omega: SpectralScalar
    eta: SpectralScalar
    theta: SpectralScalar


def _above(samples: np.ndarray, floor: float, name: str, t: float) -> np.ndarray:
    """The samples, or RuntimeAbort when their minimum is not above floor."""
    low = float(np.min(samples))
    if not low > floor:
        raise RuntimeAbort(f"vacuum breach: min {name} = {low:.3e} at t = {t:.6f} "
                           f"is not above {floor:g}")
    return samples


def check_vacuum(state: FlowState, floor: float) -> None:
    """RuntimeAbort unless the grid samples of rho and 1/rho exceed floor."""
    _above(state.fields.rho_phys, floor, "rho", state.t)
    _above(state.fields.inv_rho_phys, floor, "1/rho", state.t)


class Fields:
    """FlowState.fields: the lazy cache of one state's grid samples,
    dealiased products, good unknowns and density right-hand side, which
    no caller changes.  It holds the state's attributes, not the state, so
    that no cycle keeps a stage state alive until the cyclic collector runs.
    rho and 1/rho must be positive; a run's vacuum floor is check_vacuum's."""

    def __init__(self, state: FlowState):
        self.t, self.rho_dev, self.u, self.grid = state.t, state.rho_dev, state.u, state.grid
        self.epsilon, self.odd_sign = state.epsilon, state.odd_sign

    # --- density -----------------------------------------------------
    @cached_property
    def rho_phys(self) -> np.ndarray:
        return _above(1.0 + dealiased_samples(self.rho_dev), 0.0, "rho", self.t)

    @cached_property
    def inv_rho(self) -> SpectralScalar:
        return product_physical(1.0 / self.rho_phys, self.grid)

    @cached_property
    def inv_rho_phys(self) -> np.ndarray:
        return _above(dealiased_samples(self.inv_rho), 0.0, "1/rho", self.t)

    @cached_property
    def log_rho(self) -> SpectralScalar:
        return product_physical(np.log(self.rho_phys), self.grid)

    @cached_property
    def grad_log_rho_phys(self) -> np.ndarray:
        return dealiased_samples(self.log_rho, self.grid.ik)

    @cached_property
    def grad_inv_rho_phys(self) -> np.ndarray:
        return dealiased_samples(self.inv_rho, self.grid.ik)

    @cached_property
    def grad_rho_phys(self) -> np.ndarray:
        return dealiased_samples(self.rho_dev, self.grid.ik)

    # --- velocity ----------------------------------------------------
    @cached_property
    def u_phys(self) -> np.ndarray:
        return dealiased_samples(self.u)

    @cached_property
    def grad_u_phys(self) -> tuple[np.ndarray, np.ndarray]:
        """(d1 u, d2 u) on the grid, each stacked over the components of u:
        unpack as (d1u1, d1u2), (d2u1, d2u2)."""
        return (dealiased_samples(self.u, self.grid.ik[0]),
                dealiased_samples(self.u, self.grid.ik[1]))

    @cached_property
    def omega(self) -> SpectralScalar:
        return curl(self.u)

    @cached_property
    def omega_phys(self) -> np.ndarray:
        return dealiased_samples(self.omega)

    @cached_property
    def rho_omega(self) -> SpectralScalar:
        return product_physical(self.rho_phys * self.omega_phys, self.grid)

    # --- assembled nonlinear terms ------------------------------------
    @cached_property
    def transport(self) -> SpectralVector:
        """T[(u.grad)u + sign (grad log rho . grad) u_perp], summed on the
        grid and transformed once.  The stacked sum is written one component
        at a time: temporaries over both components cost 65-180 page faults
        per call at n = 128."""
        u1, u2 = self.u_phys
        d1u, d2u = self.grad_u_phys
        t = np.empty_like(d1u)
        for ti, d1ui, d2ui in zip(t, d1u, d2u):
            np.multiply(u1, d1ui, out=ti)
            ti += u2 * d2ui
        if self.odd_sign != 0.0:
            L1, L2 = self.grad_log_rho_phys
            # u_perp = (-u2, u1) so d_j u_perp = (-d_j u2, d_j u1)
            t[0] -= self.odd_sign * (L1 * d1u[1] + L2 * d2u[1])
            t[1] += self.odd_sign * (L1 * d1u[0] + L2 * d2u[0])
        return product_physical(t, self.grid)

    @cached_property
    def hyper(self) -> SpectralVector:
        """T[(1/rho) Lap^2 u] (without the epsilon factor)."""
        lap2_u = dealiased_samples(self.u, self.grid.k_sq**2)
        return product_physical(self.inv_rho_phys * lap2_u, self.grid)

    @cached_property
    def good_unknowns(self) -> GoodUnknowns:
        """omega, eta and theta; eta is the curl of the dealiased momentum
        (equal to rho*omega + grad_perp(rho).u)."""
        eta = curl(product_physical(self.rho_phys * self.u_phys, self.grid))
        theta = eta - laplacian(dealias(self.rho_dev))
        return GoodUnknowns(omega=self.omega, eta=eta, theta=theta)

    @cached_property
    def density_rhs(self) -> SpectralScalar:
        """-T[u . grad rho]; the mean mode is pinned to its exact value zero
        (u is divergence-free, so the advection has no k=0 source)."""
        u1, u2 = self.u_phys
        r1, r2 = self.grad_rho_phys
        out = product_physical(u1 * r1 + u2 * r2, self.grid)
        out.coeffs[0, 0] = 0.0
        return -1.0 * out

    def pressure_source(self, out: np.ndarray) -> SpectralVector:
        """Vector F with -div((1/rho) grad pi) = div F, formed in out, an
        array of a vector field's shape, and returned as out's field; the
        -sign*grad(omega) contribution of the odd stress is folded in."""
        np.multiply(self.grid.ik, self.omega.coeffs, out=out)
        out *= self.odd_sign
        np.subtract(self.transport.coeffs, out, out=out)
        if self.epsilon > 0.0:
            out += self.hyper.coeffs * self.epsilon
        return SpectralVector.wrap(self.grid, out)


def grad_pi_minus_rho_omega(state: FlowState) -> SpectralVector:
    """The regular part grad(pi - sign*rho*omega) of the state's stored
    pressure; the cache builds rho*omega on the first read, not the solve."""
    return state.pressure.grad_pi - state.odd_sign * gradient(state.fields.rho_omega)


# ---------------------------------------------------------------------------
# operators from the momentum equation


def odd_stress_divergence(state: FlowState) -> SpectralVector:
    """sign * div(rho grad(u_perp)), assembled in divergence form (equal to
    the expansion rho Lap(u_perp) + (grad rho . grad) u_perp)."""
    fl = state.fields
    g = state.grid
    (d1u1, d1u2), (d2u1, d2u2) = fl.grad_u_phys
    # u_perp = (-u2, u1): the gradients of its components
    grad_up = np.stack(((-d1u2, -d2u2), (d1u1, d2u1)))
    comps = [divergence(product_physical(fl.rho_phys * gc, g)) for gc in grad_up]
    return SpectralVector(*comps) * state.odd_sign


def bilinear_B(state: FlowState, alpha: SpectralScalar) -> SpectralScalar:
    """B(grad u, Hess alpha) = d1d2(alpha)(d1u2 + d2u1) + d1u1 (d11 - d22)(alpha)
    for the state's velocity u; equal to curl((grad alpha . grad) u_perp)
    when div u = 0."""
    g = state.grid
    a12 = dealiased_samples(alpha, -g.k1 * g.k2)
    a11_22 = dealiased_samples(alpha, -g.k1**2 + g.k2**2)
    (d1u1, d1u2), (d2u1, _) = state.fields.grad_u_phys
    return product_physical(a12 * (d1u2 + d2u1) + d1u1 * a11_22, g)


def trilinear_T(state: FlowState) -> SpectralScalar:
    """grad_perp(rho) . grad(|u|^2) (equal to the cubic form
    -2 (u2 d1u.grad rho - u1 d2u.grad rho))."""
    fl = state.fields
    g = state.grid
    u1, u2 = fl.u_phys
    usq = product_physical(u1 * u1 + u2 * u2, g)
    g1, g2 = dealiased_samples(usq, g.ik)
    r1, r2 = fl.grad_rho_phys
    return product_physical(-r2 * g1 + r1 * g2, g)


def good_unknowns(state: FlowState) -> GoodUnknowns:
    """omega = curl u, eta = curl(rho u), theta = eta - Lap rho, built once
    per state by its cache (Fields.good_unknowns)."""
    return state.fields.good_unknowns


def density_rhs(state: FlowState) -> SpectralScalar:
    """d(rho)/dt = -T[u . grad rho], built once per state by its cache
    (Fields.density_rhs)."""
    return state.fields.density_rhs


def momentum_rhs(state: FlowState) -> SpectralVector:
    """du/dt for the velocity form of the momentum equation, with the
    state's stored pressure force T[(1/rho) grad pi].  The terms are
    combined in place, with the bits of -T - sign * Lap(u_perp): at n = 128
    each temporary over both components costs about 30 page faults."""
    fl = state.fields
    odd = laplacian(perp(dealias(state.u))).coeffs
    odd *= state.odd_sign
    rhs = -1.0 * fl.transport
    rhs.coeffs -= odd
    if state.epsilon > 0.0:
        rhs = rhs - state.epsilon * fl.hyper
    force = state.pressure.force
    rhs.coeffs[..., :force.shape[-1]] -= force
    return rhs


def theta_rhs(state: FlowState) -> SpectralScalar:
    """d(theta)/dt = -u.grad theta + (1/2) trilinear + sign*B(grad u, Hess rho)
    - eps Lap^2 omega, plus a correction that vanishes for odd_sign = +1."""
    fl = state.fields
    g = state.grid
    sigma = state.odd_sign

    gu = good_unknowns(state)
    t1, t2 = dealiased_samples(gu.theta, g.ik)
    u1, u2 = fl.u_phys
    adv = product_physical(u1 * t1 + u2 * t2, g)
    rhs = -1.0 * adv + 0.5 * trilinear_T(state) + sigma * bilinear_B(state, state.rho_dev)
    if state.epsilon > 0.0:
        rhs = rhs - state.epsilon * bilaplacian(dealias(fl.omega))
    if sigma != 1.0:
        # transport of Lap rho does not cancel against the odd stress when
        # the sign is flipped while theta keeps its +1 definition
        l1, l2_ = dealiased_samples(laplacian(state.rho_dev), g.ik)
        u_grad_lap = product_physical(u1 * l1 + u2 * l2_, g)
        dt_lap = laplacian(density_rhs(state))
        rhs = rhs + (sigma - 1.0) * (dt_lap + u_grad_lap)
    return rhs


def omega_rhs(state: FlowState) -> SpectralScalar:
    """d(omega)/dt assembled from the rewritten transport form, which rests
    on the cancellation
    grad_perp(1/rho).grad(sign*rho*omega) = -sign*grad_perp(log rho).grad omega.
    """
    fl = state.fields
    g = state.grid
    sigma = state.odd_sign
    eps = state.epsilon

    o1, o2 = dealiased_samples(fl.omega, g.ik)
    u1, u2 = fl.u_phys
    L1, L2 = fl.grad_log_rho_phys
    I1, I2 = fl.grad_inv_rho_phys

    # rewritten: transport by u - sign*grad_perp(log rho), pressure through
    # the regular combination grad(pi - sign*rho*omega)
    d1, d2 = dealiased_samples(grad_pi_minus_rho_omega(state))
    trans = product_physical((u1 + sigma * L2) * o1 + (u2 - sigma * L1) * o2, g)
    press = product_physical(-I2 * d1 + I1 * d2, g)
    rhs = -1.0 * trans - press - sigma * bilinear_B(state, fl.log_rho)
    if eps > 0.0:
        # (1/rho) Lap^2 omega + grad_perp(1/rho) . Lap^2 u, grad_perp = (-d2, d1)
        b_om = dealiased_samples(fl.omega, g.k_sq**2)
        D1, D2 = dealiased_samples(state.u, g.k_sq**2)
        rhs = rhs - eps * (product_physical(fl.inv_rho_phys * b_om, g)
                           + product_physical(-I2 * D1 + I1 * D2, g))
    return rhs


# ---------------------------------------------------------------------------
# residual verifiers (two independent assemblies of the same time derivative)


def residual_theta(state: FlowState) -> float:
    """||theta_rhs - product-rule assembly|| / max(||a||, ||b||, 1)."""
    fl = state.fields
    a = theta_rhs(state)

    g = state.grid
    drho = density_rhs(state)
    du = momentum_rhs(state)
    dm = dealiased_samples(drho) * fl.u_phys + fl.rho_phys * dealiased_samples(du)
    b = curl(product_physical(dm, g)) - laplacian(drho)
    return mismatch(a, b)


def residual_omega(state: FlowState) -> float:
    """||omega_rhs - curl(momentum_rhs)|| / max(||a||, ||b||, 1)."""
    a = omega_rhs(state)
    b = curl(momentum_rhs(state))
    return mismatch(a, b)
