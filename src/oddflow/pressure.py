"""Variable-coefficient elliptic solve for the pressure gradient and the
regular combination grad(pi - sign*rho*omega).

The elliptic problem -div(a grad Pi) = div F is solved by conjugate
gradients on the mean-zero scalar potential, preconditioned by the exact
inverse Laplacian; curl-freeness of the returned gradient is exact because
the unknown is the potential.  Solves are cold-started and use fixed-order
reductions, so identical inputs give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .dynamics import Fields, FlowState
from .errors import ConvergenceError, OddflowError, ValidationError
from .littlewood_paley import build_partition
from .spectral import (
    SpectralScalar,
    SpectralVector,
    curl,
    dealias,
    dealias_vector,
    divergence,
    gradient,
    inverse_transform,
    laplacian,
    l2_norm_vector,
    product_physical,
)

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 500


@dataclass(frozen=True)
class PressureSolution:
    """grad(pi), the regular part grad(pi - sign*rho*omega), and solver
    metadata for one state."""

    grad_pi: SpectralVector
    grad_pi_minus_rho_omega: SpectralVector
    iterations: int
    residual: float
    odd_sign: float = 1.0


def _solve_elliptic_potential(a: SpectralScalar, F: SpectralVector,
                              tol: float, max_iter: int):
    """PCG for -div(a grad Pi) = div F on mean-zero band-limited potentials.

    Returns (Pi, iterations, relative residual)."""
    grid = a.grid
    if F.grid != grid:
        raise ValidationError("coefficient and source on different grids")
    a_band = dealias(a)
    a_phys = inverse_transform(a_band)
    a_star = float(np.min(a_phys))
    if a_star <= 0.0:
        raise ValidationError(
            f"elliptic coefficient not bounded below: min a = {a_star:.3e}")

    k1, k2 = grid.k1, grid.k2
    mask = grid.dealias_mask & grid.keep_mask
    n2 = grid.n**2

    from .spectral import fft_workers
    w = fft_workers()

    def apply_op(pi_hat):
        p1 = _fft.ifft2(1j * k1 * pi_hat * n2, workers=w).real
        p2 = _fft.ifft2(1j * k2 * pi_hat * n2, workers=w).real
        f1 = _fft.fft2(a_phys * p1, workers=w) / n2
        f2 = _fft.fft2(a_phys * p2, workers=w) / n2
        f1[~mask] = 0.0
        f2[~mask] = 0.0
        out = -(1j * k1 * f1 + 1j * k2 * f2)
        out[0, 0] = 0.0
        return out

    b = divergence(dealias_vector(F)).coeffs.copy()
    b[~mask] = 0.0
    b[0, 0] = 0.0
    b_norm = float(np.sqrt(np.sum(np.abs(b) ** 2)))
    if b_norm == 0.0:
        return SpectralScalar(grid, np.zeros_like(b)), 0, 0.0

    inv_lap = grid.inv_k_sq

    def dot(x, y):
        return float(np.real(np.sum(x * np.conj(y))))

    x = np.zeros_like(b)
    r = b.copy()
    z = r * inv_lap
    p = z.copy()
    rz = dot(r, z)
    res = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        Ap = apply_op(p)
        denom = dot(p, Ap)
        if denom <= 0.0:
            raise ConvergenceError(
                f"CG broke down at iteration {it}: <p, Ap> = {denom:.3e}")
        alpha = rz / denom
        x += alpha * p
        r -= alpha * Ap
        res = float(np.sqrt(np.sum(np.abs(r) ** 2))) / b_norm
        if res <= tol:
            break
        z = r * inv_lap
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise ConvergenceError(
            f"pressure CG did not reach tol {tol:.1e} in {max_iter} iterations "
            f"(residual {res:.3e})")

    pi = SpectralScalar(grid, x)
    # post-hoc energy bound a_* ||grad Pi|| <= ||F||, with slack for tol
    gp = gradient(pi)
    lhs = a_star * l2_norm_vector(gp)
    rhs = l2_norm_vector(F) * (1.0 + 10.0 * tol) + 1e-14
    if lhs > rhs:
        raise OddflowError(
            f"energy bound violated: a_*||grad Pi|| = {lhs:.6e} > ||F|| = {rhs:.6e}")
    return pi, it, res


def solve_elliptic(a: SpectralScalar, F: SpectralVector,
                   tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> SpectralVector:
    """Solve -div(a grad Pi) = div F and return the curl-free gradient."""
    pi, _, _ = _solve_elliptic_potential(a, F, tol, max_iter)
    return gradient(pi)


def solve_pressure(state: FlowState, fields: Fields | None = None,
                   tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                   include_odd: bool = True) -> PressureSolution:
    """Pressure gradient of the momentum equation for this state.

    Solves -div((1/rho) grad pi) = div((u.grad)u + sign(grad log rho.grad)u_perp
    + (eps/rho) Lap^2 u) - sign*Lap(omega) and fills both gradients.
    """
    fl = fields if fields is not None else Fields(state)
    F = fl.pressure_source(include_odd=include_odd)
    pi, iters, res = _solve_elliptic_potential(fl.inv_rho, F, tol, max_iter)
    grad_pi = gradient(pi)

    sigma = state.odd_sign if include_odd else 0.0
    if include_odd:
        rho_omega = product_physical(fl.rho_phys * fl.omega_phys, state.grid)
        regular = grad_pi - sigma * gradient(rho_omega)
    else:
        regular = grad_pi
    return PressureSolution(grad_pi, regular, iters, res, odd_sign=sigma)


def commutator_rho_laplacian(state: FlowState, fields: Fields | None = None) -> SpectralScalar:
    """[rho - 1, Lap] omega = (rho-1)Lap(omega) - Lap((rho-1)omega)."""
    fl = fields if fields is not None else Fields(state)
    g = state.grid
    dev_phys = fl.rho_phys - 1.0
    lap_om = inverse_transform(laplacian(dealias(fl.omega)))
    t1 = product_physical(dev_phys * lap_om, g)
    t2 = laplacian(product_physical(dev_phys * fl.omega_phys, g))
    return t1 - t2


def commutator_expanded(state: FlowState, fields: Fields | None = None) -> SpectralScalar:
    """-2 div(omega grad rho) + omega Lap rho (equal to the commutator)."""
    fl = fields if fields is not None else Fields(state)
    g = state.grid
    r1, r2 = fl.grad_rho_phys
    om = fl.omega_phys
    w1 = product_physical(om * r1, g)
    w2 = product_physical(om * r2, g)
    lap_rho = inverse_transform(laplacian(dealias(state.rho_dev)))
    return -2.0 * divergence(SpectralVector(w1, w2)) + product_physical(om * lap_rho, g)


def pressure_split_via_phi(state: FlowState, pressure_solution: PressureSolution,
                           fields: Fields | None = None) -> SpectralVector:
    """Reassemble grad(pi - sign*rho*omega) from the source decomposition.

    High frequencies come from grad((-Lap)^{-1} Phi) with
    Phi = -grad(log rho).grad(pi) + rho div((u.grad)u + sign(...)u_perp
    + (eps/rho)Lap^2 u) - sign*[rho-1, Lap]omega; the lowest dyadic block is
    copied from the direct difference.
    """
    fl = fields if fields is not None else Fields(state)
    g = state.grid
    sigma = state.odd_sign

    # Phi_1 = -grad(log rho) . grad(pi)
    L1, L2 = fl.grad_log_rho_phys
    p1 = inverse_transform(pressure_solution.grad_pi.x1)
    p2 = inverse_transform(pressure_solution.grad_pi.x2)
    phi1 = -1.0 * product_physical(L1 * p1 + L2 * p2, g)

    # Phi_2 (+ eps part) = rho * div(G) for the same dealiased source vector
    # G that feeds the elliptic solve, without its -sign*grad(omega) piece
    G = fl.advection + sigma * fl.odd_transport
    if state.epsilon > 0.0:
        G = G + state.epsilon * fl.hyper
    divG = inverse_transform(divergence(G))
    phi2 = product_physical(fl.rho_phys * divG, g)

    phi3 = commutator_rho_laplacian(state, fl)

    phi = phi1 + phi2 - sigma * phi3

    part = build_partition(g)
    low_mult = part.block_multiplier(-1)
    high_mult = (1.0 - low_mult) * g.inv_k_sq
    direct = pressure_solution.grad_pi_minus_rho_omega

    out = []
    for comp in (0, 1):
        kk = g.k1 if comp == 0 else g.k2
        hi = 1j * kk * (high_mult * phi.coeffs)
        lo = low_mult * (direct.x1.coeffs if comp == 0 else direct.x2.coeffs)
        out.append(SpectralScalar(g, hi + lo))
    return SpectralVector(out[0], out[1])
