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
are formed on the grid and re-truncated, which requires min rho above the
vacuum floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CancellationIdentityError, GridMismatchError, RuntimeAbort
from .spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    bilaplacian,
    curl,
    dealias,
    divergence,
    gradient,
    inverse_transform,
    laplacian,
    l2_norm,
    l2_norm_vector,
    perp,
    perp_gradient,
    product_physical,
    vector_bilaplacian,
    vector_laplacian,
    zero_scalar,
)

VACUUM_FLOOR = 1e-6


class FlowState:
    """Snapshot (t, rho-1, u, eps, odd sign) of the flow.

    rho_dev stores the deviation rho - 1; u is divergence-free.
    """

    __slots__ = ("t", "rho_dev", "u", "epsilon", "odd_sign")

    def __init__(self, t: float, rho_dev: SpectralScalar, u: SpectralVector,
                 epsilon: float = 0.0, odd_sign: float = 1.0):
        if rho_dev.grid != u.grid:
            raise GridMismatchError("rho and u live on different grids")
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if odd_sign not in (1.0, -1.0, 1, -1):
            raise ValueError("odd_sign must be +1 or -1")
        self.t = float(t)
        self.rho_dev = rho_dev
        self.u = u
        self.epsilon = float(epsilon)
        self.odd_sign = float(odd_sign)

    @property
    def grid(self) -> Grid:
        return self.rho_dev.grid

    def copy(self) -> "FlowState":
        return FlowState(self.t, self.rho_dev.copy(), self.u.copy(),
                         self.epsilon, self.odd_sign)


@dataclass(frozen=True)
class GoodUnknowns:
    omega: SpectralScalar
    eta: SpectralScalar
    theta: SpectralScalar


class Fields:
    """Lazy per-state cache of the physical samples and dealiased products
    shared by the RHS assemblies and the pressure solve."""

    def __init__(self, state: FlowState, vacuum_floor: float = VACUUM_FLOOR):
        self.state = state
        self.grid = state.grid
        self.vacuum_floor = vacuum_floor
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # --- density -----------------------------------------------------
    @property
    def rho_phys(self) -> np.ndarray:
        def build():
            dev = inverse_transform(dealias(self.state.rho_dev))
            rho = 1.0 + dev
            if float(np.min(rho)) < self.vacuum_floor:
                raise RuntimeAbort(
                    f"density minimum {np.min(rho):.3e} below vacuum floor "
                    f"{self.vacuum_floor:.1e}",
                    t=self.state.t, quantity="min rho")
            return rho
        return self._get("rho_phys", build)

    @property
    def inv_rho(self) -> SpectralScalar:
        return self._get("inv_rho", lambda: product_physical(1.0 / self.rho_phys, self.grid))

    @property
    def inv_rho_phys(self) -> np.ndarray:
        return self._get("inv_rho_phys", lambda: inverse_transform(self.inv_rho))

    @property
    def log_rho(self) -> SpectralScalar:
        return self._get("log_rho", lambda: product_physical(np.log(self.rho_phys), self.grid))

    @property
    def grad_log_rho_phys(self):
        def build():
            G = gradient(self.log_rho)
            return (inverse_transform(G.x1),
                    inverse_transform(G.x2))
        return self._get("grad_log_rho_phys", build)

    @property
    def grad_inv_rho_phys(self):
        def build():
            G = gradient(self.inv_rho)
            return (inverse_transform(G.x1),
                    inverse_transform(G.x2))
        return self._get("grad_inv_rho_phys", build)

    @property
    def grad_rho_phys(self):
        def build():
            G = gradient(dealias(self.state.rho_dev))
            return (inverse_transform(G.x1),
                    inverse_transform(G.x2))
        return self._get("grad_rho_phys", build)

    # --- velocity ----------------------------------------------------
    @property
    def u_phys(self):
        def build():
            u = self.state.u
            return (inverse_transform(dealias(u.x1)),
                    inverse_transform(dealias(u.x2)))
        return self._get("u_phys", build)

    @property
    def grad_u_phys(self):
        """(d1u1, d2u1, d1u2, d2u2) on the grid."""
        def build():
            g = self.grid
            u = self.state.u
            c1 = dealias(u.x1).coeffs
            c2 = dealias(u.x2).coeffs
            return tuple(
                inverse_transform(SpectralScalar(g, 1j * kk * cc))
                for cc, kk in ((c1, g.k1), (c1, g.k2), (c2, g.k1), (c2, g.k2))
            )
        return self._get("grad_u_phys", build)

    @property
    def omega(self) -> SpectralScalar:
        return self._get("omega", lambda: curl(self.state.u))

    @property
    def omega_phys(self) -> np.ndarray:
        return self._get("omega_phys", lambda: inverse_transform(dealias(self.omega)))

    # --- assembled nonlinear terms ------------------------------------
    @property
    def advection(self) -> SpectralVector:
        """T[(u.grad)u]."""
        def build():
            u1, u2 = self.u_phys
            d1u1, d2u1, d1u2, d2u2 = self.grad_u_phys
            a1 = product_physical(u1 * d1u1 + u2 * d2u1, self.grid)
            a2 = product_physical(u1 * d1u2 + u2 * d2u2, self.grid)
            return SpectralVector(a1, a2)
        return self._get("advection", build)

    @property
    def odd_transport(self) -> SpectralVector:
        """T[(grad log rho . grad) u_perp] (without the odd sign)."""
        def build():
            L1, L2 = self.grad_log_rho_phys
            d1u1, d2u1, d1u2, d2u2 = self.grad_u_phys
            # u_perp = (-u2, u1) so d_j u_perp = (-d_j u2, d_j u1)
            c1 = product_physical(-(L1 * d1u2 + L2 * d2u2), self.grid)
            c2 = product_physical(L1 * d1u1 + L2 * d2u1, self.grid)
            return SpectralVector(c1, c2)
        return self._get("odd_transport", build)

    @property
    def hyper(self) -> SpectralVector:
        """T[(1/rho) Lap^2 u] (without the epsilon factor)."""
        def build():
            D = vector_bilaplacian(SpectralVector(dealias(self.state.u.x1),
                                                  dealias(self.state.u.x2)))
            h1 = product_physical(self.inv_rho_phys * inverse_transform(D.x1), self.grid)
            h2 = product_physical(self.inv_rho_phys * inverse_transform(D.x2), self.grid)
            return SpectralVector(h1, h2)
        return self._get("hyper", build)

    def pressure_source(self, include_odd: bool = True) -> SpectralVector:
        """Vector F with -div((1/rho) grad pi) = div F; the -sign*grad(omega)
        contribution of the odd stress is folded in."""
        sigma = self.state.odd_sign
        eps = self.state.epsilon
        F = self.advection
        if include_odd:
            F = F + sigma * self.odd_transport - sigma * gradient(self.omega)
        if eps > 0.0:
            F = F + eps * self.hyper
        return F


def density_bounds(state: FlowState) -> tuple[float, float]:
    dev = inverse_transform(dealias(state.rho_dev))
    return float(1.0 + np.min(dev)), float(1.0 + np.max(dev))


# ---------------------------------------------------------------------------
# operators from the momentum equation


def odd_stress_divergence(state: FlowState, check: bool = True) -> SpectralVector:
    """sign * div(rho grad(u_perp)), assembled in divergence form and checked
    against the expansion rho Lap(u_perp) + (grad rho . grad) u_perp."""
    fl = Fields(state)
    g = state.grid
    rho = fl.rho_phys
    d1u1, d2u1, d1u2, d2u2 = fl.grad_u_phys
    # u_perp = (-u2, u1)
    comps = []
    for dj_i in ((-d1u2, -d2u2), (d1u1, d2u1)):
        f1 = product_physical(rho * dj_i[0], g)
        f2 = product_physical(rho * dj_i[1], g)
        comps.append(divergence(SpectralVector(f1, f2)))
    out = SpectralVector(comps[0], comps[1]) * state.odd_sign

    if check:
        up = perp(SpectralVector(dealias(state.u.x1), dealias(state.u.x2)))
        lap_up = vector_laplacian(up)
        r1, r2 = fl.grad_rho_phys
        expanded = []
        for comp, (da, db) in ((lap_up.x1, (-d1u2, -d2u2)), (lap_up.x2, (d1u1, d2u1))):
            t1 = product_physical(rho * inverse_transform(comp), g)
            t2 = product_physical(r1 * da + r2 * db, g)
            expanded.append(t1 + t2)
        exp_vec = SpectralVector(expanded[0], expanded[1]) * state.odd_sign
        err = l2_norm_vector(out - exp_vec)
        scale = max(l2_norm_vector(out), l2_norm_vector(exp_vec), 1.0)
        if err > 1e-12 * scale:
            raise CancellationIdentityError(
                f"odd stress divergence expansion mismatch {err / scale:.3e}")
    return out


def bilinear_B(v: SpectralVector, alpha: SpectralScalar, check: bool = True) -> SpectralScalar:
    """B(grad v, Hess alpha) = d1d2(alpha)(d1v2 + d2v1) + d1v1 (d11 - d22)(alpha).

    Agrees with curl((grad alpha . grad) v_perp) when div v = 0; the check
    failing signals a non-divergence-free v.
    """
    g = v.grid
    a = dealias(alpha)
    v1 = dealias(v.x1)
    v2 = dealias(v.x2)
    a12 = inverse_transform(SpectralScalar(g, -g.k1 * g.k2 * a.coeffs))
    a11_22 = inverse_transform(SpectralScalar(g, (-g.k1**2 + g.k2**2) * a.coeffs))
    d1v1 = inverse_transform(SpectralScalar(g, 1j * g.k1 * v1.coeffs))
    d2v1 = inverse_transform(SpectralScalar(g, 1j * g.k2 * v1.coeffs))
    d1v2 = inverse_transform(SpectralScalar(g, 1j * g.k1 * v2.coeffs))
    out = product_physical(a12 * (d1v2 + d2v1) + d1v1 * a11_22, g)

    if check:
        ga1 = inverse_transform(SpectralScalar(g, 1j * g.k1 * a.coeffs))
        ga2 = inverse_transform(SpectralScalar(g, 1j * g.k2 * a.coeffs))
        d2v2 = inverse_transform(SpectralScalar(g, 1j * g.k2 * v2.coeffs))
        # (grad alpha . grad) v_perp with v_perp = (-v2, v1)
        w1 = product_physical(-(ga1 * d1v2 + ga2 * d2v2), g)
        w2 = product_physical(ga1 * d1v1 + ga2 * d2v1, g)
        other = curl(SpectralVector(w1, w2))
        err = l2_norm(out - other)
        scale = max(l2_norm(out), l2_norm(other), 1.0)
        if err > 1e-12 * scale:
            raise CancellationIdentityError(
                f"bilinear form identity mismatch {err / scale:.3e} "
                "(is v divergence-free?)")
    return out


def trilinear_T(state: FlowState, check: bool = True) -> SpectralScalar:
    """grad_perp(rho) . grad(|u|^2), checked against the expanded cubic form
    -2 (u2 d1u.grad rho - u1 d2u.grad rho)."""
    fl = Fields(state)
    g = state.grid
    u1, u2 = fl.u_phys
    usq = product_physical(u1 * u1 + u2 * u2, g)
    G = gradient(usq)
    g1 = inverse_transform(G.x1)
    g2 = inverse_transform(G.x2)
    r1, r2 = fl.grad_rho_phys
    left = product_physical(-r2 * g1 + r1 * g2, g)

    if check:
        d1u1, d2u1, d1u2, d2u2 = fl.grad_u_phys
        A = product_physical(d1u1 * r1 + d1u2 * r2, g)  # d1u . grad rho
        B = product_physical(d2u1 * r1 + d2u2 * r2, g)
        t1 = product_physical(u2 * inverse_transform(A), g)
        t2 = product_physical(u1 * inverse_transform(B), g)
        right = -2.0 * (t1 - t2)
        err = l2_norm(left - right)
        scale = max(l2_norm(left), l2_norm(right), 1.0)
        if err > 1e-10 * scale:
            raise CancellationIdentityError(
                f"trilinear form mismatch {err / scale:.3e}")
    return left


def good_unknowns(state: FlowState, check: bool = True) -> GoodUnknowns:
    """omega = curl u, eta = curl(rho u), theta = eta - Lap rho.

    eta is built as the curl of the dealiased momentum and cross-checked
    against rho*omega + grad_perp(rho).u.
    """
    fl = Fields(state)
    g = state.grid
    u1, u2 = fl.u_phys
    rho = fl.rho_phys
    m1 = product_physical(rho * u1, g)
    m2 = product_physical(rho * u2, g)
    eta = curl(SpectralVector(m1, m2))
    omega = fl.omega

    if check:
        gp = perp_gradient(dealias(state.rho_dev))
        gp1 = inverse_transform(gp.x1)
        gp2 = inverse_transform(gp.x2)
        expanded = product_physical(rho * fl.omega_phys, g) + \
            product_physical(gp1 * u1 + gp2 * u2, g)
        err = l2_norm(eta - expanded)
        scale = max(l2_norm(eta), l2_norm(expanded), 1.0)
        if err > 1e-12 * scale:
            raise CancellationIdentityError(
                f"eta assembly mismatch {err / scale:.3e}")

    theta = eta - laplacian(dealias(state.rho_dev))
    return GoodUnknowns(omega=omega, eta=eta, theta=theta)


def density_rhs(state: FlowState, fields: Fields | None = None) -> SpectralScalar:
    """d(rho)/dt = -T[u . grad rho]; the mean mode is pinned to its exact
    value zero (u is divergence-free, so the advection has no k=0 source)."""
    fl = fields if fields is not None else Fields(state)
    g = state.grid
    u1, u2 = fl.u_phys
    r1, r2 = fl.grad_rho_phys
    out = product_physical(u1 * r1 + u2 * r2, g)
    out.coeffs[0, 0] = 0.0
    return -1.0 * out


def momentum_rhs(state: FlowState, grad_pi: SpectralVector,
                 fields: Fields | None = None,
                 include_odd: bool = True) -> SpectralVector:
    """du/dt for the velocity form of the momentum equation.

    grad_pi must come from the pressure solve for this same state (or the
    same state with include_odd=False for the reference integrator).
    """
    if grad_pi.grid != state.grid:
        raise GridMismatchError("pressure gradient on a different grid")
    fl = fields if fields is not None else Fields(state)
    g = state.grid
    sigma = state.odd_sign
    eps = state.epsilon

    p1 = inverse_transform(grad_pi.x1)
    p2 = inverse_transform(grad_pi.x2)
    press = SpectralVector(product_physical(fl.inv_rho_phys * p1, g),
                           product_physical(fl.inv_rho_phys * p2, g))
    rhs = -1.0 * fl.advection - press
    if include_odd:
        up = perp(SpectralVector(dealias(state.u.x1), dealias(state.u.x2)))
        rhs = rhs - sigma * (vector_laplacian(up) + fl.odd_transport)
    if eps > 0.0:
        rhs = rhs - eps * fl.hyper
    return rhs


def theta_rhs(state: FlowState, fields: Fields | None = None,
              check: bool = True) -> SpectralScalar:
    """d(theta)/dt = -u.grad theta + (1/2) trilinear + sign*B(grad u, Hess rho)
    - eps Lap^2 omega, plus a correction that vanishes for odd_sign = +1."""
    fl = fields if fields is not None else Fields(state)
    g = state.grid
    sigma = state.odd_sign

    gu = good_unknowns(state, check=check)
    th = dealias(gu.theta)
    t1 = inverse_transform(SpectralScalar(g, 1j * g.k1 * th.coeffs))
    t2 = inverse_transform(SpectralScalar(g, 1j * g.k2 * th.coeffs))
    u1, u2 = fl.u_phys
    adv = product_physical(u1 * t1 + u2 * t2, g)

    tri = trilinear_T(state, check=check)
    bil = bilinear_B(state.u, state.rho_dev, check=check)

    rhs = -1.0 * adv + 0.5 * tri + sigma * bil
    if state.epsilon > 0.0:
        rhs = rhs - state.epsilon * bilaplacian(dealias(fl.omega))
    if sigma != 1.0:
        # transport of Lap rho does not cancel against the odd stress when
        # the sign is flipped while theta keeps its +1 definition
        lr = laplacian(dealias(state.rho_dev))
        l1 = inverse_transform(SpectralScalar(g, 1j * g.k1 * lr.coeffs))
        l2_ = inverse_transform(SpectralScalar(g, 1j * g.k2 * lr.coeffs))
        u_grad_lap = product_physical(u1 * l1 + u2 * l2_, g)
        dt_lap = laplacian(density_rhs(state, fl))
        rhs = rhs + (sigma - 1.0) * (dt_lap + u_grad_lap)
    return rhs


def omega_rhs(state: FlowState, pressure_solution, fields: Fields | None = None,
              identity_tol: float | None = 1e-10) -> SpectralScalar:
    """d(omega)/dt assembled from the rewritten transport form.

    Also assembles the raw form (with grad_perp(1/rho).grad pi) and checks
    the two agree, which exercises the cancellation
    grad_perp(1/rho).grad(sign*rho*omega) = -sign*grad_perp(log rho).grad omega.
    Pass identity_tol=None to skip the check (pure reporting paths).
    """
    fl = fields if fields is not None else Fields(state)
    g = state.grid
    sigma = state.odd_sign
    eps = state.epsilon

    om = dealias(fl.omega)
    o1 = inverse_transform(SpectralScalar(g, 1j * g.k1 * om.coeffs))
    o2 = inverse_transform(SpectralScalar(g, 1j * g.k2 * om.coeffs))
    u1, u2 = fl.u_phys
    L1, L2 = fl.grad_log_rho_phys
    I1, I2 = fl.grad_inv_rho_phys

    bil = bilinear_B(state.u, fl.log_rho, check=identity_tol is not None)

    eps_terms = zero_scalar(g)
    if eps > 0.0:
        b_om = inverse_transform(bilaplacian(om))
        eps_terms = eps_terms + product_physical(fl.inv_rho_phys * b_om, g)
        D = vector_bilaplacian(SpectralVector(dealias(state.u.x1), dealias(state.u.x2)))
        D1 = inverse_transform(D.x1)
        D2 = inverse_transform(D.x2)
        # grad_perp(1/rho) = (-d2, d1)(1/rho)
        eps_terms = eps_terms + product_physical(-I2 * D1 + I1 * D2, g)

    # rewritten: transport by u - sign*grad_perp(log rho), pressure through
    # the regular combination grad(pi - sign*rho*omega)
    Dp = pressure_solution.grad_pi_minus_rho_omega
    d1 = inverse_transform(Dp.x1)
    d2 = inverse_transform(Dp.x2)
    trans = product_physical((u1 + sigma * L2) * o1 + (u2 - sigma * L1) * o2, g)
    press = product_physical(-I2 * d1 + I1 * d2, g)
    rewritten = -1.0 * trans - press - sigma * bil - eps * eps_terms

    if identity_tol is not None:
        P = pressure_solution.grad_pi
        p1 = inverse_transform(P.x1)
        p2 = inverse_transform(P.x2)
        trans_raw = product_physical(u1 * o1 + u2 * o2, g)
        press_raw = product_physical(-I2 * p1 + I1 * p2, g)
        raw = -1.0 * trans_raw - press_raw - sigma * bil - eps * eps_terms
        err = l2_norm(rewritten - raw)
        scale = max(l2_norm(rewritten), l2_norm(raw), 1.0)
        if err > identity_tol * scale:
            raise CancellationIdentityError(
                f"vorticity transport cancellation mismatch {err / scale:.3e}")
    return rewritten


# ---------------------------------------------------------------------------
# residual verifiers (two independent assemblies of the same time derivative)


def residual_theta(state: FlowState, grad_pi: SpectralVector) -> float:
    """||theta_rhs - product-rule assembly|| / max(||a||, ||b||, 1)."""
    fl = Fields(state)
    a = theta_rhs(state, fields=fl, check=False)

    g = state.grid
    drho = density_rhs(state, fl)
    du = momentum_rhs(state, grad_pi, fields=fl)
    dr_p = inverse_transform(drho)
    du1 = inverse_transform(du.x1)
    du2 = inverse_transform(du.x2)
    u1, u2 = fl.u_phys
    rho = fl.rho_phys
    m1 = product_physical(dr_p * u1 + rho * du1, g)
    m2 = product_physical(dr_p * u2 + rho * du2, g)
    b = curl(SpectralVector(m1, m2)) - laplacian(drho)

    err = l2_norm(a - b)
    return err / max(l2_norm(a), l2_norm(b), 1.0)


def residual_omega(state: FlowState, pressure_solution) -> float:
    """||omega_rhs - curl(momentum_rhs)|| / max(||a||, ||b||, 1)."""
    fl = Fields(state)
    a = omega_rhs(state, pressure_solution, fields=fl, identity_tol=None)
    b = curl(momentum_rhs(state, pressure_solution.grad_pi, fields=fl))
    err = l2_norm(a - b)
    return err / max(l2_norm(a), l2_norm(b), 1.0)
