"""Variable-coefficient elliptic solve for the pressure gradient and the
momentum equation's pressure force.  The regular combination
grad(pi - sign*rho*omega) is dynamics.grad_pi_minus_rho_omega's; its second
route, the reassembly from the source decomposition, and the commutator
[rho - 1, Lap] omega are verify's, like every identity's second route.

The elliptic problem -div(a grad Pi) = div F is solved by preconditioned
conjugate gradients on the mean-zero scalar potential, in solve_elliptic,
the one solve, which solve_pressure calls with a = 1/rho; curl-freeness of
the returned gradient is exact because the unknown is the potential.  The
CG vectors hold the columns k2 = 0..n//3 of the half-spectrum, the
dealiased band: one operator application is one irfft2 of both gradient
components' band columns (irfft2's band path) and one full-width rfft2,
each over both components stacked, with updates in place.  The CG's
stacked arrays (Grid.band_ik, the gradient, PressureSolution.force) and
the vector fields share one layout, a SpectralVector's (2, n, n/2+1)
coefficients, here cut to the band columns: band_ik is grid.ik[..., :m]
times Grid.band, the right-hand side is formed from F.coeffs[..., :m], and
dynamics.momentum_rhs subtracts the force from its coeffs[..., :m] in one
statement.  Inner products and norms are spectral.half_vdot, the
full-spectrum L2 values (Plancherel for real fields), and the stopping
test is on the unpreconditioned residual ||b - Ax|| / ||b||, so the
tolerance keeps its meaning whichever preconditioner runs.

An operator application transforms a grad p on its way to -div(a grad p),
so the solve accumulates the band columns of T[a grad Pi] alongside the
iterate at no transform; with a = 1/rho that is the momentum equation's
pressure force, PressureSolution.force, which dynamics.momentum_rhs reads
in place of two irfft2 and two rfft2 per call.  The accumulated sum
matches the force formed from grad(pi) to about 1e-15 relative.

A solve builds only what it returns (the potential, the force and grad_pi,
fresh arrays) and works in the held oddflow.fft.Workspace of its grid size,
or else in its own, which dies with the solve.  Its multipliers are the
Grid's (band, band_ik, band_inv_k_sq), so the module keeps nothing per grid
and a grid lives no longer than its fields.  Concus-Golub's scalar
transforms use the first components of an operator application's stacked
buffers: an application and a preconditioner call never overlap.  The
arrays are never cleared: each solve writes every element it reads.  The
band columns of rfft2(a grad p) that an application returns are a view of
the workspace's f_out, which the next application or preconditioner call
overwrites, so the CG folds them into the force first.

A pressure solve starts from the state's pressure_guess, which only
stepping.step sets, and from zero on every other state (verify, row 0 of a
run, direct callers).  The guess is projected onto the mean-zero band; one
that already meets the tolerance returns after 0 iterations, before the
preconditioner is built.  Identical inputs and guesses give bit-identical
results at one BLAS thread count (README, on determinism).

Preconditioner, chosen once per solve from the solve's own samples of a:

- (-Lap)^{-1}, the exact inverse for constant a;
- Concus-Golub (SIAM J. Numer. Anal. 10 (1973) 1103-1120),
  M = P a^{-1/2} (-Lap)^{-1} a^{-1/2}, with P the band projection and the
  full-width mean-zero (-Lap)^{-1}.  Since -div(a grad) =
  a^{1/2} (-Lap + q) a^{1/2} with q = Lap(a^{1/2}) / a^{1/2}, the
  preconditioned operator is I + (-Lap)^{-1} q up to P, and the lowest
  nonzero |k|^2 on the torus is 1, so sup|q| measures how far M A is from
  the identity.  One application costs two scalar irfft2/rfft2 pairs, the
  first irfft2 on r's band columns and the second full width, about one
  operator application, so an iteration costs about twice a plain one.

Concus-Golub runs when max a / min a >= CONTRAST_MIN and then, at the
cost of one more scalar transform pair, sup|q| < SUP_Q_MAX; otherwise
(-Lap)^{-1} runs.  Measured with one FFT thread at n = 64 and 128:

- the identity-suite states (contrast 1.16-1.53, sup|q| <= 0.22) take
  9-12 plain iterations; Concus-Golub takes 6-8 and is slower;
- density_wave (contrast 3.0 at a = 0.5 and 19 at a = 0.9; sup|q| 1.0
  and 9.0, steady along its runs) goes from 21 to 8 and from 57 to 12
  iterations, and its solve from 10 to 8.6 ms and 28 to 12 ms at n = 128;
- random_bandlimited at a = 0.5 (200 seeds: contrast 2.2-3.0, sup|q|
  12.6-29.5) takes 14-17 plain iterations and 16-22 Concus-Golub ones,
  each about twice the price.

So the contrast test alone keeps the suites plain, and sup|q| alone sends
them to Concus-Golub.  The thresholds sit inside the measured gaps:
contrast (1.53, 3.0) and sup|q| (9.0, 12.6).

The stage states of stepping.step name the preconditioner that the step's
first solve to apply one applied (FlowState.preconditioner; a solve that
meets the tolerance at its guess applies none), and their solves apply it
without the two tests: the stage states lie within one step of stage 1,
and both choices converge to the same tolerance.  With about 2-3
iterations per warm solve, the skipped maximum, square root and sup|q|
transform pair took 1.7% off the wall time of a 64^2 plain-path run with
a diagnostics row every step and 2.4% off a 128^2 Concus-Golub one, on
paired runs with one FFT thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fft as _fft
from .dynamics import FlowState
from .errors import (
    ConvergenceError,
    GridMismatchError,
    OddflowError,
    RuntimeAbort,
    ValidationError,
)
from .spectral import Grid, SpectralVector, dealias_columns, half_vdot, l2_norm

DEFAULT_TOL = 1e-11
DEFAULT_MAX_ITER = 500
CONTRAST_MIN = 2.0  # max a / min a from which Concus-Golub may pay
SUP_Q_MAX = 10.5   # sup|Lap(a^{1/2}) / a^{1/2}| below which it does


@dataclass(frozen=True)
class PressureSolution:
    """grad(Pi), the force T[a grad Pi] as band columns k2 = 0..n//3 of
    both components (shape (2, n, n//3 + 1), dealiased, column 0 exactly
    Hermitian), the potential's band columns (the CG's iterate, a warm
    start for a nearby solve) and solver metadata: iterations, residual and
    the preconditioner's name (inverse_laplacian or concus_golub; None
    after 0 iterations).  For a state's pressure (a = 1/rho) the force is
    that of the momentum equation, which dynamics.momentum_rhs reads, and
    dynamics.grad_pi_minus_rho_omega builds the regular part from grad_pi."""

    grad_pi: SpectralVector
    force: np.ndarray
    potential: np.ndarray
    iterations: int
    residual: float
    preconditioner: str | None


def _preconditioner(a_phys: np.ndarray, a_star: float, grid: Grid, ws: _fft.Workspace,
                    name: str | None = None):
    """The function z <- M r that the CG applies on the band columns; it
    writes z in place.  M is the one the name gives (inverse_laplacian or
    concus_golub, the function's __name__), or, without one, the one the
    rule in the module docstring chooses.  Concus-Golub works in ws, the
    solve's workspace."""
    m = grid.dealias_cutoff + 1

    def inverse_laplacian(r, z):
        np.multiply(r, grid.band_inv_k_sq, out=z)

    if (name == "inverse_laplacian"
            or name is None and float(np.max(a_phys)) < CONTRAST_MIN * a_star):
        return inverse_laplacian
    v_out, f_out = ws.g_out[0], ws.f_out[0]
    root = np.sqrt(a_phys, out=ws.root)
    if name is None:
        f = _fft.rfft2(root, out=f_out)
        np.multiply(-grid.k_sq, f, out=f)
        q = _fft.irfft2(f, out=v_out)  # Lap(a^{1/2})
        q /= root
        if not float(np.max(np.abs(q, out=q))) < SUP_Q_MAX:
            return inverse_laplacian
    inv_root = np.divide(1.0, root, out=root)

    def concus_golub(r, z):
        v = _fft.irfft2(r, out=v_out)  # the band columns alone
        v *= inv_root
        f = _fft.rfft2(v, out=f_out)
        f *= grid.inv_k_sq
        v = _fft.irfft2(f, out=v_out)
        v *= inv_root
        f = _fft.rfft2(v, out=f_out)
        np.multiply(f[:, :m], grid.band, out=z)

    return concus_golub


def solve_elliptic(a_phys: np.ndarray, F: SpectralVector, guess: np.ndarray | None = None,
                   preconditioner: str | None = None,
                   tol: float = DEFAULT_TOL) -> PressureSolution:
    """PCG for -div(a grad Pi) = div F on mean-zero band-limited potentials,
    given the n x n grid samples a_phys of the dealiased coefficient a.
    guess, on the band columns, is projected onto the mean-zero band and
    starts the iteration; one that already meets tol returns after 0
    iterations.  preconditioner names M (see _preconditioner); None chooses
    it.  A non-finite residual aborts.  The scratch is the grid size's
    fft.Workspace: the held one, else one that lives as long as the solve.

    The solution's force is T[a grad Pi]: every operator application forms
    rfft2(a grad p) on its way to -div(a grad p), so it follows the iterate
    at no transform: ax starts at the guess's application (zero without
    one) and takes alpha times the application of each search direction,
    as x does."""
    grid = F.grid
    if a_phys.shape != (grid.n, grid.n):
        raise GridMismatchError(
            f"coefficient samples {a_phys.shape} do not match grid n={grid.n}")
    a_star = float(np.min(a_phys))
    if a_star <= 0.0:
        raise ValidationError(
            f"elliptic coefficient not bounded below: min a = {a_star:.3e}")
    with _fft.workspace(grid.n) as ws:
        ik = grid.band_ik
        m = ik.shape[-1]
        b, r, tmp, grad, g_out, f_out = ws.b, ws.r, ws.tmp, ws.grad, ws.g_out, ws.f_out

        F_band = F.coeffs[..., :m]
        np.multiply(ik[0], F_band[0], out=b)
        b += np.multiply(ik[1], F_band[1], out=tmp)
        b_norm = float(np.sqrt(half_vdot(b, b)))

        def apply(p, out):
            """out = -div(a grad p); returns the band columns of
            rfft2(a grad p), a view of f_out (module docstring)."""
            np.multiply(ik, p, out=grad)
            g = _fft.irfft2(grad, out=g_out)
            g *= a_phys
            f = _fft.rfft2(g, out=f_out)[..., :m]
            np.multiply(ik[0], f[0], out=out)
            np.multiply(ik[1], f[1], out=tmp)
            out += tmp
            np.negative(out, out=out)
            return f

        res = 1.0
        it = 0
        applied = None
        if b_norm == 0.0:
            x, ax, res = np.zeros_like(b), np.zeros_like(ik), 0.0
        elif guess is None:
            x, ax = np.zeros_like(b), np.zeros_like(ik)
            np.copyto(r, b)
        else:
            x = guess * grid.band
            ax = np.array(apply(x, r))
            np.subtract(b, r, out=r)
            res = float(np.sqrt(half_vdot(r, r))) / b_norm
        if not res <= tol:
            precondition = _preconditioner(a_phys, a_star, grid, ws, preconditioner)
            applied = precondition.__name__
            z, p, Ap = ws.z, ws.p, ws.Ap
            precondition(r, z)
            np.copyto(p, z)
            rz = half_vdot(r, z)
            for it in range(1, DEFAULT_MAX_ITER + 1):
                fp = apply(p, Ap)
                denom = half_vdot(p, Ap)
                if denom <= 0.0:
                    raise ConvergenceError(
                        f"CG broke down at iteration {it}: <p, Ap> = {denom:.3e}")
                alpha = rz / denom
                np.multiply(p, alpha, out=tmp)
                x += tmp
                fp *= alpha
                ax += fp
                np.multiply(Ap, alpha, out=tmp)
                r -= tmp
                res = float(np.sqrt(half_vdot(r, r))) / b_norm
                if not np.isfinite(res):
                    raise RuntimeAbort(f"pressure CG residual {res} at iteration {it}")
                if res <= tol:
                    break
                precondition(r, z)
                rz_new = half_vdot(r, z)
                p *= rz_new / rz
                p += z
                rz = rz_new
            else:
                raise ConvergenceError(
                    f"pressure CG did not reach tol {tol:.1e} in {it} iterations "
                    f"(residual {res:.3e})")

        # grad Pi, zero past the band columns, as gradient() gives it
        gp = SpectralVector.wrap(grid, np.zeros_like(F.coeffs))
        np.multiply(grid.ik[..., :m], x, out=gp.coeffs[..., :m])
        # post-hoc energy bound a_* ||grad Pi|| <= ||F||, with slack for tol
        lhs = a_star * l2_norm(gp)
        rhs = l2_norm(F) * (1.0 + 10.0 * tol) + 1e-14
        if lhs > rhs:
            raise OddflowError(
                f"energy bound violated: a_*||grad Pi|| = {lhs:.6e} > ||F|| = {rhs:.6e}")
        return PressureSolution(gp, dealias_columns(ax), x, it, res, applied)


def solve_pressure(state: FlowState, tol: float = DEFAULT_TOL) -> PressureSolution:
    """Pressure gradient of the momentum equation for this state, stored as
    state.pressure (replacing any stored one) and returned.  The CG starts
    from state.pressure_guess when the state carries one, else from zero,
    and applies the preconditioner state.preconditioner names, if any.
    The source F is formed in the grid size's fft.Workspace.
    No program path passes tol; perfbench's traced runs read it from the
    call's bound arguments.

    Solves -div((1/rho) grad pi) = div((u.grad)u + sign(grad log rho.grad)u_perp
    + (eps/rho) Lap^2 u) - sign*Lap(omega).
    """
    fl = state.fields
    with _fft.workspace(state.grid.n) as ws:
        state.pressure = solve_elliptic(fl.inv_rho_phys, fl.pressure_source(ws.source),
                                        state.pressure_guess, state.preconditioner, tol)
    return state.pressure
