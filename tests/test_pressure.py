import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import oddflow
from oddflow import fft, pressure
from oddflow.app_io import RunConfig, init_scenario
from oddflow.dynamics import FlowState, grad_pi_minus_rho_omega
from oddflow.errors import ConvergenceError, GridMismatchError, RuntimeAbort, ValidationError
from oddflow.pressure import solve_elliptic, solve_pressure
from oddflow.spectral import (
    Grid,
    SpectralVector,
    check_real,
    curl,
    dealias,
    expand,
    gradient,
    half_vdot,
    inverse_laplacian,
    inverse_transform,
    leray_project,
    divergence,
    l2_norm,
    product_physical,
    zero_scalar,
)
from oddflow.verify import (
    commutator_expanded,
    commutator_rho_laplacian,
    make_state,
    pressure_split_via_phi,
    random_band_scalar,
)

from conftest import constant_scalar, coordinates, forward_transform, shear_state_fields


PLAIN, CONCUS_GOLUB = "inverse_laplacian", "concus_golub"


def chosen_path(a_phys, grid):
    return pressure._preconditioner(a_phys, float(np.min(a_phys)), grid,
                                   fft.Workspace(grid.n)).__name__


def coefficient(grid, path):
    """Samples of a coefficient whose solve takes the given preconditioner:
    rough noise of contrast 2.9, or 1 / (1 + 0.9 cos x1 cos x2), the smooth
    coefficient of density_wave at a = 0.9 (contrast 19, sup|q| 9)."""
    x1, x2 = coordinates(grid)
    if path == PLAIN:
        a = constant_scalar(grid, 1.0) + random_band_scalar(grid, 1, 96, 6, sup_amplitude=0.5)
    else:
        a = forward_transform(grid, 1.0 / (1.0 + 0.9 * np.cos(x1) * np.cos(x2)))
    a_phys = inverse_transform(dealias(a))
    assert chosen_path(a_phys, grid) == path
    return a_phys


def noise_coefficient(grid, seed, stream, band, **kwargs):
    """Samples of 1 + a random band-limited field."""
    noise = random_band_scalar(grid, seed, stream, band, **kwargs)
    return inverse_transform(dealias(constant_scalar(grid, 1.0) + noise))


class TestSolveElliptic:
    def test_constant_coefficient_oracle(self, grid64):
        x1 = coordinates(grid64)[0]
        F = SpectralVector(forward_transform(grid64, np.sin(x1)),
                           zero_scalar(grid64))
        gp = solve_elliptic(np.ones((64, 64)), F).grad_pi
        assert np.max(np.abs(inverse_transform(gp.x1) + np.sin(x1))) < 1e-11
        assert l2_norm(gp.x2) < 1e-12
        # equality in the energy bound
        assert abs(l2_norm(gp) - l2_norm(F)) < 1e-10

    def test_divergence_free_source(self, grid64):
        x1 = coordinates(grid64)[0]
        F = SpectralVector(zero_scalar(grid64),
                           forward_transform(grid64, np.sin(x1)))
        gp = solve_elliptic(np.ones((64, 64)), F).grad_pi
        assert l2_norm(gp) == 0.0

    def test_variable_coefficient_residual(self, grid64):
        tol = 1e-11
        for seed in range(3):
            a_phys = noise_coefficient(grid64, seed, 90, 6, power=1.0, sup_amplitude=0.5)
            F = SpectralVector(random_band_scalar(grid64, seed, 91, 15),
                               random_band_scalar(grid64, seed, 92, 15))
            gp = solve_elliptic(a_phys, F, tol=tol).grad_pi
            # residual of the equation in L2, via an independent re-assembly
            r1 = product_physical(a_phys * inverse_transform(gp.x1), grid64)
            r2 = product_physical(a_phys * inverse_transform(gp.x2), grid64)
            lhs = -1.0 * divergence(SpectralVector(r1, r2))
            rhs = divergence(SpectralVector(
                *(type(F.x1)(grid64, c.coeffs * grid64.dealias_mask)
                  for c in (F.x1, F.x2))))
            assert l2_norm(lhs - rhs) <= 2 * tol * l2_norm(rhs)
            # energy bound
            a_star = float(np.min(a_phys))
            assert a_star * l2_norm(gp) <= l2_norm(F) * (1 + 1e-9)

    def test_curl_free_output(self, grid64):
        F = SpectralVector(random_band_scalar(grid64, 5, 94, 10),
                           random_band_scalar(grid64, 5, 95, 10))
        gp = solve_elliptic(noise_coefficient(grid64, 5, 93, 4, sup_amplitude=0.3), F).grad_pi
        assert l2_norm(curl(gp)) <= 1e-10 * l2_norm(gp)

    def test_coefficient_not_bounded_below(self, grid64):
        F = SpectralVector(zero_scalar(grid64), zero_scalar(grid64))
        with pytest.raises(ValidationError):
            solve_elliptic(-np.ones((64, 64)), F)

    def test_coefficient_on_another_grid(self, grid32, grid64):
        F = SpectralVector(zero_scalar(grid64), zero_scalar(grid64))
        with pytest.raises(GridMismatchError, match=r"\(32, 32\) do not match grid n=64"):
            solve_elliptic(np.ones((32, 32)), F)

    def test_non_convergence(self, grid64, monkeypatch):
        monkeypatch.setattr(pressure, "DEFAULT_MAX_ITER", 2)
        F = SpectralVector(random_band_scalar(grid64, 1, 97, 10),
                           random_band_scalar(grid64, 1, 98, 10))
        with pytest.raises(ConvergenceError, match="in 2 iterations"):
            solve_elliptic(noise_coefficient(grid64, 1, 96, 6, sup_amplitude=0.5), F,
                           tol=1e-13)

    def test_nan_source_aborts_after_one_iteration(self, grid64):
        F = SpectralVector(random_band_scalar(grid64, 1, 97, 10),
                           random_band_scalar(grid64, 1, 98, 10))
        F.x1.coeffs[3, 2] = np.nan
        with pytest.raises(RuntimeAbort, match="residual nan at iteration 1$"):
            solve_elliptic(noise_coefficient(grid64, 1, 96, 5, sup_amplitude=0.4), F)

    def test_non_convergence_concus_golub(self, grid64, monkeypatch):
        monkeypatch.setattr(pressure, "DEFAULT_MAX_ITER", 2)
        F = SpectralVector(random_band_scalar(grid64, 1, 97, 10),
                           random_band_scalar(grid64, 1, 98, 10))
        with pytest.raises(ConvergenceError, match="in 2 iterations"):
            solve_elliptic(coefficient(grid64, CONCUS_GOLUB), F, tol=1e-13)

    @pytest.mark.parametrize("path", [PLAIN, CONCUS_GOLUB])
    def test_nan_source_aborts_on_either_path(self, grid64, path):
        F = SpectralVector(random_band_scalar(grid64, 1, 97, 10),
                           random_band_scalar(grid64, 1, 98, 10))
        F.x1.coeffs[3, 2] = np.nan
        with pytest.raises(RuntimeAbort, match="residual nan at iteration 1$"):
            solve_elliptic(coefficient(grid64, path), F)

    def test_determinism(self, grid64):
        a_phys = noise_coefficient(grid64, 2, 99, 5, sup_amplitude=0.4)
        F = SpectralVector(random_band_scalar(grid64, 2, 100, 12),
                           random_band_scalar(grid64, 2, 101, 12))
        g1 = solve_elliptic(a_phys, F).grad_pi
        g2 = solve_elliptic(a_phys, F).grad_pi
        assert np.array_equal(g1.x1.coeffs, g2.x1.coeffs)
        assert np.array_equal(g1.x2.coeffs, g2.x2.coeffs)


class TestSolvePressure:
    def test_steady_shear(self, grid64):
        x1 = coordinates(grid64)[0]
        rho, u = shear_state_fields(grid64)
        st = FlowState(0.0, rho, u)
        ps = solve_pressure(st)
        assert np.max(np.abs(inverse_transform(ps.grad_pi.x1) + np.sin(x1))) < 1e-11
        assert l2_norm(ps.grad_pi.x2) < 1e-12
        assert l2_norm(grad_pi_minus_rho_omega(st)) < 1e-11

    def test_zero_velocity(self, grid64):
        x1 = coordinates(grid64)[0]
        rho = forward_transform(grid64, 0.3 * np.cos(x1))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64),
                                                zero_scalar(grid64)))
        ps = solve_pressure(st)
        assert l2_norm(ps.grad_pi) < 1e-13

    def test_stores_and_always_solves(self, grid32):
        """The solution is stored on the state, and a state that holds one
        is solved again, to the same bits."""
        st = make_state(grid32, 3, "half_band")
        assert not st.solved
        first = solve_pressure(st)
        assert st.solved and st.pressure is first
        again = solve_pressure(st)
        assert again is not first and st.pressure is again
        assert np.array_equal(again.grad_pi.x1.coeffs, first.grad_pi.x1.coeffs)

    def test_regular_part_built_on_read(self, grid32):
        """A solve does not form rho*omega; the first read of the regular
        part does, once per state cache, and later reads reuse it."""
        st = make_state(grid32, 3, "half_band")
        solve_pressure(st)
        assert "rho_omega" not in vars(st.fields)
        first = grad_pi_minus_rho_omega(st)
        product = st.fields.rho_omega
        again = grad_pi_minus_rho_omega(st)
        assert st.fields.rho_omega is product
        assert np.array_equal(first.x1.coeffs, again.x1.coeffs)

    def test_euler_pressure_oracle(self, grid64):
        """rho = 1: grad(pi - omega) equals the Euler pressure gradient from
        a constant-coefficient solve of -Lap(pi_E) = div((u.grad)u)."""
        st = make_state(grid64, 7, "half_band")
        st = FlowState(0.0, zero_scalar(grid64), st.u)
        solve_pressure(st)
        adv = st.fields.transport  # rho = 1: no odd transport
        pi_e = inverse_laplacian(divergence(adv))
        grad_e = gradient(pi_e)
        diff = grad_pi_minus_rho_omega(st) - grad_e
        assert l2_norm(diff) <= 1e-9 * max(l2_norm(grad_e), 1)

    def test_solution_invariants(self, grid64):
        st = make_state(grid64, 8, "full_band")
        fl = st.fields
        ps = solve_pressure(st)
        assert l2_norm(curl(ps.grad_pi)) <= 1e-10 * max(l2_norm(ps.grad_pi), 1)
        rho_omega = product_physical(fl.rho_phys * fl.omega_phys, grid64)
        recon = ps.grad_pi - gradient(rho_omega)
        diff = recon - grad_pi_minus_rho_omega(st)
        assert l2_norm(diff) <= 1e-10 * max(l2_norm(ps.grad_pi), 1)


def density_wave(n, a):
    return init_scenario(RunConfig(
        grid_n=n, t_end=0.0, scenario={"name": "density_wave", "a": a}))


def random_bandlimited(n, seed):
    return init_scenario(RunConfig(
        grid_n=n, t_end=0.0, seed=seed, scenario={"name": "random_bandlimited", "a": 0.5}))


class TestHalfSpectrumCG:
    @pytest.mark.parametrize("a, path, iterations", [
        (0.1, PLAIN, 9),           # contrast 1.22
        (0.3, PLAIN, 15),          # contrast 1.86, under CONTRAST_MIN
        (0.5, CONCUS_GOLUB, 8),    # contrast 3.0, sup|q| 1.0; 21 plain
        (0.9, CONCUS_GOLUB, 14),   # contrast 19, sup|q| 9.0, under SUP_Q_MAX; 49 plain
    ])
    def test_density_wave_iterations(self, a, path, iterations):
        st = density_wave(64, a)
        assert chosen_path(st.fields.inv_rho_phys, st.grid) == path
        assert solve_pressure(st).iterations == iterations

    def test_rough_coefficient_stays_plain(self):
        """random_bandlimited seed 0: contrast 2.7 passes the first test,
        sup|q| 17.6 is over SUP_Q_MAX."""
        st = random_bandlimited(64, 0)
        a_phys = st.fields.inv_rho_phys
        assert float(np.max(a_phys) / np.min(a_phys)) >= pressure.CONTRAST_MIN
        assert chosen_path(a_phys, st.grid) == PLAIN
        assert solve_pressure(st).iterations == 16

    @pytest.mark.parametrize("name", [PLAIN, CONCUS_GOLUB])
    def test_named_preconditioner_overrides_the_rule(self, name):
        """A state that names its preconditioner (a stage state of step) has
        it applied, whichever one the rule would choose, and the solution
        records it; a state that names none records the rule's choice."""
        for st, chosen in ((random_bandlimited(64, 0), PLAIN),
                           (density_wave(64, 0.5), CONCUS_GOLUB)):
            assert solve_pressure(st).preconditioner == chosen
            st.preconditioner = name
            solution = solve_pressure(st)
            assert solution.preconditioner == name
            assert solution.residual <= pressure.DEFAULT_TOL

    @pytest.mark.parametrize("seed, profile, iterations", [
        (0, "half_band", 9), (0, "full_band", 12), (2, "full_band", 12)])
    def test_suite_states_stay_plain(self, seed, profile, iterations):
        st = make_state(Grid(128), seed, profile)
        assert chosen_path(st.fields.inv_rho_phys, st.grid) == PLAIN
        assert solve_pressure(st).iterations == iterations

    @pytest.mark.parametrize("state", [
        lambda: density_wave(64, 0.9), lambda: density_wave(64, 0.5),
        lambda: random_bandlimited(64, 0), lambda: make_state(Grid(64), 3, "full_band")],
        ids=["density_wave-0.9", "density_wave-0.5", "random_bandlimited", "make_state"])
    def test_paths_agree(self, monkeypatch, state):
        st = state()
        fl = st.fields
        F = fl.pressure_source(np.empty_like(fl.transport.coeffs))
        pis = []
        for contrast_min, sup_q_max in ((np.inf, 0.0), (0.0, np.inf)):
            monkeypatch.setattr(pressure, "CONTRAST_MIN", contrast_min)
            monkeypatch.setattr(pressure, "SUP_Q_MAX", sup_q_max)
            solution = solve_elliptic(fl.inv_rho_phys, F)
            assert solution.residual <= pressure.DEFAULT_TOL
            pis.append(solution.potential)
        plain, cg = pis
        assert np.linalg.norm(cg - plain) <= 1e-10 * np.linalg.norm(plain)

    def test_gradients_real_without_nyquist(self):
        st = density_wave(64, 0.9)
        ps = solve_pressure(st)
        for vec in (ps.grad_pi, grad_pi_minus_rho_omega(st)):
            for comp in (vec.x1, vec.x2):
                check_real(comp)
                assert np.all(comp.coeffs[32, :] == 0.0)
                assert np.all(comp.coeffs[:, 32] == 0.0)

    @pytest.mark.parametrize("n", [8, 64])
    def test_weighted_inner_product_is_full_spectrum_sum(self, n):
        rng = np.random.default_rng(n)
        x, y = (np.fft.fft2(rng.standard_normal((n, n))) for _ in range(2))
        full = float(np.real(np.sum(x * np.conj(y))))
        half = half_vdot(x[:, :n // 2 + 1], y[:, :n // 2 + 1])
        # relative to ||x|| ||y||, the scale Cauchy-Schwarz gives the sum
        assert abs(half - full) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(y)
        assert np.allclose(expand(x[:, :n // 2 + 1]), x, rtol=0, atol=1e-12)


class TestWarmStart:
    """A solve that starts from a guess on the band columns."""

    def source(self, grid):
        return SpectralVector(random_band_scalar(grid, 4, 97, 10),
                              random_band_scalar(grid, 4, 98, 10))

    def test_converged_guess_takes_no_iteration(self, monkeypatch):
        st = density_wave(64, 0.5)
        cold = solve_pressure(st)
        monkeypatch.setattr(pressure, "_preconditioner", None)  # never built
        st.pressure_guess = cold.potential
        warm = solve_pressure(st)
        assert warm.iterations == 0 and warm.residual <= pressure.DEFAULT_TOL
        assert warm.preconditioner is None
        assert np.array_equal(warm.potential, cold.potential)
        assert np.array_equal(warm.grad_pi.x1.coeffs, cold.grad_pi.x1.coeffs)

    @pytest.mark.parametrize("path", [PLAIN, CONCUS_GOLUB])
    def test_guess_projected_onto_band(self, grid64, path):
        """A mean mode and columns outside the band change nothing."""
        a_phys = coefficient(grid64, path)
        F = self.source(grid64)
        x_cold = solve_elliptic(a_phys, F).potential
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(x_cold.shape) + 1j * rng.standard_normal(x_cold.shape)
        guess = x_cold + 1e-3 * noise
        projected = guess * grid64.band
        assert guess[0, 0] != 0.0 and np.any(projected != guess)
        a = solve_elliptic(a_phys, F, guess)
        b = solve_elliptic(a_phys, F, projected)
        assert a.iterations == b.iterations > 0
        assert np.array_equal(a.potential, b.potential)

    @pytest.mark.parametrize("path", [PLAIN, CONCUS_GOLUB])
    def test_warm_agrees_with_cold(self, grid64, path):
        x1 = coordinates(grid64)[0]
        a_phys = coefficient(grid64, path)
        F = self.source(grid64)
        cold = solve_elliptic(a_phys, F)
        # the solution of a nearby problem: the coefficient moved by 1%
        near = solve_elliptic(a_phys * (1.0 + 0.01 * np.cos(x1)), F).potential
        warm = solve_elliptic(a_phys, F, near)
        assert warm.residual <= pressure.DEFAULT_TOL
        assert 0 < warm.iterations < cold.iterations
        tol = pressure.DEFAULT_TOL
        assert (np.linalg.norm(warm.potential - cold.potential)
                <= 100 * tol * np.linalg.norm(cold.potential))

    def test_no_guess_is_cold(self, grid64):
        """Without a guess the CG starts from zero and its loop is the cold
        solve's: a zero guess, which adds the b - A x0 application, gives
        the same potential bit for bit, after the cold count of 14."""
        st = density_wave(64, 0.9)
        F = st.fields.pressure_source(np.empty_like(st.fields.transport.coeffs))
        zero = solve_elliptic(st.fields.inv_rho_phys, F, np.zeros((64, 22), dtype=complex))
        cold = solve_pressure(st)
        assert np.array_equal(cold.potential, zero.potential)
        assert cold.iterations == zero.iterations == 14


class TestWorkspace:
    """The scratch arrays of the solves on one grid size (fft.Workspace)."""

    def test_second_solve_leaves_the_first(self):
        """A second solve in a held workspace leaves the first solution's
        potential, force and grad_pi as they were: none is a workspace
        array."""
        first_state, second_state = density_wave(64, 0.9), random_bandlimited(64, 0)
        with fft.workspace(first_state.grid.n) as ws:
            first = solve_pressure(first_state)
            kept = [a.copy() for a in (first.potential, first.force, first.grad_pi.coeffs)]
            assert solve_pressure(second_state).iterations > 0
        scratch = list(vars(ws).values())
        for array, copy in zip((first.potential, first.force, first.grad_pi.coeffs), kept):
            assert np.array_equal(array, copy)
            assert not any(np.shares_memory(array, w) for w in scratch)

    def test_held_through_the_outermost_block(self, grid64, monkeypatch):
        """A solve outside every block builds its own workspace, which dies
        with it; a block inside one that holds the grid's yields that one,
        and the outermost block frees it when it exits by an exception."""
        built = []
        init = fft.Workspace.__init__

        def recorded(self, n):
            init(self, n)
            built.append(weakref.ref(self))

        monkeypatch.setattr(fft.Workspace, "__init__", recorded)
        solve_pressure(density_wave(64, 0.5))
        assert len(built) == 1 and built[0]() is None and fft._held.workspaces == {}
        with pytest.raises(RuntimeAbort):
            with fft.workspace(grid64.n) as outer:
                with fft.workspace(64) as inner:
                    assert inner is outer
                solve_pressure(density_wave(64, 0.5))
                raise RuntimeAbort("leaving the block")
        assert len(built) == 2 and fft._held.workspaces == {}


GRID_LIFETIME = """
import gc, weakref
from oddflow.pressure import solve_pressure
from oddflow.spectral import Grid
from oddflow.verify import make_state

grid = Grid(32)
ref = weakref.ref(grid)
state = make_state(grid, 0, "full_band")
for name in ("inverse_laplacian", "concus_golub"):
    state.preconditioner = name
    assert solve_pressure(state).preconditioner == name
del grid, state
gc.collect()
assert ref() is None, "the grid outlived the solves on it"
"""

# the Littlewood-Paley routes read the grid's dyadic lists, which die with it
GRID_LIFETIME_LP = """
import gc, weakref
from oddflow.app_io import random_band_scalar
from oddflow.littlewood_paley import besov_norm, bony_reconstruction
from oddflow.pressure import solve_pressure
from oddflow.spectral import Grid
from oddflow.verify import make_state, pressure_split_via_phi, suite_partition

grid = Grid(32)
ref = weakref.ref(grid)
state = make_state(grid, 0, "full_band")
solve_pressure(state)
pressure_split_via_phi(state)
assert all(check.passed for check in suite_partition(grid))
u = random_band_scalar(grid, 0, 10, grid.dealias_cutoff - 1, power=1.0)
besov_norm(u, 1.0, 2, 2)
bony_reconstruction(u, u)
del grid, state, u
gc.collect()
assert ref() is None, "the grid outlived the Littlewood-Paley and verify routes"
"""


def run_fresh(script: str) -> None:
    """Run script in a fresh interpreter, which holds no earlier grid of the
    size that a cache could have kept instead, and fail on its error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oddflow.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=False)
    assert proc.returncode == 0, proc.stderr


def test_a_grid_dies_after_its_solves():
    """The solver keeps nothing per grid: once the state is gone, a grid
    that both preconditioners solved on is collected."""
    run_fresh(GRID_LIFETIME)


def test_a_grid_dies_after_the_littlewood_paley_routes():
    """Nor does a dyadic block list outlive its grid: a grid that the
    pressure split from Phi, the partition suite, a Besov norm and a Bony
    reconstruction ran on is collected once its fields are gone."""
    run_fresh(GRID_LIFETIME_LP)


class TestPressureForce:
    """PressureSolution.force, which the CG accumulates from its own
    operator applications, is T[(1/rho) grad pi] formed from grad_pi."""

    @staticmethod
    def recomputed(st):
        inv_rho, gp = st.fields.inv_rho_phys, st.pressure.grad_pi
        return [product_physical(inv_rho * inverse_transform(c), st.grid).coeffs
                for c in (gp.x1, gp.x2)]

    def check(self, st):
        force = st.pressure.force
        n, m = st.grid.n, st.grid.dealias_cutoff + 1
        assert force.shape == (2, n, m)
        expected = self.recomputed(st)
        for f, e in zip(force, expected):
            assert np.all(e[:, m:] == 0.0)
            assert np.linalg.norm(f - e[:, :m]) <= 1e-13 * np.linalg.norm(e)
            # dealiased, with an exactly Hermitian column 0
            assert np.all(f[m:n - m + 1] == 0.0)
            assert np.array_equal(f[n // 2 + 1:, 0], np.conj(f[n // 2 - 1:0:-1, 0]))

    @pytest.mark.parametrize("name", [PLAIN, CONCUS_GOLUB])
    def test_cold_warm_and_converged_guesses(self, name):
        st = density_wave(64, 0.5)
        st.preconditioner = name
        cold = solve_pressure(st)
        assert cold.iterations > 0 and cold.preconditioner == name
        self.check(st)
        st.pressure_guess = cold.potential * (1.0 + 1e-3 * np.cos(st.grid.k1[:, :22]))
        assert solve_pressure(st).iterations > 0
        self.check(st)
        st.pressure_guess = cold.potential
        assert solve_pressure(st).iterations == 0
        self.check(st)

    @pytest.mark.parametrize("name", [PLAIN, CONCUS_GOLUB])
    def test_zero_source(self, grid64, name):
        """u = 0 gives b = 0: no iteration, and a force of exact zeros."""
        x1 = coordinates(grid64)[0]
        rho = forward_transform(grid64, 0.3 * np.cos(x1))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64), zero_scalar(grid64)),
                       preconditioner=name)
        st.pressure_guess = np.ones((64, 22), dtype=complex)
        solution = solve_pressure(st)
        assert solution.iterations == 0
        assert not np.any(solution.force)
        self.check(st)


class TestPressureSplit:
    def test_homogeneous_matches_euler_correction(self, grid64):
        st = make_state(grid64, 9, "half_band")
        st = FlowState(0.0, zero_scalar(grid64), st.u)
        solve_pressure(st)
        via = pressure_split_via_phi(st)
        direct = grad_pi_minus_rho_omega(st)
        assert l2_norm(via - direct) <= 1e-9 * max(l2_norm(direct), 1)
        # and the direct difference is the gradient part of -div(u x u)
        _, q = leray_project(-1.0 * st.fields.transport)  # rho = 1: (u.grad)u alone
        assert l2_norm(direct - q) <= 1e-9 * max(l2_norm(q), 1)

    def test_zero_velocity(self, grid64):
        x1 = coordinates(grid64)[0]
        rho = forward_transform(grid64, 0.3 * np.cos(x1))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64),
                                                zero_scalar(grid64)))
        solve_pressure(st)
        via = pressure_split_via_phi(st)
        assert l2_norm(via) < 1e-12

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_random_agreement(self, grid64, eps):
        for seed in range(3):
            st = make_state(grid64, 20 + seed, "full_band")
            st = FlowState(st.t, st.rho_dev, st.u, epsilon=eps)
            solve_pressure(st)
            via = pressure_split_via_phi(st)
            direct = grad_pi_minus_rho_omega(st)
            rel = l2_norm(via - direct) / max(l2_norm(direct), 1.0)
            assert rel <= 1e-8

    @pytest.mark.parametrize("odd_sign", [-1.0, 0.0])
    def test_negative_odd_sign_agreement(self, grid64, odd_sign):
        st = make_state(grid64, 24, "full_band")
        st = FlowState(st.t, st.rho_dev, st.u, odd_sign=odd_sign)
        solve_pressure(st)
        via = pressure_split_via_phi(st)
        rel = l2_norm(via - grad_pi_minus_rho_omega(st)) / max(
            l2_norm(grad_pi_minus_rho_omega(st)), 1.0)
        assert rel <= 1e-8


class TestCommutator:
    def test_expansion_identity(self, grid64):
        for seed in range(3):
            st = make_state(grid64, 30 + seed, "full_band")
            c1 = commutator_rho_laplacian(st)
            c2 = commutator_expanded(st)
            rel = l2_norm(c1 - c2) / max(l2_norm(c1), l2_norm(c2), 1.0)
            assert rel <= 1e-10

    def test_vanishes_for_constant_density(self, grid64):
        st = make_state(grid64, 33, "half_band")
        st = FlowState(0.0, zero_scalar(grid64), st.u)
        assert l2_norm(commutator_rho_laplacian(st)) < 1e-13
