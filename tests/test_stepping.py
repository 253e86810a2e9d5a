import numpy as np
import pytest

from oddflow.dynamics import FlowState
from oddflow.errors import RuntimeAbort
from oddflow.spectral import (
    SpectralVector,
    forward_transform,
    l2_norm,
    l2_norm_vector,
    zero_scalar,
)
from oddflow.stepping import StepperConfig, cfl_dt, linear_factor, run, step
from oddflow.verify import make_state

from conftest import shear_state_fields


def shear(grid, eps=0.0):
    rho, u = shear_state_fields(grid)
    return FlowState(0.0, rho, u, epsilon=eps)


class TestLinearFactor:
    def test_eps_zero(self):
        ks = np.array([0.0, 1.0, 4.0, 100.0])
        assert np.all(linear_factor(ks, 0.5, 0.0) == 1.0)

    def test_unit_mode(self):
        val = linear_factor(np.array([1.0]), 1.0, 0.1)[0]
        assert abs(val - np.exp(-0.1)) < 1e-15

    def test_origin(self):
        assert linear_factor(np.array([0.0]), 2.0, 3.0)[0] == 1.0


class TestCfl:
    def test_rest_state_capped(self, grid64):
        st = FlowState(0.0, zero_scalar(grid64),
                       SpectralVector(zero_scalar(grid64), zero_scalar(grid64),
                                      divergence_free=True))
        assert cfl_dt(st) == 1e6

    def test_unit_shear_bound(self):
        from oddflow.spectral import Grid
        g = Grid(128)
        st = shear(g)
        assert abs(cfl_dt(st) - 1.0 / 64.0) < 1e-12

    def test_halves_with_doubling_n(self):
        from oddflow.spectral import Grid
        vals = {}
        for n in (64, 128):
            vals[n] = cfl_dt(shear(Grid(n)))
        assert abs(vals[64] / vals[128] - 2.0) < 1e-12

    def test_stiff_bound(self, grid64):
        st = make_state(grid64, 1, "half_band", epsilon=0.1)
        bound = cfl_dt(st)
        assert 0 < bound < 1e6


class TestStep:
    def test_steady_shear_unchanged(self, grid64):
        st = shear(grid64)
        cfg = StepperConfig(dt=0.01, t_end=1.0)
        out = step(st, cfg)
        assert l2_norm_vector(out.u - st.u) <= 1e-10
        assert l2_norm(out.rho_dev) <= 1e-13
        assert out.t == 0.01

    def test_exact_hyperviscous_decay(self, grid64):
        st = shear(grid64, eps=0.1)
        cfg = StepperConfig(dt=0.01, t_end=1.0, epsilon=0.1)
        out = step(st, cfg)
        amp = -2.0 * np.imag(out.u.x2.coeffs[1, 0])
        assert abs(amp - np.exp(-0.001)) <= 1e-9

    def test_rest_state(self, grid64):
        rho = forward_transform(grid64, 0.2 * np.cos(grid64.x2))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64),
                                                zero_scalar(grid64),
                                                divergence_free=True))
        out = step(st, StepperConfig(dt=0.01, t_end=1.0))
        assert l2_norm(out.rho_dev - st.rho_dev) < 1e-14
        assert l2_norm_vector(out.u) < 1e-14

    def test_means_preserved(self, grid64):
        st = make_state(grid64, 2, "half_band")
        out = step(st, StepperConfig(dt=0.005, t_end=1.0))
        assert out.rho_dev.coeffs[0, 0] == st.rho_dev.coeffs[0, 0]
        # for rho = 1 the velocity mean is exactly conserved as well
        st_h = FlowState(0.0, zero_scalar(grid64), st.u)
        out_h = step(st_h, StepperConfig(dt=0.005, t_end=1.0))
        assert abs(out_h.u.x1.coeffs[0, 0]) < 1e-16
        assert abs(out_h.u.x2.coeffs[0, 0]) < 1e-16

    def test_total_momentum_conserved(self, grid64):
        """The conserved linear quantity for variable density is the
        integral of rho*u (the plain mean of u moves with the flow)."""
        from oddflow.dynamics import Fields

        def momentum(s):
            fl = Fields(s)
            u1, u2 = fl.u_phys
            h2 = (2 * np.pi / s.grid.n) ** 2
            return (np.sum(fl.rho_phys * u1) * h2, np.sum(fl.rho_phys * u2) * h2)

        st = make_state(grid64, 12, "half_band")
        m0 = momentum(st)
        out = run(st, StepperConfig(dt=0.005, t_end=0.05))
        m1 = momentum(out)
        assert abs(m1[0] - m0[0]) < 1e-10 and abs(m1[1] - m0[1]) < 1e-10

    def test_divergence_free_output(self, grid64):
        st = make_state(grid64, 3, "half_band")
        out = step(st, StepperConfig(dt=0.005, t_end=1.0))
        from oddflow.spectral import max_divergence_ratio
        assert max_divergence_ratio(out.u) < 1e-12

    def test_cfl_warning(self, grid64):
        # one run step of a fixed dt above the CFL bound (1/32 here)
        st = shear(grid64)
        with pytest.warns(RuntimeWarning):
            run(st, StepperConfig(dt=0.5, t_end=0.5))

    def test_vacuum_abort(self, grid64):
        # initial minimum below the configured floor aborts with a diagnostic
        rho = forward_transform(grid64, 0.9 * np.cos(grid64.x1) * np.cos(grid64.x2))
        st0 = make_state(grid64, 4, "half_band")
        st = FlowState(0.0, rho, st0.u)
        cfg = StepperConfig(dt=0.01, t_end=1.0, vacuum_floor=0.2)
        with pytest.raises(RuntimeAbort) as exc_info:
            s = st
            for _ in range(40):
                s = step(s, cfg)
        assert exc_info.value.quantity == "min rho"


class TestRun:
    def test_t_end_zero_returns_initial(self, grid64):
        st = shear(grid64)
        out = run(st, StepperConfig(dt=0.01, t_end=0.0))
        assert out is st

    def test_steady_to_t1(self, grid64):
        st = shear(grid64)
        out = run(st, StepperConfig(dt=None, t_end=1.0))
        assert abs(out.t - 1.0) < 1e-12
        assert l2_norm_vector(out.u - st.u) <= 1e-8

    def test_observer_cadence(self, grid64):
        st = shear(grid64)
        seen = []
        run(st, StepperConfig(dt=0.02, t_end=0.1),
            observers=[lambda s, i: seen.append((i, s.t))])
        assert seen[0] == (0, 0.0)
        assert len(seen) == 6
        assert abs(seen[-1][1] - 0.1) < 1e-12

    def test_energy_drift_small(self, grid64):
        from oddflow.diagnostics import kinetic_energy
        st = make_state(grid64, 5, "half_band")
        k0 = kinetic_energy(st)
        out = run(st, StepperConfig(dt=None, t_end=0.25))
        assert abs(kinetic_energy(out) - k0) / k0 <= 1e-8


class TestTemporalOrder:
    def test_fourth_order_refinement(self, grid32):
        """||u(T; dt) - u(T; dt/2)|| falls ~16x per halving for eps = 0."""
        st = make_state(grid32, 6, "half_band")
        T = 0.2
        finals = {}
        for m in (1, 2, 4):
            dt = 0.04 / m
            cfg = StepperConfig(dt=dt, t_end=T)
            finals[m] = run(st, cfg)
        e1 = l2_norm_vector(finals[1].u - finals[2].u)
        e2 = l2_norm_vector(finals[2].u - finals[4].u)
        ratio = e1 / e2
        assert 16 * 0.75 <= ratio <= 16 * 1.25


class TestHomogeneousReduction:
    def test_matches_euler_integrator(self, grid64):
        """rho = 1: the odd solver and the plain Euler integrator coincide."""
        st = make_state(grid64, 7, "half_band")
        st = FlowState(0.0, zero_scalar(grid64), st.u)
        cfg_odd = StepperConfig(dt=0.01, t_end=0.2, include_odd=True)
        cfg_eul = StepperConfig(dt=0.01, t_end=0.2, include_odd=False)
        out_odd = run(st, cfg_odd)
        out_eul = run(st, cfg_eul)
        assert l2_norm_vector(out_odd.u - out_eul.u) <= 1e-8
