import collections
import functools

import numpy as np
import pytest

from oddflow import dynamics, spectral
from oddflow.dynamics import (
    FlowState,
    bilinear_B,
    density_rhs,
    good_unknowns,
    momentum_rhs,
    odd_stress_divergence,
    omega_rhs,
    residual_omega,
    residual_theta,
    theta_rhs,
    trilinear_T,
)
from oddflow.diagnostics import continuation_monitor
from oddflow.errors import RuntimeAbort, UnsolvedPressureError
from oddflow.pressure import solve_pressure
from oddflow.spectral import (
    Grid,
    SpectralVector,
    curl,
    inner_product,
    inverse_transform,
    laplacian,
    leray_project,
    l2_norm,
    mismatch,
    perp,
    product_physical,
    zero_scalar,
)
from oddflow.littlewood_paley import sobolev_norm_vector
from oddflow.verify import identity_checks, make_state, pressure_split_via_phi

from conftest import coordinates, forward_transform, shear_state_fields


@pytest.fixture
def shear64(grid64):
    rho, u = shear_state_fields(grid64)
    return FlowState(0.0, rho, u)


def wave_state(grid, eps=0.0):
    """rho = 1 + 0.5 cos(x2), u = (0, sin x1)."""
    x2 = coordinates(grid)[1]
    rho = forward_transform(grid, 0.5 * np.cos(x2))
    _, u = shear_state_fields(grid)
    return FlowState(0.0, rho, u, epsilon=eps)


class TestFlowState:
    def test_validation(self, grid64):
        rho, u = shear_state_fields(grid64)
        with pytest.raises(ValueError):
            FlowState(0.0, rho, u, epsilon=-1.0)
        with pytest.raises(ValueError):
            FlowState(0.0, rho, u, odd_sign=0.5)
        assert FlowState(0.0, rho, u, odd_sign=0).odd_sign == 0.0  # the Euler reference

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -1e-3])
    def test_rejects_bad_epsilon(self, grid64, epsilon):
        rho, u = shear_state_fields(grid64)
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            FlowState(0.0, rho, u, epsilon=epsilon)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_t(self, grid64, t):
        rho, u = shear_state_fields(grid64)
        with pytest.raises(ValueError, match="t must be finite"):
            FlowState(t, rho, u)

    def test_density_bounds(self, grid64):
        st = wave_state(grid64)
        rho = st.fields.rho_phys
        lo, hi = np.min(rho), np.max(rho)
        assert abs(lo - 0.5) < 1e-12 and abs(hi - 1.5) < 1e-12

    def test_vacuum_abort(self, grid64):
        x1 = coordinates(grid64)[0]
        rho = forward_transform(grid64, -1.5 * np.cos(x1) ** 2)
        _, u = shear_state_fields(grid64)
        st = FlowState(0.0, rho, u)
        with pytest.raises(RuntimeAbort):
            solve_pressure(st)

    @pytest.mark.parametrize("read", [
        momentum_rhs, omega_rhs, residual_theta, residual_omega, pressure_split_via_phi,
        lambda st: continuation_monitor(st, 2.5)],
        ids=["momentum_rhs", "omega_rhs", "residual_theta", "residual_omega",
             "pressure_split_via_phi", "continuation_monitor"])
    def test_unsolved_pressure(self, grid64, read):
        """The functions that read a state's pressure raise on a state whose
        pressure was never solved, or whose solution was dropped."""
        st = wave_state(grid64)
        with pytest.raises(UnsolvedPressureError, match="never solved"):
            read(st)
        solve_pressure(st)
        read(st)
        st.drop_cache()
        with pytest.raises(UnsolvedPressureError, match="never solved"):
            read(st)


class TestOddStress:
    def test_homogeneous(self, shear64, grid64):
        x1 = coordinates(grid64)[0]
        out = odd_stress_divergence(shear64)
        assert np.max(np.abs(inverse_transform(out.x1) - np.sin(x1))) < 1e-12
        assert l2_norm(out.x2) < 1e-13

    def test_variable_density(self, grid64):
        x1, x2 = coordinates(grid64)
        st = wave_state(grid64)
        out = odd_stress_divergence(st)
        expected = (1 + 0.5 * np.cos(x2)) * np.sin(x1)
        assert np.max(np.abs(inverse_transform(out.x1) - expected)) < 1e-12
        assert l2_norm(out.x2) < 1e-13

    def test_zero_velocity(self, grid64):
        x1 = coordinates(grid64)[0]
        st = FlowState(0.0, forward_transform(grid64, 0.3 * np.cos(x1)),
                       SpectralVector(zero_scalar(grid64), zero_scalar(grid64)))
        assert l2_norm(odd_stress_divergence(st)) == 0.0

    def test_odd_sign_flips(self, grid64):
        st = wave_state(grid64)
        st_neg = FlowState(0.0, st.rho_dev, st.u, odd_sign=-1.0)
        a = odd_stress_divergence(st)
        b = odd_stress_divergence(st_neg)
        assert l2_norm(a + b) < 1e-13 * l2_norm(a)

    def test_skew_symmetry_random(self, grid64):
        for seed in range(5):
            st = make_state(grid64, seed, "full_band")
            stress = odd_stress_divergence(st)
            val = abs(inner_product(stress, st.u))
            assert val <= 1e-12 * sobolev_norm_vector(st.u, 1.0) ** 2

    def test_homogeneous_gradient_structure(self, grid64):
        st = make_state(grid64, 17, "half_band")
        st = FlowState(0.0, zero_scalar(grid64), st.u)
        stress = odd_stress_divergence(st)
        p_part, _ = leray_project(stress)
        assert l2_norm(p_part) <= 1e-12 * l2_norm(stress)


class TestBilinearForm:
    def test_zero_cases(self, grid64, shear64):
        x1 = coordinates(grid64)[0]
        alpha = forward_transform(grid64, np.cos(x1))
        out = bilinear_B(shear64, alpha)
        assert l2_norm(out) < 1e-13

    def test_product_mode(self, grid64, shear64):
        x1, x2 = coordinates(grid64)
        alpha = forward_transform(grid64, np.sin(x1) * np.sin(x2))
        out = bilinear_B(shear64, alpha)
        expected = np.cos(x1) ** 2 * np.cos(x2)
        assert np.max(np.abs(inverse_transform(out) - expected)) < 1e-12

    def test_zero_velocity(self, grid64):
        x2 = coordinates(grid64)[1]
        v = SpectralVector(zero_scalar(grid64), zero_scalar(grid64))
        alpha = forward_transform(grid64, np.sin(x2))
        assert l2_norm(bilinear_B(FlowState(0.0, zero_scalar(grid64), v), alpha)) == 0.0

    def test_non_divergence_free_rejected(self, grid64):
        """B agrees with curl((grad alpha . grad) u_perp) only when div u = 0."""
        x1, x2 = coordinates(grid64)
        v = SpectralVector(forward_transform(grid64, np.sin(x1)),
                           zero_scalar(grid64))
        rho_dev = forward_transform(grid64, 0.5 * np.sin(x1 + x2))
        rows = {r.name: r for r in identity_checks(FlowState(0.0, rho_dev, v))}
        assert rows["bilinear form B, alpha = rho - 1"].value > 1e-12


class TestTrilinearForm:
    def test_orthogonal_case(self, grid64, shear64):
        x1 = coordinates(grid64)[0]
        st = FlowState(0.0, forward_transform(grid64, np.sin(x1)), shear64.u)
        assert l2_norm(trilinear_T(st)) < 1e-12

    def test_product_case(self, grid64, shear64):
        x1, x2 = coordinates(grid64)
        st = FlowState(0.0, forward_transform(grid64, np.sin(x2)), shear64.u)
        out = trilinear_T(st)
        expected = -np.cos(x2) * np.sin(2 * x1)
        assert np.max(np.abs(inverse_transform(out) - expected)) < 1e-12

    def test_constant_density(self, grid64, shear64):
        assert l2_norm(trilinear_T(shear64)) == 0.0


class TestGoodUnknowns:
    def test_homogeneous(self, shear64):
        gu = good_unknowns(shear64)
        assert l2_norm(gu.eta - gu.omega) < 1e-13
        assert l2_norm(gu.theta - gu.omega) < 1e-13

    def test_wave_state(self, grid64):
        x1, x2 = coordinates(grid64)
        st = wave_state(grid64)
        gu = good_unknowns(st)
        eta_expected = (1 + 0.5 * np.cos(x2)) * np.cos(x1)
        theta_expected = eta_expected + 0.5 * np.cos(x2)
        assert np.max(np.abs(inverse_transform(gu.eta) - eta_expected)) < 1e-12
        assert np.max(np.abs(inverse_transform(gu.theta) - theta_expected)) < 1e-12

    def test_rest_state(self, grid64):
        x2 = coordinates(grid64)[1]
        rho = forward_transform(grid64, 0.5 * np.cos(x2))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64),
                                                zero_scalar(grid64)))
        gu = good_unknowns(st)
        assert l2_norm(gu.eta) < 1e-14
        assert np.max(np.abs(inverse_transform(gu.theta) - 0.5 * np.cos(x2))) < 1e-13

    def test_theta_identity_exact(self, grid64):
        from oddflow.spectral import dealias, laplacian
        st = make_state(grid64, 23, "full_band")
        gu = good_unknowns(st)
        recon = gu.eta - laplacian(dealias(st.rho_dev))
        assert np.max(np.abs(recon.coeffs - gu.theta.coeffs)) == 0.0


class TestBuiltOncePerState:
    def test_observe_and_stage_1_share_them(self, grid32, monkeypatch):
        """observe reads the good unknowns twice (energy functionals and
        theta_rhs) and the density RHS once (residual_theta); stage 1 of
        the next step reads the density RHS again.  Each is built once per
        state, and stages 2-4 build their own density RHS."""
        from oddflow.diagnostics import observe
        from oddflow.stepping import StepperConfig, step

        built = collections.Counter()
        for name in ("good_unknowns", "density_rhs"):
            def counted(fields, build=getattr(dynamics.Fields, name).func, name=name):
                built[name] += 1
                return build(fields)
            prop = functools.cached_property(counted)
            prop.__set_name__(dynamics.Fields, name)
            monkeypatch.setattr(dynamics.Fields, name, prop)
        st = make_state(grid32, 5, "half_band")
        observe(st, 2.5)
        assert built == {"good_unknowns": 1, "density_rhs": 1}
        assert good_unknowns(st) is good_unknowns(st) and density_rhs(st) is density_rhs(st)
        step(st, StepperConfig(dt=1e-3))
        assert built == {"good_unknowns": 1, "density_rhs": 4}


class TestMomentumRhs:
    def test_steady_shear(self, shear64):
        solve_pressure(shear64)
        rhs = momentum_rhs(shear64)
        assert l2_norm(rhs) < 1e-12

    def test_steady_shear_eps(self, grid64):
        rho, u = shear_state_fields(grid64)
        st = FlowState(0.0, rho, u, epsilon=0.05)
        solve_pressure(st)
        rhs = momentum_rhs(st)
        assert l2_norm(rhs + 0.05 * st.u) < 1e-9

    def test_rest_state(self, grid64):
        x1 = coordinates(grid64)[0]
        rho = forward_transform(grid64, 0.25 * np.cos(x1))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64),
                                                zero_scalar(grid64)))
        psol = solve_pressure(st)
        assert l2_norm(psol.grad_pi) < 1e-13
        assert l2_norm(momentum_rhs(st)) < 1e-13

    def test_divergence_consistency(self, grid64):
        st = make_state(grid64, 31, "full_band")
        solve_pressure(st)
        rhs = momentum_rhs(st)
        _, q = leray_project(rhs)
        assert l2_norm(q) <= 1e-10 * l2_norm(rhs)

    @pytest.mark.parametrize("eps, odd_sign", [(0.0, 1.0), (1e-3, -1.0), (0.0, 0.0)])
    def test_no_transform_on_a_solved_state(self, grid32, monkeypatch, eps, odd_sign):
        """The solve leaves in the state's cache every piece that
        momentum_rhs reads: the transport, the hyperviscous term and the
        pressure force, so the assembly makes no transform."""
        st = make_state(grid32, 2, "half_band")
        st = FlowState(st.t, st.rho_dev, st.u, epsilon=eps, odd_sign=odd_sign)
        solve_pressure(st)
        count = [0]

        def counting(transform):
            def counted(*args, **kwargs):
                count[0] += 1
                return transform(*args, **kwargs)
            return counted

        for name in ("rfft2", "irfft2", "ifft2"):
            monkeypatch.setattr(spectral._fft, name, counting(getattr(spectral._fft, name)))
        first = momentum_rhs(st)
        assert count[0] == 0
        again = momentum_rhs(st)
        assert np.array_equal(first.x1.coeffs, again.x1.coeffs)

    def test_curl_kills_perp_laplacian(self, grid64):
        st = make_state(grid64, 32, "half_band")
        lap_perp = laplacian(perp(st.u))
        assert l2_norm(curl(lap_perp)) < 1e-12 * l2_norm(lap_perp)


class TestTransport:
    @pytest.mark.parametrize("odd_sign", [1.0, 0.0, -1.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_equals_its_pieces(self, grid64, odd_sign, eps):
        """Fields.transport, summed on the grid and transformed once, is
        T[(u.grad)u] + sign T[(grad log rho . grad) u_perp] built apart;
        with sign 0 it is the advection bit for bit."""
        st = make_state(grid64, 5, "full_band")
        st = FlowState(st.t, st.rho_dev, st.u, epsilon=eps, odd_sign=odd_sign)
        fl = st.fields
        u1, u2 = fl.u_phys
        (d1u1, d1u2), (d2u1, d2u2) = fl.grad_u_phys
        L1, L2 = fl.grad_log_rho_phys
        advection = SpectralVector(product_physical(u1 * d1u1 + u2 * d2u1, grid64),
                                   product_physical(u1 * d1u2 + u2 * d2u2, grid64))
        odd = SpectralVector(product_physical(-(L1 * d1u2 + L2 * d2u2), grid64),
                             product_physical(L1 * d1u1 + L2 * d2u1, grid64))
        assert mismatch(fl.transport, advection + odd_sign * odd) <= 1e-14
        if odd_sign == 0.0:
            assert np.array_equal(fl.transport.x1.coeffs, advection.x1.coeffs)
            assert np.array_equal(fl.transport.x2.coeffs, advection.x2.coeffs)


class TestThetaOmegaRhs:
    def test_theta_steady(self, shear64):
        assert l2_norm(theta_rhs(shear64)) < 1e-13

    def test_theta_rest(self, grid64):
        x1 = coordinates(grid64)[0]
        rho = forward_transform(grid64, 0.25 * np.cos(x1))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64),
                                                zero_scalar(grid64)))
        assert l2_norm(theta_rhs(st)) < 1e-14

    def test_theta_eps_decay(self, grid64):
        x1 = coordinates(grid64)[0]
        rho, u = shear_state_fields(grid64)
        st = FlowState(0.0, rho, u, epsilon=0.2)
        out = theta_rhs(st)
        assert np.max(np.abs(inverse_transform(out) + 0.2 * np.cos(x1))) < 1e-9

    def test_omega_homogeneous_transport(self, grid64):
        st = make_state(grid64, 41, "half_band")
        st = FlowState(0.0, zero_scalar(grid64), st.u)
        solve_pressure(st)
        out = omega_rhs(st)
        # rho = 1: d(omega)/dt reduces to -u.grad(omega)
        from oddflow.spectral import SpectralScalar, dealias, product_physical
        fl = st.fields
        om = dealias(fl.omega)
        g = grid64
        o1 = inverse_transform(SpectralScalar(g, 1j * g.k1 * om.coeffs))
        o2 = inverse_transform(SpectralScalar(g, 1j * g.k2 * om.coeffs))
        u1, u2 = fl.u_phys
        expected = -1.0 * product_physical(u1 * o1 + u2 * o2, g)
        assert l2_norm(out - expected) < 1e-10 * max(l2_norm(expected), 1)

    def test_omega_steady(self, shear64):
        solve_pressure(shear64)
        assert l2_norm(omega_rhs(shear64)) < 1e-12

    def test_omega_full_band(self):
        """omega_rhs assembles one route, so a full-band state, whose
        cancellation gap is dealiasing-limited (1.1e-10 here), gets a finite
        field."""
        st = make_state(Grid(128), 1, "full_band")
        solve_pressure(st)
        assert np.all(np.isfinite(omega_rhs(st).coeffs))

    def test_omega_eps(self, grid64):
        x1 = coordinates(grid64)[0]
        rho, u = shear_state_fields(grid64)
        st = FlowState(0.0, rho, u, epsilon=0.2)
        solve_pressure(st)
        out = omega_rhs(st)
        assert np.max(np.abs(inverse_transform(out) + 0.2 * np.cos(x1))) < 1e-9


class TestIdentityChecks:
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_half_band_states(self, n):
        """Every identity under the dynamics operators holds to its bound
        on half-band states."""
        for seed in range(3):
            for r in identity_checks(make_state(Grid(n), seed, "half_band")):
                assert r.passed, r.line()


class TestResiduals:
    def test_homogeneous_exact(self, grid64):
        st = make_state(grid64, 51, "half_band")
        st = FlowState(0.0, zero_scalar(grid64), st.u)
        solve_pressure(st)
        assert residual_theta(st) <= 1e-10
        assert residual_omega(st) <= 1e-10

    @pytest.mark.parametrize("profile,bound", [("half_band", 1e-10),
                                               ("full_band", 1e-8)])
    def test_random_states(self, grid64, profile, bound):
        for seed in range(3):
            st = make_state(grid64, 60 + seed, profile)
            solve_pressure(st)
            assert residual_theta(st) <= bound
            assert residual_omega(st) <= bound

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_epsilon_states(self, grid64, eps):
        st = make_state(grid64, 70, "half_band")
        st = FlowState(st.t, st.rho_dev, st.u, epsilon=eps)
        solve_pressure(st)
        assert residual_theta(st) <= 1e-8
        assert residual_omega(st) <= 1e-8

    @pytest.mark.parametrize("odd_sign", [-1.0, 0.0])
    def test_negative_odd_sign(self, grid64, odd_sign):
        st = make_state(grid64, 71, "half_band")
        st = FlowState(st.t, st.rho_dev, st.u, odd_sign=odd_sign)
        solve_pressure(st)
        assert residual_theta(st) <= 1e-10
        assert residual_omega(st) <= 1e-10

    def test_rest_residual_zero(self, grid64):
        x2 = coordinates(grid64)[1]
        rho = forward_transform(grid64, 0.2 * np.cos(x2))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64),
                                                zero_scalar(grid64)))
        solve_pressure(st)
        assert residual_omega(st) == 0.0


class TestDensityRhs:
    def test_mean_pinned(self, grid64):
        st = make_state(grid64, 80, "full_band")
        rhs = density_rhs(st)
        assert rhs.coeffs[0, 0] == 0.0

    def test_advection_value(self, grid64, shear64):
        # rho = 1 + 0.3 sin(x2): u.grad rho = 0.3 sin(x1) cos(x2)
        x1, x2 = coordinates(grid64)
        rho = forward_transform(grid64, 0.3 * np.sin(x2))
        st = FlowState(0.0, rho, shear64.u)
        rhs = density_rhs(st)
        expected = -0.3 * np.sin(x1) * np.cos(x2)
        assert np.max(np.abs(inverse_transform(rhs) - expected)) < 1e-13
