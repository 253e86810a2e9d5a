import numpy as np
import pytest

from oddflow import app_io
from oddflow.dynamics import FlowState
from oddflow.errors import GridMismatchError, HermitianSymmetryError, MeanModeError
from oddflow.spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    biot_savart,
    check_real,
    constant_scalar,
    curl,
    dealias,
    dealiased_product,
    divergence,
    forward_transform,
    gradient,
    inner_product,
    inner_product_vector,
    inverse_laplacian,
    inverse_transform,
    laplacian,
    leray_project,
    l2_norm,
    l2_norm_vector,
    max_divergence_ratio,
    perp,
    perp_gradient,
    zero_scalar,
)

from conftest import convolution_oracle, dft_oracle


def random_band_field(grid, seed, band=None):
    rng = np.random.default_rng(seed)
    band = band if band is not None else grid.dealias_cutoff
    c = np.zeros((grid.n, grid.n), complex)
    n = grid.n
    mask = (np.abs(grid.k1) <= band) & (np.abs(grid.k2) <= band)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c[mask] = noise[mask]
    c = 0.5 * (c + np.conj(c[(-np.arange(n)) % n][:, (-np.arange(n)) % n]))
    c[0, 0] = c[0, 0].real
    return SpectralScalar(grid, c)


class TestGrid:
    def test_basic_fields(self, grid16):
        assert grid16.n == 16
        assert grid16.dealias_cutoff == 5
        assert Grid(192).dealias_cutoff == 64

    def test_rejects_bad_sizes(self):
        for bad in (4, 7, 15):
            with pytest.raises(ValueError):
                Grid(bad)

    def test_wavenumber_range(self, grid16):
        assert grid16.k1.min() == -8 and grid16.k1.max() == 7
        assert not grid16.keep_mask[8, :].any()
        assert not grid16.keep_mask[:, 8].any()


class TestTransforms:
    def test_zero_field(self, grid16):
        f = forward_transform(grid16, np.zeros((16, 16)))
        assert np.all(f.coeffs == 0)

    def test_constant_field(self, grid16):
        f = forward_transform(grid16, np.ones((16, 16)))
        assert abs(f.coeffs[0, 0] - 1.0) < 1e-15
        assert np.max(np.abs(f.coeffs.flatten()[1:])) < 1e-15

    def test_cosine_against_direct_dft(self, grid16):
        samples = np.cos(grid16.x1)
        f = forward_transform(grid16, samples)
        oracle = dft_oracle(samples)
        assert np.max(np.abs(f.coeffs - oracle)) < 1e-13
        assert abs(f.coeffs[1, 0] - 0.5) < 1e-14
        assert abs(f.coeffs[-1, 0] - 0.5) < 1e-14

    def test_round_trip(self, grid32):
        f = random_band_field(grid32, 3)
        phys = inverse_transform(f)
        back = forward_transform(grid32, phys)
        scale = np.max(np.abs(f.coeffs))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-13 * scale

    def test_inverse_constant(self, grid16):
        f = constant_scalar(grid16, 1.0)
        assert np.max(np.abs(inverse_transform(f) - 1.0)) < 1e-14

    def test_inverse_cosine_oracle(self, grid16):
        f = zero_scalar(grid16)
        f.coeffs[1, 0] = 0.5
        f.coeffs[-1, 0] = 0.5
        assert np.max(np.abs(inverse_transform(f) - np.cos(grid16.x1))) < 1e-14

    def test_size_mismatch(self, grid16):
        with pytest.raises(GridMismatchError):
            forward_transform(grid16, np.zeros((8, 8)))

    def test_broken_hermitian_symmetry(self, grid16, tmp_path):
        f = zero_scalar(grid16)
        f.coeffs[1, 0] = 1.0  # no conjugate partner
        with pytest.raises(HermitianSymmetryError):
            check_real(f)
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(
            FlowState(0.0, f, SpectralVector(zero_scalar(grid16), zero_scalar(grid16))), path)
        with pytest.raises(HermitianSymmetryError):
            app_io.read_checkpoint(path)

    def test_plancherel(self, grid32):
        f = random_band_field(grid32, 11)
        phys = inverse_transform(f)
        h2 = (2 * np.pi / 32) ** 2
        phys_norm = np.sqrt(np.sum(phys**2) * h2)
        assert abs(phys_norm - l2_norm(f)) < 1e-12 * phys_norm


class TestCalculus:
    def test_gradient_example(self, grid16):
        f = forward_transform(grid16, np.sin(grid16.x1))
        G = gradient(f)
        assert np.max(np.abs(inverse_transform(G.x1) - np.cos(grid16.x1))) < 1e-13
        assert l2_norm(G.x2) < 1e-14

    def test_curl_example(self, grid16):
        F = SpectralVector(zero_scalar(grid16),
                           forward_transform(grid16, np.sin(grid16.x1)))
        w = curl(F)
        assert np.max(np.abs(inverse_transform(w) - np.cos(grid16.x1))) < 1e-13

    def test_laplacian_example(self, grid16):
        f = forward_transform(grid16, np.cos(grid16.x2))
        assert np.max(np.abs(inverse_transform(laplacian(f)) + np.cos(grid16.x2))) < 1e-13

    def test_perp_gradient_and_identities(self, grid32):
        a = random_band_field(grid32, 5)
        assert l2_norm(curl(gradient(a))) < 1e-12 * max(l2_norm(a), 1)
        assert l2_norm(divergence(perp_gradient(a))) < 1e-12 * max(l2_norm(a), 1)

    def test_div_of_perp_equals_curl(self, grid32):
        F = SpectralVector(random_band_field(grid32, 6), random_band_field(grid32, 7))
        lhs = divergence(F)
        rhs = curl(perp(F))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-14 * max(np.max(np.abs(lhs.coeffs)), 1)

    def test_perp_orthogonality_pointwise(self, grid32):
        F = SpectralVector(random_band_field(grid32, 8), random_band_field(grid32, 9))
        a1 = inverse_transform(F.x1)
        a2 = inverse_transform(F.x2)
        p = perp(F)
        b1 = inverse_transform(p.x1)
        b2 = inverse_transform(p.x2)
        assert np.max(np.abs(a1 * b1 + a2 * b2)) == 0.0


class TestInverseLaplacian:
    def test_unit_eigenmode(self, grid16):
        f = forward_transform(grid16, np.cos(grid16.x1))
        g = inverse_laplacian(f)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-14

    def test_mode_two_oracle(self, grid16):
        f = forward_transform(grid16, np.cos(2 * grid16.x1))
        g = inverse_laplacian(f)
        # mode-wise division oracle: coefficient / |k|^2 at k = (+-2, 0)
        expected = f.coeffs / 4.0
        assert np.max(np.abs(g.coeffs - expected)) < 1e-15

    def test_nonzero_mean_rejected(self, grid16):
        with pytest.raises(MeanModeError):
            inverse_laplacian(constant_scalar(grid16, 1.0))


class TestBiotSavart:
    def test_cos_x1(self, grid16):
        w = forward_transform(grid16, np.cos(grid16.x1))
        u = biot_savart(w)
        assert l2_norm(u.x1) < 1e-14
        assert np.max(np.abs(inverse_transform(u.x2) - np.sin(grid16.x1))) < 1e-13

    def test_cos_x2(self, grid16):
        w = forward_transform(grid16, np.cos(grid16.x2))
        u = biot_savart(w)
        assert np.max(np.abs(inverse_transform(u.x1) + np.sin(grid16.x2))) < 1e-13
        assert l2_norm(u.x2) < 1e-14

    def test_zero(self, grid16):
        u = biot_savart(zero_scalar(grid16))
        assert l2_norm_vector(u) == 0.0

    def test_divergence_free_and_curl_recovery(self, grid32):
        w = random_band_field(grid32, 12)
        w.coeffs[0, 0] = 0.0
        u = biot_savart(w)
        assert max_divergence_ratio(u) <= 1e-12
        err = l2_norm(curl(u) - w)
        assert err < 1e-12 * l2_norm(w)

    def test_nonzero_mean_rejected(self, grid16):
        with pytest.raises(MeanModeError):
            biot_savart(constant_scalar(grid16, 2.0))


class TestLeray:
    def test_pure_gradient(self, grid16):
        F = SpectralVector(forward_transform(grid16, np.sin(grid16.x1)), zero_scalar(grid16))
        p, q = leray_project(F)
        assert l2_norm_vector(p) < 1e-13
        assert l2_norm_vector(q - F) < 1e-13

    def test_already_divergence_free(self, grid16):
        F = SpectralVector(zero_scalar(grid16),
                           forward_transform(grid16, np.sin(grid16.x1)))
        p, q = leray_project(F)
        assert l2_norm_vector(q) < 1e-13
        assert l2_norm_vector(p - F) < 1e-13

    def test_zero(self, grid16):
        p, q = leray_project(SpectralVector(zero_scalar(grid16), zero_scalar(grid16)))
        assert l2_norm_vector(p) == 0.0 and l2_norm_vector(q) == 0.0

    def test_split_identity_and_orthogonality(self, grid32):
        F = SpectralVector(random_band_field(grid32, 20), random_band_field(grid32, 21))
        p, q = leray_project(F)
        nF = l2_norm_vector(F)
        assert l2_norm_vector((p + q) - F) < 1e-13 * nF
        assert l2_norm(divergence(p)) < 1e-12 * nF
        assert l2_norm(curl(q)) < 1e-12 * nF
        assert abs(inner_product_vector(p, q)) < 1e-12 * nF**2

    def test_mean_modes_pass_to_p(self, grid16):
        F = SpectralVector(constant_scalar(grid16, 3.0), constant_scalar(grid16, -1.0))
        p, q = leray_project(F)
        assert abs(p.x1.coeffs[0, 0] - 3.0) < 1e-15
        assert abs(p.x2.coeffs[0, 0] + 1.0) < 1e-15
        assert l2_norm_vector(q) == 0.0


class TestDealiasedProduct:
    def test_cos_squared(self, grid16):
        f = forward_transform(grid16, np.cos(grid16.x1))
        prod = dealiased_product(f, f)
        expected = forward_transform(grid16, (1 + np.cos(2 * grid16.x1)) / 2)
        assert np.max(np.abs(prod.coeffs - expected.coeffs)) < 1e-14

    def test_convolution_oracle(self, grid16):
        f = random_band_field(grid16, 31, band=3)
        g = random_band_field(grid16, 32, band=3)
        prod = dealiased_product(f, g)
        oracle = convolution_oracle(f.coeffs, g.coeffs, grid16.dealias_cutoff)
        scale = max(np.max(np.abs(oracle)), 1.0)
        assert np.max(np.abs(prod.coeffs - oracle)) < 1e-13 * scale

    def test_identity_on_band(self, grid16):
        f = constant_scalar(grid16, 1.0)
        g = random_band_field(grid16, 33, band=grid16.dealias_cutoff)
        prod = dealiased_product(f, g)
        assert np.max(np.abs(prod.coeffs - dealias(g).coeffs)) < 1e-13

    def test_zero(self, grid16):
        g = random_band_field(grid16, 34)
        prod = dealiased_product(zero_scalar(grid16), g)
        assert l2_norm(prod) == 0.0

    def test_grid_mismatch(self, grid16, grid32):
        with pytest.raises(GridMismatchError):
            dealiased_product(zero_scalar(grid16), zero_scalar(grid32))

    def test_output_truncated(self, grid16):
        f = random_band_field(grid16, 35)
        prod = dealiased_product(f, f)
        cut = grid16.dealias_cutoff
        outside = (np.abs(grid16.k1) > cut) | (np.abs(grid16.k2) > cut)
        assert np.all(prod.coeffs[outside] == 0)


class TestWorkerDeterminism:
    def test_results_independent_of_fft_workers(self, grid64, monkeypatch):
        f = random_band_field(grid64, 60)
        g = random_band_field(grid64, 61)
        monkeypatch.setenv("ODDFLOW_THREADS", "1")
        p1 = dealiased_product(f, g)
        n1 = l2_norm(p1)
        monkeypatch.setenv("ODDFLOW_THREADS", "4")
        p2 = dealiased_product(f, g)
        assert np.array_equal(p1.coeffs, p2.coeffs)
        assert l2_norm(p2) == n1


class TestInnerProducts:
    def test_inner_product_matches_grid_quadrature(self, grid32):
        f = random_band_field(grid32, 40)
        g = random_band_field(grid32, 41)
        a = inverse_transform(f)
        b = inverse_transform(g)
        h2 = (2 * np.pi / 32) ** 2
        quad = np.sum(a * b) * h2
        assert abs(inner_product(f, g) - quad) < 1e-11 * max(abs(quad), 1)
