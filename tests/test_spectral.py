import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from oddflow import app_io, fft
from oddflow.dynamics import FlowState
from oddflow.errors import GridMismatchError, HermitianSymmetryError, MeanModeError
from oddflow.spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    biot_savart,
    check_real,
    curl,
    dealias,
    dealiased_product,
    dealiased_samples,
    divergence,
    expand,
    fold,
    gradient,
    half_vdot,
    inner_product,
    inverse_laplacian,
    inverse_transform,
    laplacian,
    leray_project,
    l2_norm,
    mismatch,
    perp,
    product_physical,
    vdot,
    zero_scalar,
)

from conftest import (constant_scalar, convolution_oracle, coordinates, dft_oracle,
                      forward_transform, full_wavenumbers, max_divergence_ratio)


def random_band_field(grid, seed, band=None):
    rng = np.random.default_rng(seed)
    band = band if band is not None else grid.dealias_cutoff
    c = np.zeros((grid.n, grid.n), complex)
    n = grid.n
    k1, k2, _ = full_wavenumbers(n)
    mask = (np.abs(k1) <= band) & (np.abs(k2) <= band)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c[mask] = noise[mask]
    c = 0.5 * (c + np.conj(c[(-np.arange(n)) % n][:, (-np.arange(n)) % n]))
    c[0, 0] = c[0, 0].real
    return SpectralScalar(grid, fold(c))


class TestGrid:
    def test_basic_fields(self, grid16):
        assert grid16.n == 16
        assert grid16.dealias_cutoff == 5
        assert Grid(192).dealias_cutoff == 64

    def test_equal_by_size_and_unhashable(self):
        """Grids compare by n.  No cache is keyed by a grid (each keeps its
        arrays itself), so a grid has no hash, and a functools cache keyed
        by one fails at its first call."""
        assert Grid(16) == Grid(16) and Grid(16) != Grid(32)
        with pytest.raises(TypeError):
            hash(Grid(16))

    def test_rejects_bad_sizes(self):
        for bad in (4, 7, 15):
            with pytest.raises(ValueError):
                Grid(bad)

    def test_wavenumber_range(self):
        """k1 runs over 0..n/2-1, -n/2..-1 and k2 over 0..n/2 as int64 on
        every even grid, also where fftfreq(n, 1/n) is not integral (n = 98,
        196, 206, 214, ...)."""
        for n in range(8, 257, 2):
            grid = Grid(n)
            assert grid.k.dtype == np.int64
            assert grid.k1[:, 0].tolist() == [*range(n // 2), *range(-(n // 2), 0)], n
            assert grid.k2[0].tolist() == list(range(n // 2 + 1)), n

    def test_dealias_mask_excludes_nyquist(self):
        """floor(n/3) < n/2, so dealias_mask is False on the Nyquist row and
        column, and the CG's band is the mean-zero part of dealias_mask."""
        for n in range(8, 257, 2):
            grid = Grid(n)
            assert not grid.dealias_mask[n // 2].any(), n
            assert not grid.dealias_mask[:, n // 2].any(), n
            m = grid.dealias_cutoff + 1
            assert np.array_equal(grid.band, (grid.dealias_mask & (grid.k_sq > 0))[:, :m]), n


class TestTransforms:
    def test_zero_field(self, grid16):
        f = forward_transform(grid16, np.zeros((16, 16)))
        assert np.all(f.coeffs == 0)

    def test_constant_field(self, grid16):
        f = forward_transform(grid16, np.ones((16, 16)))
        assert abs(f.coeffs[0, 0] - 1.0) < 1e-15
        assert np.max(np.abs(f.coeffs.flatten()[1:])) < 1e-15

    def test_cosine_against_direct_dft(self, grid16):
        x1 = coordinates(grid16)[0]
        samples = np.cos(x1)
        f = forward_transform(grid16, samples)
        oracle = dft_oracle(samples)
        assert np.max(np.abs(f.coeffs - fold(oracle))) < 1e-13
        assert abs(f.coeffs[1, 0] - 0.5) < 1e-14
        assert abs(f.coeffs[-1, 0] - 0.5) < 1e-14

    def test_half_spectrum_is_fft2_half(self, grid32):
        """Stored coefficients are columns k2 = 0..n/2 of the full fft2
        spectrum, value for value, with an exactly Hermitian column 0."""
        samples = np.random.default_rng(5).standard_normal((32, 32))
        f = forward_transform(grid32, samples)
        full = scipy.fft.fft2(samples, norm="forward")
        full[16, :] = full[:, 16] = 0.0  # the Nyquist row and column
        assert f.coeffs.shape == (32, 17)
        assert np.array_equal(f.coeffs, full[:, :17])
        assert np.array_equal(expand(f.coeffs), full)
        col = f.coeffs[:, 0]
        assert np.array_equal(col[-np.arange(32) % 32], np.conj(col))

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
        x1 = coordinates(grid16)[0]
        f = zero_scalar(grid16)
        f.coeffs[1, 0] = 0.5
        f.coeffs[-1, 0] = 0.5
        assert np.max(np.abs(inverse_transform(f) - np.cos(x1))) < 1e-14

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
        x1 = coordinates(grid16)[0]
        f = forward_transform(grid16, np.sin(x1))
        G = gradient(f)
        assert np.max(np.abs(inverse_transform(G.x1) - np.cos(x1))) < 1e-13
        assert l2_norm(G.x2) < 1e-14

    def test_curl_example(self, grid16):
        x1 = coordinates(grid16)[0]
        F = SpectralVector(zero_scalar(grid16),
                           forward_transform(grid16, np.sin(x1)))
        w = curl(F)
        assert np.max(np.abs(inverse_transform(w) - np.cos(x1))) < 1e-13

    def test_laplacian_example(self, grid16):
        x2 = coordinates(grid16)[1]
        f = forward_transform(grid16, np.cos(x2))
        assert np.max(np.abs(inverse_transform(laplacian(f)) + np.cos(x2))) < 1e-13

    def test_perp_gradient_and_identities(self, grid32):
        a = random_band_field(grid32, 5)
        assert l2_norm(curl(gradient(a))) < 1e-12 * max(l2_norm(a), 1)
        assert l2_norm(divergence(perp(gradient(a)))) < 1e-12 * max(l2_norm(a), 1)

    def test_held_multipliers_are_the_inline_ones(self, grid32):
        """The Grid's ik gives the bytes of 1j*k1, 1j*k2 written out per
        call, signed zeros included."""
        g = grid32
        a = random_band_field(g, 10)
        b = random_band_field(g, 11)
        a.coeffs[::3] = complex(-0.0, -0.0)
        b.coeffs[0, 0] = 0.0  # biot_savart takes a mean-zero field
        cases = [
            (gradient(a).x1, 1j * g.k1 * a.coeffs), (gradient(a).x2, 1j * g.k2 * a.coeffs),
            (divergence(SpectralVector(a, b)), 1j * g.k1 * a.coeffs + 1j * g.k2 * b.coeffs),
            (curl(SpectralVector(a, b)), 1j * g.k1 * b.coeffs - 1j * g.k2 * a.coeffs),
        ]
        psi = b.coeffs * g.inv_k_sq
        u = biot_savart(b)
        cases += [(u.x1, 1j * g.k2 * psi), (u.x2, -1j * g.k1 * psi)]
        for field, inline in cases:
            assert field.coeffs.tobytes() == inline.tobytes()

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
        x1 = coordinates(grid16)[0]
        f = forward_transform(grid16, np.cos(x1))
        g = inverse_laplacian(f)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-14

    def test_mode_two_oracle(self, grid16):
        x1 = coordinates(grid16)[0]
        f = forward_transform(grid16, np.cos(2 * x1))
        g = inverse_laplacian(f)
        # mode-wise division oracle: coefficient / |k|^2 at k = (+-2, 0)
        expected = f.coeffs / 4.0
        assert np.max(np.abs(g.coeffs - expected)) < 1e-15

    def test_nonzero_mean_rejected(self, grid16):
        with pytest.raises(MeanModeError):
            inverse_laplacian(constant_scalar(grid16, 1.0))


class TestBiotSavart:
    def test_cos_x1(self, grid16):
        x1 = coordinates(grid16)[0]
        w = forward_transform(grid16, np.cos(x1))
        u = biot_savart(w)
        assert l2_norm(u.x1) < 1e-14
        assert np.max(np.abs(inverse_transform(u.x2) - np.sin(x1))) < 1e-13

    def test_cos_x2(self, grid16):
        x2 = coordinates(grid16)[1]
        w = forward_transform(grid16, np.cos(x2))
        u = biot_savart(w)
        assert np.max(np.abs(inverse_transform(u.x1) + np.sin(x2))) < 1e-13
        assert l2_norm(u.x2) < 1e-14

    def test_zero(self, grid16):
        u = biot_savart(zero_scalar(grid16))
        assert l2_norm(u) == 0.0

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
        x1 = coordinates(grid16)[0]
        F = SpectralVector(forward_transform(grid16, np.sin(x1)), zero_scalar(grid16))
        p, q = leray_project(F)
        assert l2_norm(p) < 1e-13
        assert l2_norm(q - F) < 1e-13

    def test_already_divergence_free(self, grid16):
        x1 = coordinates(grid16)[0]
        F = SpectralVector(zero_scalar(grid16),
                           forward_transform(grid16, np.sin(x1)))
        p, q = leray_project(F)
        assert l2_norm(q) < 1e-13
        assert l2_norm(p - F) < 1e-13

    def test_zero(self, grid16):
        p, q = leray_project(SpectralVector(zero_scalar(grid16), zero_scalar(grid16)))
        assert l2_norm(p) == 0.0 and l2_norm(q) == 0.0

    def test_split_identity_and_orthogonality(self, grid32):
        F = SpectralVector(random_band_field(grid32, 20), random_band_field(grid32, 21))
        p, q = leray_project(F)
        nF = l2_norm(F)
        assert l2_norm((p + q) - F) < 1e-13 * nF
        assert l2_norm(divergence(p)) < 1e-12 * nF
        assert l2_norm(curl(q)) < 1e-12 * nF
        assert abs(inner_product(p, q)) < 1e-12 * nF**2

    def test_mean_modes_pass_to_p(self, grid16):
        F = SpectralVector(constant_scalar(grid16, 3.0), constant_scalar(grid16, -1.0))
        p, q = leray_project(F)
        assert abs(p.x1.coeffs[0, 0] - 3.0) < 1e-15
        assert abs(p.x2.coeffs[0, 0] + 1.0) < 1e-15
        assert l2_norm(q) == 0.0


class TestDealiasedProduct:
    def test_cos_squared(self, grid16):
        x1 = coordinates(grid16)[0]
        f = forward_transform(grid16, np.cos(x1))
        prod = dealiased_product(f, f)
        expected = forward_transform(grid16, (1 + np.cos(2 * x1)) / 2)
        assert np.max(np.abs(prod.coeffs - expected.coeffs)) < 1e-14

    def test_convolution_oracle(self, grid16):
        f = random_band_field(grid16, 31, band=3)
        g = random_band_field(grid16, 32, band=3)
        prod = dealiased_product(f, g)
        oracle = convolution_oracle(expand(f.coeffs), expand(g.coeffs),
                                    grid16.dealias_cutoff)
        scale = max(np.max(np.abs(oracle)), 1.0)
        assert np.max(np.abs(expand(prod.coeffs) - oracle)) < 1e-13 * scale

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

    @pytest.mark.parametrize("n", [8, 10, 64, 96, 128])
    def test_truncation_is_the_mask_bit_for_bit(self, n):
        """dealias and product_physical zero the modes outside the band by
        slicing; the result is np.where(dealias_mask, c, 0.0) byte for byte,
        signed zeros included."""
        grid = Grid(n)
        rng = np.random.default_rng(n)
        c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        c[::3] = complex(-0.0, -0.0)
        f = SpectralScalar(grid, c)
        assert dealias(f).coeffs.tobytes() == np.where(grid.dealias_mask, c, 0.0).tobytes()
        samples = rng.standard_normal((n, n))
        masked = np.where(grid.dealias_mask, forward_transform(grid, samples).coeffs, 0.0)
        assert product_physical(samples, grid).coeffs.tobytes() == masked.tobytes()

    def test_output_truncated(self, grid16):
        f = random_band_field(grid16, 35)
        prod = dealiased_product(f, f)
        cut = grid16.dealias_cutoff
        outside = (np.abs(grid16.k1) > cut) | (np.abs(grid16.k2) > cut)
        assert np.all(prod.coeffs[outside] == 0)


class TestInnerProducts:
    def test_inner_product_matches_grid_quadrature(self, grid32):
        f = random_band_field(grid32, 40)
        g = random_band_field(grid32, 41)
        a = inverse_transform(f)
        b = inverse_transform(g)
        h2 = (2 * np.pi / 32) ** 2
        quad = np.sum(a * b) * h2
        assert abs(inner_product(f, g) - quad) < 1e-11 * max(abs(quad), 1)


def half_vdot_reference(x, y):
    """The full-spectrum sum Re sum x * conj(y) of two half-spectra, written
    out: the columns 0 < k2 < n/2 count twice."""
    return float(2.0 * np.vdot(y, x).real - np.vdot(y[:, 0], x[:, 0]).real
                 - np.vdot(y[:, -1], x[:, -1]).real)


def with_signed_zeros(rng, c):
    """c with about a quarter of its real and imaginary parts set to zeros
    of random sign."""
    parts = c.view(np.float64)
    zeros = rng.random(parts.shape) < 0.25
    parts[zeros] = np.copysign(0.0, rng.standard_normal(parts.shape))[zeros]
    return c


class TestVdot:
    """OpenBLAS splits a complex dot product of more than 10,000 elements
    across its threads, and the split changes the bits: vdot makes np.vdot's
    call up to that size and sums 10,000-element chunks past it."""

    @staticmethod
    def pair(shape, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]

    def test_one_call_up_to_the_chunk(self):
        """Arrays are passed as they are: a strided one keeps its bits."""
        x, y = self.pair((100, 200))
        for a, b in [(x[:50], y[:50]), (x[:, 0], y[:, 0]), (x[:, :97], y[:, :97]), (x[7], y[7])]:
            assert vdot(a, b).tobytes() == np.vdot(a, b).tobytes()

    def test_chunks_summed_in_order(self):
        x, y = self.pair((2, 192, 65))  # the stacked band columns at n = 192
        a, b = x.reshape(-1), y.reshape(-1)
        chunks = (np.vdot(a[:10_000], b[:10_000]) + np.vdot(a[10_000:20_000], b[10_000:20_000])
                  + np.vdot(a[20_000:], b[20_000:]))
        assert vdot(x, y).tobytes() == chunks.tobytes()
        assert vdot(a[:10_001], b[:10_001]).tobytes() == (
            np.vdot(a[:10_000], b[:10_000]) + np.vdot(a[10_000:10_001], b[10_000:10_001])).tobytes()

    @pytest.mark.parametrize("m", [65, 97])
    def test_half_vdot_sums_components_in_order(self, m):
        """A stacked pair's value is its components' values summed in order,
        on band columns and on full-width half-spectra."""
        x, y = self.pair((2, 192, m))
        assert half_vdot(x, y) == half_vdot(x[0], y[0]) + half_vdot(x[1], y[1])


LAYOUT = settings(max_examples=40, deadline=None, database=None)


class TestStackedLayout:
    """A vector field is one stacked (2, n, n/2+1) array: each vector
    operation gives the bytes of a per-component formula written out here,
    and each reduction the value of the per-component sum."""

    @staticmethod
    def draw(n, seed):
        grid = Grid(n)
        rng = np.random.default_rng(seed)

        def spectrum(shape):
            return with_signed_zeros(rng, rng.standard_normal(shape)
                                     + 1j * rng.standard_normal(shape))

        stacked = (2,) + grid.shape
        return grid, spectrum(stacked), spectrum(stacked), spectrum(grid.shape), rng

    @LAYOUT
    @given(n=st.sampled_from([8, 10, 16, 32, 48]), seed=st.integers(0, 2**32 - 1),
           c=st.floats(-4.0, 4.0))
    def test_vector_operations_are_per_component_bytes(self, n, seed, c):
        g, A, B, f, rng = self.draw(n, seed)
        a, b = SpectralVector.wrap(g, A), SpectralVector.wrap(g, B)
        k1, k2, mask = g.k1, g.k2, g.dealias_mask
        s = (k1 * A[0] + k2 * A[1]) * g.inv_k_sq
        w = f.copy()
        w[0, 0] = 0.0  # biot_savart takes a mean-zero field
        psi = w * g.inv_k_sq
        p_part, q_part = leray_project(a)
        cases = [
            (a + b, [A[0] + B[0], A[1] + B[1]]),
            (a - b, [A[0] - B[0], A[1] - B[1]]),
            (a * c, [A[0] * c, A[1] * c]),
            (c * a, [A[0] * c, A[1] * c]),
            (-a, [-A[0], -A[1]]),
            (dealias(a), [np.where(mask, A[0], 0.0), np.where(mask, A[1], 0.0)]),
            (laplacian(a), [-g.k_sq * A[0], -g.k_sq * A[1]]),
            (perp(a), [-A[1], A[0]]),
            (gradient(SpectralScalar(g, f)), [1j * k1 * f, 1j * k2 * f]),
            (divergence(a), 1j * k1 * A[0] + 1j * k2 * A[1]),
            (curl(a), 1j * k1 * A[1] - 1j * k2 * A[0]),
            (p_part, [A[0] - k1 * s, A[1] - k2 * s]),
            (q_part, [k1 * s, k2 * s]),
            (biot_savart(SpectralScalar(g, w)), [1j * k2 * psi, -1j * k1 * psi]),
        ]
        for field, reference in cases:
            assert field.coeffs.tobytes() == np.asarray(reference).tobytes()

    @LAYOUT
    @given(n=st.sampled_from([8, 10, 16, 32, 48]), seed=st.integers(0, 2**32 - 1))
    def test_stacked_samples_are_per_component_bytes(self, n, seed):
        """product_physical of a stacked sample pair, and dealiased_samples
        with a stacked multiplier, transform each component as a scalar."""
        g, A, _, f, rng = self.draw(n, seed)
        samples = rng.standard_normal((2, n, n))
        samples[:, ::3] = np.copysign(0.0, samples[:, ::3])
        product = product_physical(samples, g)
        assert isinstance(product, SpectralVector)
        for i in range(2):
            c = fft.rfft2(samples[i])
            c[n // 2 + 1:, 0] = np.conj(c[n // 2 - 1:0:-1, 0]) + 0.0
            assert product.coeffs[i].tobytes() == np.where(g.dealias_mask, c, 0.0).tobytes()

        m = g.dealias_cutoff + 1
        band = g.dealias_mask[:, :m]
        gradient_samples = dealiased_samples(SpectralScalar(g, f), g.ik)
        vector_samples = dealiased_samples(SpectralVector.wrap(g, A), g.k_sq)
        for i, k in enumerate((g.k1, g.k2)):
            reference = fft.irfft2(1j * k[:, :m] * np.where(band, f[:, :m], 0.0))
            assert gradient_samples[i].tobytes() == reference.tobytes()
            reference = fft.irfft2(g.k_sq[:, :m] * np.where(band, A[i, :, :m], 0.0))
            assert vector_samples[i].tobytes() == reference.tobytes()

    @LAYOUT
    @given(n=st.sampled_from([8, 10, 16, 32, 48]), seed=st.integers(0, 2**32 - 1))
    def test_reductions_are_per_component_sums(self, n, seed):
        g, A, B, f, _ = self.draw(n, seed)
        a, b = SpectralVector.wrap(g, A), SpectralVector.wrap(g, B)

        def norm(C):
            return 2.0 * np.pi * float(np.sqrt(half_vdot_reference(C[0], C[0])
                                               + half_vdot_reference(C[1], C[1])))

        assert l2_norm(a) == norm(A)
        assert l2_norm(SpectralScalar(g, f)) == (
            2.0 * np.pi * float(np.sqrt(half_vdot_reference(f, f))))
        assert inner_product(a, b) == ((2.0 * np.pi) ** 2 * half_vdot_reference(A[0], B[0])
                                       + (2.0 * np.pi) ** 2 * half_vdot_reference(A[1], B[1]))
        assert mismatch(a, b) == norm(A - B) / max(norm(A), norm(B), 1.0)

    def test_components_are_views_of_the_stack(self, grid16):
        x1, x2 = random_band_field(grid16, 50), random_band_field(grid16, 51)
        F = SpectralVector(x1, x2)
        assert F.coeffs.shape == (2, 16, 9)
        assert F.x1.coeffs.tobytes() == x1.coeffs.tobytes()
        assert F.x2.coeffs.tobytes() == x2.coeffs.tobytes()
        assert np.shares_memory(F.x1.coeffs, F.coeffs) and np.shares_memory(F.x2.coeffs, F.coeffs)
        with pytest.raises(GridMismatchError):
            SpectralVector.wrap(grid16, x1.coeffs)
        with pytest.raises(GridMismatchError):
            SpectralScalar(grid16, F.coeffs)
