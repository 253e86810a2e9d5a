import numpy as np
import pytest

from oddflow.diagnostics import observe
from oddflow.errors import ValidationError
from oddflow.littlewood_paley import (
    besov_norm,
    bony_reconstruction,
    dyadic_block,
    dyadic_blocks,
    low_cutoff,
    paraproduct,
    partition_of_unity_error,
    remainder,
    sobolev_norm,
)
from oddflow.spectral import (
    Grid,
    SpectralScalar,
    chi_profile,
    dealiased_product,
    fold,
    gradient,
    l2_norm,
    zero_scalar,
)
from oddflow.stepping import StepperConfig, run
from oddflow.verify import make_state, random_band_scalar

from conftest import constant_scalar, coordinates, forward_transform, full_wavenumbers


class TestChiProfile:
    def test_plateau_and_support(self):
        vals = chi_profile(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]))
        assert np.all(vals[:4] == 1.0)
        assert vals[4] == 0.0 and vals[5] == 0.0

    def test_radially_non_increasing(self):
        r = np.linspace(0, 3, 400)
        v = chi_profile(r)
        assert np.all(np.diff(v) <= 1e-12)


class TestPartition:
    @pytest.mark.parametrize("n", [16, 64, 128, 192])
    def test_partition_of_unity(self, n):
        assert partition_of_unity_error(Grid(n)) <= 1e-12

    def test_jmax_formula(self, grid64):
        assert len(grid64.dyadic_blocks) - 2 == 5  # ceil(log2(64/2))

    def test_at_origin(self, grid16):
        blocks = grid16.dyadic_blocks
        assert blocks[0][0, 0] == 1.0
        for j in range(0, len(blocks) - 1):
            assert blocks[j + 1][0, 0] == 0.0

    def test_example_at_k3(self, grid16):
        """chi(3) = 0 and the two mid blocks absorb |k| = 3 completely."""
        blocks = grid16.dyadic_blocks
        assert chi_profile(np.array([3.0]))[0] == 0.0
        i = 3  # k = (3, 0)
        total = sum(blocks[j + 1][i, 0] for j in (1, 2))
        assert abs(total - 1.0) < 1e-14
        assert blocks[0][i, 0] == 0.0

    def test_lists_built_on_first_read(self):
        """Stepping and observing never read a grid's dyadic lists, which it
        builds once, on first read."""
        grid = Grid(32)
        run(make_state(grid, 1, "half_band"), StepperConfig(dt=2e-3, t_end=4e-3),
            observers=[lambda s, i: observe(s, 2.5)])
        assert "dyadic_blocks" not in vars(grid) and "dyadic_lows" not in vars(grid)
        assert grid.dyadic_lows is grid.dyadic_lows
        assert grid.dyadic_blocks is grid.dyadic_blocks


class TestBlocks:
    def test_block0_kills_mode3(self, grid16):
        x1 = coordinates(grid16)[0]
        f = forward_transform(grid16, np.cos(3 * x1))
        assert l2_norm(dyadic_block(f, 0)) < 1e-14

    def test_block_minus1_keeps_constant(self, grid16):
        c = constant_scalar(grid16, 2.0)
        out = dyadic_block(c, -1)
        assert np.max(np.abs(out.coeffs - c.coeffs)) < 1e-15

    def test_block_index_range(self, grid16):
        f = zero_scalar(grid16)
        j_max = len(grid16.dyadic_blocks) - 2
        with pytest.raises(ValidationError):
            dyadic_block(f, -2)
        with pytest.raises(ValidationError):
            dyadic_block(f, j_max + 1)

    def test_low_cutoff_full_sum_is_identity(self, grid32):
        f = random_band_scalar(grid32, 1, 20, grid32.dealias_cutoff)
        j_max = len(grid32.dyadic_blocks) - 2
        out = low_cutoff(f, j_max + 1)
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-14

    def test_low_cutoff_is_cumulative_block_sum(self, grid32):
        f = random_band_scalar(grid32, 2, 21, grid32.dealias_cutoff)
        blocks = dyadic_blocks(f)
        for j in range(0, len(blocks)):
            acc = zero_scalar(grid32)
            for m in range(-1, j):
                acc = acc + blocks[m + 1]
            out = low_cutoff(f, j)
            assert np.max(np.abs(out.coeffs - acc.coeffs)) < 1e-12

    def test_decomposition_sums_to_field(self, grid64):
        f = random_band_scalar(grid64, 3, 22, grid64.n // 2 - 1)
        rec = sum(dyadic_blocks(f), zero_scalar(grid64))
        assert l2_norm(rec - f) <= 1e-12 * l2_norm(f)

    def test_block_orthogonality(self, grid64):
        f = random_band_scalar(grid64, 4, 23, grid64.n // 2 - 1)
        blocks = dyadic_blocks(f)
        j_max = len(blocks) - 2
        for j in range(-1, j_max + 1):
            for m in range(j + 2, j_max + 1):
                again = dyadic_block(blocks[j + 1], m)
                assert l2_norm(again) < 1e-13 * max(l2_norm(f), 1.0)

    def test_paraproduct_block_localization(self, grid64):
        """D_k(S_{j-1} f * D_j g) vanishes for |k - j| >= 5 after dealiasing."""
        f = random_band_scalar(grid64, 5, 24, grid64.dealias_cutoff - 1)
        g = random_band_scalar(grid64, 5, 25, grid64.dealias_cutoff - 1)
        j_max = len(grid64.dyadic_blocks) - 2
        for j in range(1, j_max + 1):
            term = dealiased_product(low_cutoff(f, j - 1), dyadic_block(g, j))
            for k in range(-1, j_max + 1):
                if abs(k - j) >= 5:
                    leak = l2_norm(dyadic_block(term, k))
                    assert leak < 1e-13 * max(l2_norm(term), 1.0)


class TestBernstein:
    def test_exact_l2_bernstein_on_annulus(self, grid64):
        rng = np.random.default_rng(99)
        for j in (1, 2, 3):
            lo, hi = 2.0**j, 2.0 ** (j + 1)
            kmag = full_wavenumbers(grid64.n)[2]
            mask = (kmag >= lo) & (kmag <= hi)
            n = grid64.n
            c = np.where(mask, rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)), 0.0)
            c = 0.5 * (c + np.conj(c[(-np.arange(n)) % n][:, (-np.arange(n)) % n]))
            f = SpectralScalar(grid64, fold(c))
            nf = l2_norm(f)
            ng = l2_norm(gradient(f))
            assert lo * nf <= ng * (1 + 1e-13)
            assert ng <= hi * nf * (1 + 1e-13)


class TestSobolevNorm:
    def test_zero(self, grid16):
        assert sobolev_norm(zero_scalar(grid16), 2.5) == 0.0

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5, -1.0])
    def test_single_mode_value(self, grid16, s):
        x1 = coordinates(grid16)[0]
        f = forward_transform(grid16, np.cos(x1))
        expected = 2 ** (s / 2) * np.pi * np.sqrt(2)
        assert abs(sobolev_norm(f, s) - expected) < 1e-12 * expected

    def test_backend_ratio_frozen_bounds(self, grid32):
        # empirical range over flat random band-limited fields is ~[1.0, 2.5];
        # the frozen test bound is [1/4, 4]
        for seed in range(100):
            f = random_band_scalar(grid32, seed, 50, grid32.dealias_cutoff)
            ratio = sobolev_norm(f, 2.5) / besov_norm(f, 2.5, 2, 2)
            assert 0.25 <= ratio <= 4.0


class TestBesovNorm:
    def test_b22_equals_lp_sum(self, grid32):
        """B^s_{2,2}, from the blocks' physical L2 norms, is the weighted
        block sum of their spectral L2 norms (Plancherel)."""
        f = random_band_scalar(grid32, 7, 51, grid32.dealias_cutoff)
        blocks = [l2_norm(b) for b in dyadic_blocks(f)]
        for s in (0.5, 2.0):
            a = besov_norm(f, s, 2, 2)
            b = np.sqrt(sum(4.0**(j * s) * bn**2 for j, bn in enumerate(blocks, start=-1)))
            assert abs(a - b) < 1e-11 * max(b, 1)

    def test_zero(self, grid16):
        assert besov_norm(zero_scalar(grid16), 1.0, 2, 2) == 0.0

    def test_b0_inf_inf_is_max_block_sup(self, grid32):
        from oddflow.spectral import inverse_transform
        f = random_band_scalar(grid32, 8, 52, grid32.dealias_cutoff)
        direct = max(np.max(np.abs(inverse_transform(b))) for b in dyadic_blocks(f))
        val = besov_norm(f, 0.0, np.inf, np.inf)
        assert abs(val - direct) < 1e-12 * max(direct, 1)

    def test_bad_indices(self, grid16):
        with pytest.raises(ValidationError):
            besov_norm(zero_scalar(grid16), 1.0, 0.5, 2)


class TestBony:
    def test_identity_constant_factor(self, grid32):
        c = 2.5
        u = constant_scalar(grid32, c)
        v = random_band_scalar(grid32, 9, 53, grid32.dealias_cutoff - 1)
        total = bony_reconstruction(u, v)
        assert l2_norm(total - c * v) < 1e-12 * max(l2_norm(v), 1)

    def test_identity_cos_squared(self, grid16):
        x1 = coordinates(grid16)[0]
        f = forward_transform(grid16, np.cos(x1))
        total = bony_reconstruction(f, f)
        expected = forward_transform(grid16, (1 + np.cos(2 * x1)) / 2)
        assert np.max(np.abs(total.coeffs - expected.coeffs)) < 1e-13

    def test_identity_random(self, grid64):
        u = random_band_scalar(grid64, 10, 54, grid64.dealias_cutoff - 1)
        v = random_band_scalar(grid64, 10, 55, grid64.dealias_cutoff - 1)
        total = bony_reconstruction(u, v)
        direct = dealiased_product(u, v)
        assert l2_norm(total - direct) <= 1e-12 * max(l2_norm(direct), 1)

    def test_zero_input(self, grid16):
        v = random_band_scalar(grid16, 11, 56, grid16.dealias_cutoff)
        z = zero_scalar(grid16)
        assert l2_norm(paraproduct(z, v)) == 0.0
        assert l2_norm(paraproduct(v, z)) == 0.0
        assert l2_norm(remainder(z, v)) == 0.0
