"""oddflow.fft against scipy.fft: the same bits for every shape, stacking,
memory layout, worker count and out= that the package uses, on the
pocketfft kernels and on the substitute kernels alike, and for irfft2's
band path the bits of the zero-padded input's full transform."""

import numpy as np
import pytest
import scipy.fft
from scipy.fft._pocketfft import pypocketfft

from oddflow import fft, spectral
from oddflow.spectral import Grid

from conftest import coordinates, forward_transform

KERNELS = ("_r2c", "_c2r", "_c2c")


def test_the_pocketfft_kernels_are_active():
    """A silent fallback to scipy.fft's public calls would pass every bit
    test below while losing the speed, so pin the kernels themselves."""
    assert [getattr(fft, k) for k in KERNELS] == [
        pypocketfft.r2c, pypocketfft.c2r, pypocketfft.c2c]


def test_fft_workers_reads_oddflow_threads(monkeypatch):
    for value, workers in (("3", 3), ("0", 1), ("-2", 1), ("many", 1)):
        monkeypatch.setenv("ODDFLOW_THREADS", value)
        assert fft.fft_workers() == workers
    monkeypatch.delenv("ODDFLOW_THREADS")
    assert fft.fft_workers() == 1


def test_transforms_pass_the_workers_read_at_import(monkeypatch):
    """ODDFLOW_THREADS is parsed once, when the module is imported: the
    transforms hand the kernels WORKERS and never parse it again, on the
    band path too, whose c2c and c2r are the kernels'."""
    seen = []

    def kernel(*args):
        seen.append(args[-1])

    def parse():
        raise AssertionError("ODDFLOW_THREADS parsed by a transform")

    for name in ("_r2c", "_c2r", "_c2c"):
        monkeypatch.setattr(fft, name, kernel)
    monkeypatch.setattr(fft, "fft_workers", parse)
    monkeypatch.setattr(fft, "WORKERS", 3)
    x = np.zeros((8, 8))
    fft.rfft2(x)
    fft.irfft2(x[:, :5])
    fft.irfft2(x[:, :3])
    fft.ifft2(x)
    assert seen == [3, 3, 3, 3, 3]


def layouts(rng, n, cols, dtype):
    """An (n, cols) and a stacked (2, n, cols) array, each contiguous and as
    a non-contiguous view of a wider array's leading columns."""
    for lead in ((), (2,)):
        for width in (cols, n + 6):
            a = rng.standard_normal((*lead, n, width))
            if dtype is complex:
                a = a + 1j * rng.standard_normal(a.shape)
            yield a[..., :cols]


@pytest.fixture(params=["pocketfft", "substitute"])
def kernels(request, monkeypatch):
    if request.param == "substitute":
        for name in KERNELS:
            monkeypatch.setattr(fft, name, getattr(fft, "_scipy" + name))
    return request.param


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", [32, 64, 128, 192])
def test_bits_equal_scipy_fft(kernels, monkeypatch, n, threads):
    monkeypatch.setattr(fft, "WORKERS", threads)
    rng = np.random.default_rng(n + threads)
    for x in layouts(rng, n, n, float):
        expected = scipy.fft.rfft2(x, norm="forward", workers=1)
        assert np.array_equal(fft.rfft2(x), expected)
        assert np.array_equal(scipy.fft.rfft2(x, norm="forward", workers=threads), expected)
    for c in layouts(rng, n, n // 2 + 1, complex):
        expected = scipy.fft.irfft2(c, s=(n, n), norm="forward", workers=1)
        assert np.array_equal(fft.irfft2(c), expected)
        assert np.array_equal(
            scipy.fft.irfft2(c, s=(n, n), norm="forward", workers=threads), expected)
    for z in layouts(rng, n, n, complex):
        expected = scipy.fft.ifft2(z, workers=1)
        assert np.array_equal(fft.ifft2(z), expected)
        assert np.array_equal(scipy.fft.ifft2(z, workers=threads), expected)


@pytest.mark.parametrize("n", [32, 64, 128, 192])
def test_out_matches_a_fresh_allocation(kernels, n):
    """The kernels fill and return out=; the substitutes allocate.  Either
    way the returned array holds the fresh allocation's bits, and the
    input is left as it was."""
    rng = np.random.default_rng(n)
    cases = [(fft.rfft2, x, (n // 2 + 1,), complex) for x in layouts(rng, n, n, float)]
    cases += [(fft.irfft2, c, (n,), float) for c in layouts(rng, n, n // 2 + 1, complex)]
    for transform, x, cols, dtype in cases:
        out = np.full(x.shape[:-1] + cols, np.nan, dtype=dtype)
        before = x.copy()
        y = transform(x, out=out)
        assert (y is out) == (kernels == "pocketfft")
        assert np.array_equal(y, transform(x))
        assert np.array_equal(x, before)


@pytest.mark.parametrize("n", [96, 128, 192])
def test_band_columns_give_the_zero_padded_bits(kernels, n):
    """An input of m < n/2+1 columns is the columns k2 = 0..m-1 of a
    half-spectrum that is zero on all others: the band path gives the bits
    of scipy.fft.irfft2 of that zero-padded input, with out= and without,
    and leaves the input as it was.  Two widths per n use two pads, each
    shared by the scalar and the stacked inputs."""
    rng = np.random.default_rng(n)
    for m in (n // 3 + 1, 7):
        for c in layouts(rng, n, m, complex):
            padded = np.zeros((*c.shape[:-1], n // 2 + 1), dtype=complex)
            padded[..., :m] = c
            expected = scipy.fft.irfft2(padded, s=(n, n), norm="forward", workers=1)
            before = c.copy()
            assert np.array_equal(fft.irfft2(c), expected)
            out = np.full(expected.shape, np.nan)
            y = fft.irfft2(c, out=out)
            assert (y is out) == (kernels == "pocketfft")
            assert np.array_equal(y, expected)
            assert np.array_equal(c, before)
            assert not np.any(fft._pad((2,), n, m)[..., m:])


def test_band_results_own_their_memory(kernels):
    """Without out=, each band-path call returns a new array: none shares
    memory with another call's or with the module's pad buffer."""
    rng = np.random.default_rng(3)
    for c in layouts(rng, 96, 33, complex):
        a, b = fft.irfft2(c), fft.irfft2(c)
        pad = fft._pad((2,), 96, 33)
        assert np.array_equal(a, b)
        assert not (np.shares_memory(a, b) or np.shares_memory(a, pad)
                    or np.shares_memory(b, pad))


def test_forward_transform_reads_integer_and_bool_samples(monkeypatch):
    """The kernel rejects int64 ("unsupported data type") where scipy.fft
    converts; forward_transform, the tests' route from grid samples to a
    field (conftest), reads such samples as float64, and hands float64
    samples on as they are."""
    grid = Grid(16)
    ints = np.arange(256).reshape(16, 16) % 7
    for samples in (ints, ints > 2):
        expected = forward_transform(grid, samples.astype(np.float64)).coeffs
        assert np.array_equal(forward_transform(grid, samples).coeffs, expected)
    seen = []
    rfft2 = spectral._fft.rfft2

    def recording(x, *args, **kwargs):
        seen.append(x)
        return rfft2(x, *args, **kwargs)

    monkeypatch.setattr(spectral._fft, "rfft2", recording)
    samples = np.cos(coordinates(grid)[0])
    forward_transform(grid, samples)
    assert len(seen) == 1 and seen[0] is samples
