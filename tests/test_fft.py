"""oddflow.fft against scipy.fft: the same bits for every shape, stacking,
memory layout and out= that the package uses, and for
irfft2's band path the bits of the zero-padded input's full transform,
outside any workspace, inside one and from two threads at once."""

import contextlib
import sys
import threading

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


def layouts(rng, n, cols, dtype):
    """An (n, cols) and a stacked (2, n, cols) array, each contiguous and as
    a non-contiguous view of a wider array's leading columns."""
    for lead in ((), (2,)):
        for width in (cols, n + 6):
            a = rng.standard_normal((*lead, n, width))
            if dtype is complex:
                a = a + 1j * rng.standard_normal(a.shape)
            yield a[..., :cols]


@pytest.fixture(params=["pocketfft"])
def kernels(request):
    """The kernels the transforms run on (test_the_pocketfft_kernels_are_active);
    the parameter keeps the tests' ids."""
    return request.param


# the ids end in the worker count, 1: the kernels run one, as scipy.fft does below
@pytest.mark.parametrize("n", [32, 64, 128, 192], ids=lambda n: f"{n}-1")
def test_bits_equal_scipy_fft(kernels, n):
    rng = np.random.default_rng(n + 1)
    for x in layouts(rng, n, n, float):
        expected = scipy.fft.rfft2(x, norm="forward", workers=1)
        assert np.array_equal(fft.rfft2(x), expected)
    for c in layouts(rng, n, n // 2 + 1, complex):
        expected = scipy.fft.irfft2(c, s=(n, n), norm="forward", workers=1)
        assert np.array_equal(fft.irfft2(c), expected)
    for z in layouts(rng, n, n, complex):
        expected = scipy.fft.ifft2(z, workers=1)
        assert np.array_equal(fft.ifft2(z), expected)


@pytest.mark.parametrize("n", [32, 64, 128, 192])
def test_out_matches_a_fresh_allocation(kernels, n):
    """The kernels fill and return out=, which holds the fresh allocation's
    bits, and leave the input as it was."""
    rng = np.random.default_rng(n)
    cases = [(fft.rfft2, x, (n // 2 + 1,), complex) for x in layouts(rng, n, n, float)]
    cases += [(fft.irfft2, c, (n,), float) for c in layouts(rng, n, n // 2 + 1, complex)]
    for transform, x, cols, dtype in cases:
        out = np.full(x.shape[:-1] + cols, np.nan, dtype=dtype)
        before = x.copy()
        y = transform(x, out=out)
        assert y is out
        assert np.array_equal(y, transform(x))
        assert np.array_equal(x, before)


def blocks(n):
    """A context that holds nothing, then a fft.workspace(n) block."""
    return contextlib.nullcontext(), fft.workspace(n)


@pytest.mark.parametrize("n", [96, 128, 192])
def test_band_columns_give_the_zero_padded_bits(kernels, n):
    """An input of m < n/2+1 columns is the columns k2 = 0..m-1 of a
    half-spectrum that is zero on all others: the band path gives the bits
    of scipy.fft.irfft2 of that zero-padded input, with out= and without,
    and leaves the input as it was, outside any block and inside one.  In
    a block the dealiased band's scalar and stacked inputs share the held
    pad, whose columns past m stay zero; width 7 allocates its own."""
    rng = np.random.default_rng(n)
    for block in blocks(n):
        with block as ws:
            for m in (n // 3 + 1, 7):
                for c in layouts(rng, n, m, complex):
                    padded = np.zeros((*c.shape[:-1], n // 2 + 1), dtype=complex)
                    padded[..., :m] = c
                    expected = scipy.fft.irfft2(padded, s=(n, n), norm="forward", workers=1)
                    before = c.copy()
                    assert np.array_equal(fft.irfft2(c), expected)
                    out = np.full(expected.shape, np.nan)
                    y = fft.irfft2(c, out=out)
                    assert y is out
                    assert np.array_equal(y, expected)
                    assert np.array_equal(c, before)
                    if ws is not None:
                        assert not np.any(ws.pad[..., n // 3 + 1:])
            if ws is not None:
                assert np.any(ws.pad)  # the dealiased band's calls wrote it


def test_band_results_own_their_memory(kernels):
    """Without out=, each band-path call returns a new array: none shares
    memory with another call's or with the held workspace's pad."""
    rng = np.random.default_rng(3)
    for block in blocks(96):
        with block as ws:
            for c in layouts(rng, 96, 33, complex):
                a, b = fft.irfft2(c), fft.irfft2(c)
                assert np.array_equal(a, b) and not np.shares_memory(a, b)
                if ws is not None:
                    assert not (np.shares_memory(a, ws.pad) or np.shares_memory(b, ws.pad))


def test_the_module_keeps_no_array_outside_a_block():
    """Band-path calls outside any block leave no array and no cache in
    oddflow.fft, and no held workspace."""
    rng = np.random.default_rng(5)
    for n, m in ((96, 33), (96, 7), (64, 22)):
        for c in layouts(rng, n, m, complex):
            fft.irfft2(c)
    for name, value in vars(fft).items():
        assert not isinstance(value, np.ndarray), name
        assert not hasattr(value, "cache_info"), name
    assert fft._held.workspaces == {}


def test_a_block_is_held_on_its_own_thread_only():
    """A block opened on one thread is not held on another: the other
    thread's block builds its own workspace, and the first still holds
    its own afterwards."""
    seen = []

    def other():
        with fft.workspace(64) as ws:
            seen.append(ws)

    with fft.workspace(64) as ws:
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(seen) == 1 and seen[0] is not ws
        with fft.workspace(64) as again:
            assert again is ws
    assert fft._held.workspaces == {}


@pytest.mark.parametrize("in_block", [False, True], ids=["outside", "own_block"])
def test_two_threads_get_the_single_thread_bits(in_block):
    """Two threads (no more) run 300 band-path calls each at n = 128, each
    on its own scalar and stacked data, outside any block or each in its
    own fft.workspace(n) block, with a short switch interval: every call
    returns the bits of the same call on one thread."""
    n, m, calls = 128, 128 // 3 + 1, 300
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal((*lead, n, m)) + 1j * rng.standard_normal((*lead, n, m))
              for lead in ((), (2,))]
    expected = [fft.irfft2(c) for c in inputs]
    barrier = threading.Barrier(2, timeout=60)
    wrong = [None, None]

    def work(i):
        with fft.workspace(n) if in_block else contextlib.nullcontext():
            barrier.wait()
            wrong[i] = sum(not np.array_equal(fft.irfft2(inputs[i]), expected[i])
                           for _ in range(calls))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [0, 0]


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
