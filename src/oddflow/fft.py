"""Transforms over the last two axes: the pocketfft kernels behind scipy.fft,
called as it calls them (rfft2 and irfft2, n x n to n x (n/2+1) and back, with
norm="forward"), for the same bits without its dispatch.  out= is filled and
returned, except by the substitute kernels used without scipy's private
module, so callers read the returned array.  The worker cap is
ODDFLOW_THREADS as it was when the module was imported (WORKERS).

irfft2 reads m < n/2+1 input columns as the columns k2 = 0..m-1 of a
half-spectrum that is zero elsewhere.  An axis-0 c2c of those columns into a
zero-padded buffer that the module owns (_pad), then an axis-1 c2r, gives the
full-width transform's bits without its c2c over zero columns (Sorensen &
Burrus, IEEE Trans. Signal Process. 41 (1993) 1184-1200); the substitute
kernel zero-pads the input.  The buffers make irfft2 unsafe to call from two
threads."""

import functools
import os

import numpy as np
import scipy.fft


def fft_workers() -> int:
    """Worker cap for FFT kernels, from ODDFLOW_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("ODDFLOW_THREADS", "1")))
    except ValueError:
        return 1


WORKERS = fft_workers()  # read once, at import: the transforms pass it on


def _scipy_r2c(x, axes, forward, inorm, out, nthreads):  # pocketfft's signatures
    return scipy.fft.rfft2(x, norm="forward", workers=nthreads)


def _scipy_c2r(x, axes, lastsize, forward, inorm, out, nthreads):  # zero-pads x to s
    return scipy.fft.irfft2(x, s=(x.shape[-2],) * 2, norm="forward", workers=nthreads)


def _scipy_c2c(x, axes, forward, inorm, out, nthreads):
    return scipy.fft.ifft2(x, workers=nthreads)


try:
    from scipy.fft._pocketfft.pypocketfft import c2c as _c2c, c2r as _c2r, r2c as _r2c
except ImportError:
    _r2c, _c2r, _c2c = _scipy_r2c, _scipy_c2r, _scipy_c2c


@functools.cache
def _pad(lead: tuple, n: int, m: int) -> np.ndarray:
    """irfft2's band-path buffer for inputs of shape lead + (n, m), whose
    columns past m stay zero; a scalar input's is the first of a stacked
    pair's."""
    if not lead:
        return _pad((2,), n, m)[0]
    return np.zeros(lead + (n, n // 2 + 1), dtype=np.complex128)


def rfft2(x, out=None):
    return _r2c(x, (-2, -1), True, 2, out, WORKERS)


def irfft2(x, out=None):
    n, m = x.shape[-2:]
    if m >= n // 2 + 1 or _c2r is _scipy_c2r:  # the substitute zero-pads x
        return _c2r(x, (-2, -1), n, False, 0, out, WORKERS)
    pad = _pad(x.shape[:-2], n, m)
    _c2c(x, (-2,), False, 0, pad[..., :m], WORKERS)
    return _c2r(pad, (-1,), n, False, 0, out, WORKERS)


def ifft2(x):
    return _c2c(x, (-2, -1), False, 2, None, WORKERS)
