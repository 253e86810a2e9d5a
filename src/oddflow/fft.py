"""Transforms over the last two axes: the pocketfft kernels behind scipy.fft,
called as it calls them (rfft2 and irfft2, n x n to n x (n/2+1) and back, with
norm="forward"), for the same bits without its dispatch.  out= is filled and
returned, except by the substitute kernels used without scipy's private
module, so callers read the returned array.  The worker cap is
ODDFLOW_THREADS as it was when the module was imported (WORKERS)."""

import os

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


def _scipy_c2r(x, axes, lastsize, forward, inorm, out, nthreads):
    return scipy.fft.irfft2(x, norm="forward", workers=nthreads)


def _scipy_c2c(x, axes, forward, inorm, out, nthreads):
    return scipy.fft.ifft2(x, workers=nthreads)


try:
    from scipy.fft._pocketfft.pypocketfft import c2c as _c2c, c2r as _c2r, r2c as _r2c
except ImportError:
    _r2c, _c2r, _c2c = _scipy_r2c, _scipy_c2r, _scipy_c2c


def rfft2(x, out=None):
    return _r2c(x, (-2, -1), True, 2, out, WORKERS)


def irfft2(x, out=None):
    return _c2r(x, (-2, -1), x.shape[-2], False, 0, out, WORKERS)


def ifft2(x):
    return _c2c(x, (-2, -1), False, 2, None, WORKERS)
