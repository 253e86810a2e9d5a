"""Transforms over the last two axes: the pocketfft kernels behind scipy.fft,
called as it calls them (rfft2 and irfft2, n x n to n x (n/2+1) and back, with
norm="forward"), for the same bits without its dispatch; out= is filled and
returned.

irfft2 reads m < n/2+1 input columns as the columns k2 = 0..m-1 of a
half-spectrum that is zero elsewhere.  An axis-0 c2c of those columns into a
zero-padded buffer (the pad), then an axis-1 c2r, gives the full-width
transform's bits without its c2c over zero columns (Sorensen & Burrus, IEEE
Trans. Signal Process. 41 (1993) 1184-1200).

This module owns the scratch of a grid size: a Workspace, which a
workspace(n) block holds for its thread; stepping.trajectory holds one for
its whole loop, so a run's solves and band-path transforms allocate no
scratch after the first.  Inside a block, the band path of the dealiased band
(m = n//3 + 1) uses the workspace's pad; otherwise each call allocates its
own, so the module keeps no array between calls.  The registry of held
workspaces is per thread, so two threads never share one."""

import contextlib
import threading

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2c as _c2c, c2r as _c2r, r2c as _r2c


class Workspace:
    """The scratch arrays of grid size n, allocated once and never zeroed but
    for the pad: irfft2's band-path buffer for the dealiased band, whose
    columns past n//3 + 1 stay zero (a scalar input takes its first
    component); and those of a pressure solve (see oddflow.pressure): the
    source F (full width); the CG's right-hand side b, residual r,
    preconditioned residual z, direction p, its application Ap and tmp
    (band columns); the stacked band gradient grad and the stacked
    transforms g_out and f_out of an operator application, whose first
    components Concus-Golub's scalar transforms reuse; and root, a^{1/2}
    and then a^{-1/2}, with the sup|q| test in g_out and f_out."""

    def __init__(self, n: int):
        m, half = n // 3 + 1, (2, n, n // 2 + 1)
        self.pad = np.zeros(half, dtype=np.complex128)
        self.source = np.empty(half, dtype=np.complex128)
        self.b, self.r, self.z, self.p, self.Ap, self.tmp = (
            np.empty((n, m), dtype=np.complex128) for _ in range(6))
        self.grad = np.empty((2, n, m), dtype=np.complex128)
        self.g_out = np.empty((2, n, n))
        self.f_out = np.empty(half, dtype=np.complex128)
        self.root = np.empty((n, n))


class _Held(threading.local):
    def __init__(self):
        self.workspaces: dict[int, Workspace] = {}  # this thread's open blocks, by n


_held = _Held()


@contextlib.contextmanager
def workspace(n: int):
    """Hold a Workspace for grid size n on this thread through the block and
    yield it: the pressure solves and the dealiased band's band-path
    transforms of that size on the thread work in it.  A block inside one
    that holds n yields that one, and the outermost block frees it on exit,
    normal or not."""
    held = _held.workspaces
    if n in held:
        yield held[n]
        return
    ws = held[n] = Workspace(n)
    try:
        yield ws
    finally:
        del held[n]


def rfft2(x, out=None):
    return _r2c(x, (-2, -1), True, 2, out)


def irfft2(x, out=None):
    n, m = x.shape[-2:]
    if m >= n // 2 + 1:
        return _c2r(x, (-2, -1), n, False, 0, out)
    lead = x.shape[:-2]
    ws = _held.workspaces.get(n)
    if ws is not None and m == n // 3 + 1 and lead in ((), (2,)):
        pad = ws.pad[0] if not lead else ws.pad
    else:
        pad = np.zeros(lead + (n, n // 2 + 1), dtype=np.complex128)
    _c2c(x, (-2,), False, 0, pad[..., :m])
    return _c2r(pad, (-1,), n, False, 0, out)


def ifft2(x):
    return _c2c(x, (-2, -1), False, 2)
