"""Spectral core: periodic grid, transforms, vector calculus, Biot-Savart,
Leray projection and 2/3-rule dealiased products on the square torus
[0, 2*pi)^2.

Conventions
-----------
Coefficients are amplitudes of exp(i k.x), so coeff(0,0) is the mean of the
field.  Every field is real, so its full spectrum is Hermitian-symmetric,
coeff(-k) = conj(coeff(k)), and only its rfft2 half is stored: an
n x (n/2+1) array whose rows run over k1 in fft order {0, ..., n/2-1,
-n/2, ..., -1} and whose columns are k2 = 0, ..., n/2.  The Nyquist row
and column (|k1| = n/2 or k2 = n/2) are zero in every stored field, which
keeps derivatives symmetric.  Each column 0 < k2 < n/2 stands for itself
and its conjugate column -k2, so reductions over the spectrum (norms,
inner products, Sobolev sums) count it twice and the self-conjugate
columns k2 = 0 and k2 = n/2 once (half_vdot); with that weight
||f||^2 = (2*pi)^2 * sum_k |fhat(k)|^2 over the full spectrum (Plancherel).
Transforms are oddflow.fft's rfft2/irfft2 (the 1/n^2 of the amplitude
convention on the forward transform); outside the pressure solve the one
forward transform is product_physical's, which dealiases, and the samples
of a dealiased field come from its band columns alone (dealiased_samples).
The full spectrum appears only where data enters or leaves the program:
expand and fold convert between the two forms, and check_real transforms a
full spectrum and rejects a field whose samples are not real;
read_checkpoint applies it to every field it loads.

A vector field stores its two components' half-spectra stacked, one
(2, n, n/2+1) array, and a stacked multiplier (Grid.ik) or stacked grid
samples (2, n, n) carry the same leading axis.  Every operation here that
takes a field takes either kind through that axis: one transform of a
stacked array gives each component's bits.  Reductions are np.vdot calls:
their bits depend on the BLAS thread count past 10,000 elements (README).
So a vector's norm or inner product stays one np.vdot per component, summed
in component order: one vdot over both components of a full-width
half-spectrum would pass that threshold at n = 100 instead of n = 142.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from . import fft as _fft
from .errors import GridMismatchError, HermitianSymmetryError, MeanModeError, ValidationError


def chi_profile(r):
    """Radial cutoff: 1 on [0, 1.5], smooth monotone drop to 0 at 2."""
    r = np.asarray(r, dtype=np.float64)
    t = (r - 1.5) / 0.5  # transition variable in [0, 1]
    lo = np.exp(-1.0 / np.maximum(t, 1e-300), where=t > 0, out=np.zeros_like(t))
    hi = np.exp(-1.0 / np.maximum(1.0 - t, 1e-300), where=t < 1, out=np.zeros_like(t))
    with np.errstate(invalid="ignore"):
        s = np.where(t <= 0, 0.0, np.where(t >= 1, 1.0, lo / (lo + hi)))
    return 1.0 - s


class Grid:
    """Uniform n x n collocation grid on [0, 2*pi)^2 and its half-spectrum
    wavenumbers, the one place the program derives them: exact integers,
    built once, k1 over the rows in fft order (k1[:, 0] also orders a full
    spectrum's rows and columns) and k2 over the columns.

    n must be even and >= 8 (powers of two give the fastest transforms).
    A Grid holds k1, k2, k_sq = |k|^2, inv_k_sq (zero at k = 0) and
    dealias_mask, of the n x (n/2+1) shape of a stored scalar field, and k,
    the stack of k1 and k2, and ik = 1j*k, of the (2, n, n/2+1) shape of a
    stored vector field, so every per-mode multiplier applies to a field as
    it is.  The 2/3-rule dealias cutoff is floor(n/3) < n/2: a field is
    dealiased when coeff(k) = 0 whenever max(|k1|, |k2|) > cutoff, and
    dealias_mask excludes the Nyquist row and column.

    The pressure CG's multipliers live on the band columns k2 = 0..cutoff,
    zero outside the mean-zero dealiased band: band (1 on it, from
    dealias_mask), band_ik (ik times band) and band_inv_k_sq ((-Lap)^{-1}).
    The Littlewood-Paley lists dyadic_blocks (D_j at index j + 1 for
    j = -1..j_max) and dyadic_lows (S_j, the running sums) are built on
    first read, as the time stepping never reads them.  All die with the
    Grid, as every array of its fields does.
    """

    def __init__(self, n: int):
        if n < 8 or n % 2 != 0:
            raise ValidationError(f"grid size must be even and >= 8, got {n}")
        self.n = int(n)
        self.dealias_cutoff = n // 3
        k = (np.arange(n, dtype=np.int64) + n // 2) % n - n // 2  # 0..n/2-1, -n/2..-1
        half = np.arange(n // 2 + 1, dtype=np.int64)               # 0..n/2
        self.k = np.stack(np.broadcast_arrays(k[:, None], half[None, :]))
        self.k1, self.k2 = self.k
        self.ik = 1j * self.k
        self.k_sq = (self.k1**2 + self.k2**2).astype(np.float64)
        self.inv_k_sq = np.divide(1.0, self.k_sq, out=np.zeros_like(self.k_sq),
                                  where=self.k_sq > 0)  # zero at k = 0
        self.dealias_mask = (
            (np.abs(self.k1) <= self.dealias_cutoff)
            & (self.k2 <= self.dealias_cutoff)
        )
        m = self.dealias_cutoff + 1
        self.band = (self.dealias_mask & (self.k_sq > 0))[:, :m].astype(np.float64)
        self.band_ik = self.ik[..., :m] * self.band
        self.band_inv_k_sq = self.inv_k_sq[:, :m] * self.band

    @cached_property
    def dyadic_blocks(self) -> list[np.ndarray]:
        j_max = int(math.ceil(math.log2(self.n / 2)))
        kmag = np.sqrt(self.k_sq)
        cutoffs = [chi_profile(kmag / 2.0**j) for j in range(-1, j_max + 1)]
        return cutoffs[:1] + [cur - prev for prev, cur in zip(cutoffs, cutoffs[1:])]

    @cached_property
    def dyadic_lows(self) -> list[np.ndarray]:
        return list(itertools.accumulate(self.dyadic_blocks, initial=np.zeros_like(self.k_sq)))

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of a stored coefficient array."""
        return self.n, self.n // 2 + 1

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __repr__(self):
        return f"Grid(n={self.n})"


class _Field:
    """The grid and coefficient array of a real field, and the arithmetic
    that a scalar and a vector field share: each operation acts on the
    whole array and returns a new field of the same kind.

    Treat instances as immutable: every operation returns a new field.
    """

    __slots__ = ("grid", "coeffs")
    lead = ()  # the leading shape of coeffs

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        if coeffs.shape != self.lead + grid.shape:
            raise GridMismatchError(
                f"coefficient array {coeffs.shape} does not match grid n={grid.n} "
                f"(shape {self.lead + grid.shape})"
            )
        self.grid = grid
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)

    @classmethod
    def wrap(cls, grid: Grid, coeffs: np.ndarray):
        """The field of this kind whose coefficient array is coeffs, not copied."""
        field = cls.__new__(cls)
        _Field.__init__(field, grid, coeffs)
        return field

    def __add__(self, other):
        check_same_grid(self, other)
        return self.wrap(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        check_same_grid(self, other)
        return self.wrap(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c):
        return self.wrap(self.grid, self.coeffs * c)

    __rmul__ = __mul__

    def __neg__(self):
        return self.wrap(self.grid, -self.coeffs)


class SpectralScalar(_Field):
    """Real scalar field stored as its n x (n/2+1) half-spectrum of complex
    Fourier amplitudes."""

    __slots__ = ()


class SpectralVector(_Field):
    """Real vector field stored as the half-spectra of its two components
    stacked, shape (2, n, n/2+1).  SpectralVector(x1, x2) stacks two
    scalar fields; SpectralVector.wrap takes an array already stacked.
    x1 and x2 are scalar views of the components."""

    __slots__ = ()
    lead = (2,)

    def __init__(self, x1: SpectralScalar, x2: SpectralScalar):
        check_same_grid(x1, x2)
        super().__init__(x1.grid, np.stack((x1.coeffs, x2.coeffs)))

    @property
    def x1(self) -> SpectralScalar:
        return SpectralScalar(self.grid, self.coeffs[0])

    @property
    def x2(self) -> SpectralScalar:
        return SpectralScalar(self.grid, self.coeffs[1])


def check_same_grid(a, b):
    """GridMismatchError unless fields a and b share one grid."""
    if a.grid != b.grid:
        raise GridMismatchError(f"fields on different grids: {a.grid} vs {b.grid}")


# ---------------------------------------------------------------------------
# transforms and the full spectrum


def _hermitian_column(c: np.ndarray) -> np.ndarray:
    """Make the column k2 = 0 of a half-spectrum (stacked along leading axes
    or not) exactly Hermitian, in place:
    rows -k1 get the conjugates of rows k1 = 1..n/2-1, the values fft2
    gives.  Conjugates write a zero as +0.

    rfft2 leaves that column Hermitian only to round-off.  irfft2 ignores
    the anti-Hermitian rest, so no nonlinear term and no pressure solve
    sees it, while the per-mode linear terms carry it along: left in, it
    grew by about 2x per RK stage on a steady shear at n = 64."""
    n = c.shape[-2]
    c[..., n // 2 + 1:, 0] = np.conj(c[..., n // 2 - 1:0:-1, 0]) + 0.0
    return c


def inverse_transform(f) -> np.ndarray:
    """Half-spectrum coefficients -> real samples: n x n for a scalar field,
    stacked (2, n, n) for a vector field."""
    return _fft.irfft2(f.coeffs)


def expand(half: np.ndarray) -> np.ndarray:
    """Full Hermitian n x n spectrum whose columns 0..n/2 are half (the
    conjugates write a zero as +0)."""
    n = half.shape[0]
    full = np.empty((n, n), dtype=np.complex128)
    full[:, :n // 2 + 1] = half
    # coeff(k1, -k2) = conj(coeff(-k1, k2)) for k2 = n/2-1, ..., 1
    full[:, n // 2 + 1:] = np.conj(np.roll(half[::-1, n // 2 - 1:0:-1], 1, axis=0)) + 0.0
    return full


def fold(full: np.ndarray) -> np.ndarray:
    """The stored half-spectrum of a real field's full n x n spectrum: its
    columns k2 = 0..n/2, with an exactly Hermitian column 0."""
    half = np.array(full[:, :full.shape[0] // 2 + 1], dtype=np.complex128)
    return _hermitian_column(half)


def check_real(f) -> np.ndarray:
    """Samples of f, a scalar field or a full n x n spectrum, after checking that
    they are real: raise HermitianSymmetryError unless their imaginary
    residue is at most 1e-10 * max(1, max |real part|).

    This is the one transform of a full spectrum."""
    full = expand(f.coeffs) if isinstance(f, SpectralScalar) else f
    phys = _fft.ifft2(full * (full.shape[0] ** 2))
    scale = max(1.0, float(np.max(np.abs(phys.real))))
    residue = float(np.max(np.abs(phys.imag)))
    if residue > 1e-10 * scale:
        raise HermitianSymmetryError(
            f"imaginary residue {residue:.3e} exceeds 1e-10 (corrupted field)"
        )
    return np.ascontiguousarray(phys.real)


def zero_scalar(grid: Grid) -> SpectralScalar:
    return SpectralScalar(grid, np.zeros(grid.shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# calculus (exact per-mode multipliers)


def gradient(f: SpectralScalar) -> SpectralVector:
    return SpectralVector.wrap(f.grid, f.grid.ik * f.coeffs)


def divergence(F: SpectralVector) -> SpectralScalar:
    g = F.grid
    return SpectralScalar(g, g.ik[0] * F.coeffs[0] + g.ik[1] * F.coeffs[1])


def curl(F: SpectralVector) -> SpectralScalar:
    """curl F = d1 F2 - d2 F1."""
    g = F.grid
    return SpectralScalar(g, g.ik[0] * F.coeffs[1] - g.ik[1] * F.coeffs[0])


def laplacian(f):
    return f.wrap(f.grid, -f.grid.k_sq * f.coeffs)


def bilaplacian(f):
    return f.wrap(f.grid, f.grid.k_sq**2 * f.coeffs)


def perp(F: SpectralVector) -> SpectralVector:
    """Rotate by +90 degrees: (a1, a2) -> (-a2, a1)."""
    c = np.empty_like(F.coeffs)
    np.negative(F.coeffs[1], out=c[0])
    c[1] = F.coeffs[0]
    return SpectralVector.wrap(F.grid, c)


def _require_mean_zero(f: SpectralScalar, what: str):
    tol = 1e-12 * (1.0 + l2_norm(f))
    if abs(f.coeffs[0, 0]) > tol:
        raise MeanModeError(
            f"{what} requires a mean-zero field (coeff(0,0) = {f.coeffs[0, 0]:.3e})"
        )


def inverse_laplacian(f: SpectralScalar) -> SpectralScalar:
    """Mean-zero g with -Lap g = f, exact per mode."""
    _require_mean_zero(f, "inverse_laplacian")
    return SpectralScalar(f.grid, f.coeffs * f.grid.inv_k_sq)


def biot_savart(omega: SpectralScalar) -> SpectralVector:
    """Divergence-free u with curl u = omega:  u = -grad_perp (-Lap)^{-1} omega."""
    _require_mean_zero(omega, "biot_savart")
    g = omega.grid
    psi = omega.coeffs * g.inv_k_sq  # (-Lap)^{-1} omega
    u = np.empty(g.k.shape, dtype=np.complex128)
    np.multiply(g.ik[1], psi, out=u[0])
    # not conj(ik[0]): on the rows k1 < 0 the two differ in the sign of a zero
    np.multiply(-1j * g.k1, psi, out=u[1])
    return SpectralVector.wrap(g, u)


def leray_project(F: SpectralVector) -> tuple[SpectralVector, SpectralVector]:
    """Split F = p_part + q_part with div p_part = 0 and curl q_part = 0.

    Mean modes pass through to p_part.
    """
    g = F.grid
    s = (g.k1 * F.coeffs[0] + g.k2 * F.coeffs[1]) * g.inv_k_sq  # (k.Fhat)/|k|^2
    q = g.k * s
    return SpectralVector.wrap(g, F.coeffs - q), SpectralVector.wrap(g, q)


# ---------------------------------------------------------------------------
# products and norms


def _truncate(c: np.ndarray) -> np.ndarray:
    """Zero, in place, the modes of a half-spectrum or of its first columns
    (stacked along leading axes or not) outside the dealiased band, the
    rows |k1| > n//3 and the columns k2 > n//3: the values of
    np.where(dealias_mask, c, 0.0), bit for bit.  At n = 128 this takes
    7 us in place and 11 us on a copy, against 14 us for np.where."""
    n = c.shape[-2]
    cut = n // 3
    c[..., cut + 1:n - cut, :] = 0.0
    c[..., cut + 1:] = 0.0
    return c


def dealias(f):
    return f.wrap(f.grid, _truncate(f.coeffs.copy()))


def dealiased_samples(f, multiplier: np.ndarray | None = None) -> np.ndarray:
    """Grid samples of dealias(f), or of multiplier * dealias(f) for a
    per-mode multiplier, with the bits of inverse_transform of that field:
    only the band columns k2 = 0..n//3 are copied, with the rows
    |k1| > n//3 zeroed, and they take irfft2's band path.  A vector field,
    or a stacked multiplier such as Grid.ik (the gradient), gives stacked
    (2, n, n) samples."""
    c = _truncate(f.coeffs[..., :f.grid.dealias_cutoff + 1].copy())
    if multiplier is not None:
        mult = multiplier[..., :c.shape[-1]]
        c = np.multiply(mult, c, out=c if mult.ndim <= c.ndim else None)
    return _fft.irfft2(c)


def dealiased_product(f: SpectralScalar, g: SpectralScalar) -> SpectralScalar:
    """2/3-rule product: truncate inputs, multiply on the grid, truncate output.

    For inputs already inside the retained band the result is the exact
    convolution restricted to that band (no aliasing).
    """
    check_same_grid(f, g)
    return product_physical(dealiased_samples(f) * dealiased_samples(g), f.grid)


def product_physical(fields_phys: np.ndarray, grid: Grid):
    """Forward transform of an already-formed physical product, dealiased
    (the band excludes the Nyquist modes): a scalar field from n x n
    samples, a vector field from stacked (2, n, n) ones."""
    kind = SpectralVector if fields_phys.ndim == 3 else SpectralScalar
    return kind.wrap(grid, dealias_columns(_fft.rfft2(fields_phys)))


def dealias_columns(c: np.ndarray) -> np.ndarray:
    """Forward transforms, or their columns k2 = 0..m-1, stacked along
    leading axes or not, made in place into those of dealiased fields:
    column 0 exactly Hermitian and the modes outside the band zero."""
    return _truncate(_hermitian_column(c))


def half_vdot(x: np.ndarray, y: np.ndarray) -> float:
    """Re sum over the full spectrum of x * conj(y), from the columns
    k2 = 0..m-1 (m <= n/2+1) of half-spectra with n rows (stacked along
    leading axes or not): every column counts twice except k2 = 0 and,
    when present, k2 = n/2."""
    n, m = x.shape[-2:]
    total = 2.0 * np.vdot(y, x).real - np.vdot(y[..., 0], x[..., 0]).real
    if m == n // 2 + 1:
        total -= np.vdot(y[..., -1], x[..., -1]).real
    return float(total)


def _sum_over_components(reduce, f, g) -> float:
    """reduce(a, b) of each pair of component half-spectra of two fields of
    one kind, summed in component order (module docstring)."""
    check_same_grid(f, g)
    shape = (-1,) + f.grid.shape
    first, *rest = (reduce(a, b) for a, b in
                    zip(f.coeffs.reshape(shape), g.coeffs.reshape(shape), strict=True))
    return sum(rest, first)


def l2_norm(f) -> float:
    """Physical L2 norm; Plancherel gives (2*pi) * sqrt(sum |fhat|^2)."""
    return 2.0 * np.pi * float(np.sqrt(_sum_over_components(half_vdot, f, f)))


def mismatch(a, b) -> float:
    """Relative gap ||a - b|| / max(||a||, ||b||, 1) of two fields of one kind."""
    return l2_norm(a - b) / max(l2_norm(a), l2_norm(b), 1.0)


def inner_product(f, g) -> float:
    return _sum_over_components(lambda a, b: (2.0 * np.pi) ** 2 * half_vdot(a, b), f, g)


def sup_magnitude(*samples: np.ndarray) -> float:
    """Max over the grid of the pointwise Euclidean norm of the sampled
    components (a vector's two, a gradient tensor's four)."""
    return float(np.max(np.sqrt(sum(c * c for c in samples))))
