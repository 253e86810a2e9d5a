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
Reductions are np.vdot calls: their bits do not depend on the FFT worker
count, but on the BLAS thread count past 10,000 elements (README).
"""

from __future__ import annotations

import numpy as np

from . import fft as _fft
from .errors import GridMismatchError, HermitianSymmetryError, MeanModeError, ValidationError


class Grid:
    """Uniform n x n collocation grid on [0, 2*pi)^2 and its half-spectrum
    wavenumbers.

    n must be even and >= 8 (powers of two give the fastest transforms).
    k1, k2, their derivative multipliers ik1 = 1j*k1 and ik2 = 1j*k2, k_sq,
    inv_k_sq, keep_mask and dealias_mask have the n x (n/2+1) shape of a
    stored coefficient array, so every per-mode multiplier applies to a
    field as it is.  The 2/3-rule dealias cutoff is
    floor(n/3): a field is dealiased when coeff(k) = 0 whenever
    max(|k1|, |k2|) > cutoff.
    """

    def __init__(self, n: int):
        if n < 8 or n % 2 != 0:
            raise ValidationError(f"grid size must be even and >= 8, got {n}")
        self.n = int(n)
        self.dealias_cutoff = n // 3
        k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)  # 0..n/2-1, -n/2..-1
        half = np.arange(n // 2 + 1, dtype=np.int64)        # 0..n/2
        self.k1 = k[:, None] * np.ones((1, half.size), dtype=np.int64)
        self.k2 = np.ones((n, 1), dtype=np.int64) * half[None, :]
        self.ik1 = 1j * self.k1
        self.ik2 = 1j * self.k2
        self.k_sq = (self.k1**2 + self.k2**2).astype(np.float64)
        self.inv_k_sq = np.divide(1.0, self.k_sq, out=np.zeros_like(self.k_sq),
                                  where=self.k_sq > 0)  # zero at k = 0
        # Nyquist row (k1 = -n/2) and column (k2 = n/2) are always zeroed.
        self.keep_mask = (np.abs(self.k1) != n // 2) & (self.k2 != n // 2)
        self.dealias_mask = (
            (np.abs(self.k1) <= self.dealias_cutoff)
            & (self.k2 <= self.dealias_cutoff)
        )
        x = np.arange(n) * (2.0 * np.pi / n)
        self.x1 = x[:, None] * np.ones((1, n))
        self.x2 = np.ones((n, 1)) * x[None, :]

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of a stored coefficient array."""
        return self.n, self.n // 2 + 1

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self):
        return hash(("Grid", self.n))

    def __repr__(self):
        return f"Grid(n={self.n})"


class SpectralScalar:
    """Real scalar field stored as its n x (n/2+1) half-spectrum of complex
    Fourier amplitudes.

    Treat instances as immutable: every operation returns a new field.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        if coeffs.shape != grid.shape:
            raise GridMismatchError(
                f"coefficient array {coeffs.shape} does not match grid n={grid.n} "
                f"(half-spectrum shape {grid.shape})"
            )
        self.grid = grid
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)

    def __add__(self, other):
        check_same_grid(self, other)
        return SpectralScalar(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        check_same_grid(self, other)
        return SpectralScalar(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c):
        return SpectralScalar(self.grid, self.coeffs * c)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralScalar(self.grid, -self.coeffs)


class SpectralVector:
    """Pair of scalar components."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1: SpectralScalar, x2: SpectralScalar):
        check_same_grid(x1, x2)
        self.x1 = x1
        self.x2 = x2

    @property
    def grid(self) -> Grid:
        return self.x1.grid

    def __add__(self, other):
        return SpectralVector(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other):
        return SpectralVector(self.x1 - other.x1, self.x2 - other.x2)

    def __mul__(self, c):
        return SpectralVector(self.x1 * c, self.x2 * c)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralVector(-self.x1, -self.x2)


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


def inverse_transform(f: SpectralScalar) -> np.ndarray:
    """Half-spectrum coefficients -> real n x n samples."""
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
    """Samples of f, a field or a full n x n spectrum, after checking that
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
    g = f.grid
    return SpectralVector(
        SpectralScalar(g, g.ik1 * f.coeffs),
        SpectralScalar(g, g.ik2 * f.coeffs),
    )


def divergence(F: SpectralVector) -> SpectralScalar:
    g = F.grid
    return SpectralScalar(g, g.ik1 * F.x1.coeffs + g.ik2 * F.x2.coeffs)


def curl(F: SpectralVector) -> SpectralScalar:
    """curl F = d1 F2 - d2 F1."""
    g = F.grid
    return SpectralScalar(g, g.ik1 * F.x2.coeffs - g.ik2 * F.x1.coeffs)


def laplacian(f: SpectralScalar) -> SpectralScalar:
    return SpectralScalar(f.grid, -f.grid.k_sq * f.coeffs)


def bilaplacian(f: SpectralScalar) -> SpectralScalar:
    return SpectralScalar(f.grid, f.grid.k_sq**2 * f.coeffs)


def vector_laplacian(F: SpectralVector) -> SpectralVector:
    return SpectralVector(laplacian(F.x1), laplacian(F.x2))


def perp(F: SpectralVector) -> SpectralVector:
    """Rotate by +90 degrees: (a1, a2) -> (-a2, a1)."""
    return SpectralVector(-F.x2, F.x1)


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
    u1 = SpectralScalar(g, g.ik2 * psi)
    # not conj(ik1): on the rows k1 < 0 the two differ in the sign of a zero
    u2 = SpectralScalar(g, -1j * g.k1 * psi)
    return SpectralVector(u1, u2)


def leray_project(F: SpectralVector) -> tuple[SpectralVector, SpectralVector]:
    """Split F = p_part + q_part with div p_part = 0 and curl q_part = 0.

    Mean modes pass through to p_part.
    """
    g = F.grid
    s = (g.k1 * F.x1.coeffs + g.k2 * F.x2.coeffs) * g.inv_k_sq  # (k.Fhat)/|k|^2
    q1 = g.k1 * s
    q2 = g.k2 * s
    p_part = SpectralVector(
        SpectralScalar(g, F.x1.coeffs - q1),
        SpectralScalar(g, F.x2.coeffs - q2),
    )
    q_part = SpectralVector(SpectralScalar(g, q1), SpectralScalar(g, q2))
    return p_part, q_part


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


def dealias(f: SpectralScalar) -> SpectralScalar:
    return SpectralScalar(f.grid, _truncate(f.coeffs.copy()))


def dealiased_samples(f: SpectralScalar, multiplier: np.ndarray | None = None) -> np.ndarray:
    """Grid samples of dealias(f), or of multiplier * dealias(f) for a
    per-mode multiplier, with the bits of inverse_transform of that field:
    only the band columns k2 = 0..n//3 are copied, with the rows
    |k1| > n//3 zeroed, and they take irfft2's band path."""
    c = _truncate(f.coeffs[:, :f.grid.dealias_cutoff + 1].copy())
    if multiplier is not None:
        np.multiply(multiplier[:, :c.shape[1]], c, out=c)
    return _fft.irfft2(c)


def dealiased_gradient(f: SpectralScalar) -> tuple[np.ndarray, np.ndarray]:
    """Grid samples of both components of gradient(dealias(f))."""
    return dealiased_samples(f, f.grid.ik1), dealiased_samples(f, f.grid.ik2)


def dealiased_vector_samples(F: SpectralVector, multiplier: np.ndarray | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """dealiased_samples of both components of F."""
    return dealiased_samples(F.x1, multiplier), dealiased_samples(F.x2, multiplier)


def dealias_vector(F: SpectralVector) -> SpectralVector:
    return SpectralVector(dealias(F.x1), dealias(F.x2))


def dealiased_product(f: SpectralScalar, g: SpectralScalar) -> SpectralScalar:
    """2/3-rule product: truncate inputs, multiply on the grid, truncate output.

    For inputs already inside the retained band the result is the exact
    convolution restricted to that band (no aliasing).
    """
    check_same_grid(f, g)
    return product_physical(dealiased_samples(f) * dealiased_samples(g), f.grid)


def product_physical(fields_phys: np.ndarray, grid: Grid) -> SpectralScalar:
    """Forward transform of an already-formed physical product, dealiased
    (the band excludes the Nyquist modes)."""
    return SpectralScalar(grid, dealias_columns(_fft.rfft2(fields_phys)))


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


def l2_norm(f: SpectralScalar) -> float:
    """Physical L2 norm; Plancherel gives (2*pi) * sqrt(sum |fhat|^2)."""
    return 2.0 * np.pi * float(np.sqrt(half_vdot(f.coeffs, f.coeffs)))


def l2_norm_vector(F: SpectralVector) -> float:
    s = half_vdot(F.x1.coeffs, F.x1.coeffs) + half_vdot(F.x2.coeffs, F.x2.coeffs)
    return 2.0 * np.pi * float(np.sqrt(s))


def mismatch(a, b) -> float:
    """Relative gap ||a - b|| / max(||a||, ||b||, 1) of two scalar fields or
    of two vector fields."""
    norm = l2_norm_vector if isinstance(a, SpectralVector) else l2_norm
    return norm(a - b) / max(norm(a), norm(b), 1.0)


def inner_product(f: SpectralScalar, g: SpectralScalar) -> float:
    check_same_grid(f, g)
    return (2.0 * np.pi) ** 2 * half_vdot(f.coeffs, g.coeffs)


def inner_product_vector(F: SpectralVector, G: SpectralVector) -> float:
    return inner_product(F.x1, G.x1) + inner_product(F.x2, G.x2)


def sup_magnitude(*samples: np.ndarray) -> float:
    """Max over the grid of the pointwise Euclidean norm of the sampled
    components (a vector's two, a gradient tensor's four)."""
    return float(np.max(np.sqrt(sum(c * c for c in samples))))


def sup_norm_vector(F: SpectralVector) -> float:
    """Max pointwise Euclidean magnitude of a vector field."""
    return sup_magnitude(inverse_transform(F.x1), inverse_transform(F.x2))
