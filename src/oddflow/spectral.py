"""Spectral core: periodic grid, transforms, vector calculus, Biot-Savart,
Leray projection and 2/3-rule dealiased products on the square torus
[0, 2*pi)^2.

Conventions
-----------
Coefficients are amplitudes of exp(i k.x), so coeff(0,0) is the mean of the
field and the L2 norm satisfies ||f||^2 = (2*pi)^2 * sum_k |fhat(k)|^2.
Wavenumbers run over {-n/2+1, ..., n/2} per axis and the Nyquist mode n/2 is
forced to zero in every stored field, which keeps derivatives symmetric.
Every field is real, so its coefficients are Hermitian-symmetric,
coeff(-k) = conj(coeff(k)).  Realness is checked where data enters the
program, not on each transform: forward_transform rejects complex samples
and read_checkpoint applies check_real to every field it loads; every other
field is built from these by operations that keep the symmetry.
All reductions (norms, inner products) go through numpy's fixed-order
pairwise summation, so results do not depend on the FFT worker count.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.fft as _fft

from .errors import GridMismatchError, HermitianSymmetryError, MeanModeError


def fft_workers() -> int:
    """Worker cap for FFT kernels, from ODDFLOW_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("ODDFLOW_THREADS", "1")))
    except ValueError:
        return 1


class Grid:
    """Uniform n x n collocation grid on [0, 2*pi)^2.

    n must be even and >= 8 (powers of two give the fastest transforms).
    The 2/3-rule dealias cutoff is floor(n/3): a field is dealiased when
    coeff(k) = 0 whenever max(|k1|, |k2|) > cutoff.
    """

    def __init__(self, n: int):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        self.n = int(n)
        self.dealias_cutoff = n // 3
        k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)  # 0..n/2-1, -n/2..-1
        self.k1 = k[:, None] * np.ones((1, n), dtype=np.int64)
        self.k2 = np.ones((n, 1), dtype=np.int64) * k[None, :]
        self.k_sq = (self.k1**2 + self.k2**2).astype(np.float64)
        with np.errstate(divide="ignore"):
            inv = np.where(self.k_sq > 0, 1.0 / np.where(self.k_sq > 0, self.k_sq, 1.0), 0.0)
        self.inv_k_sq = inv  # zero at k = 0
        # Nyquist row/column (k = -n/2 in fft order) is always zeroed.
        self.keep_mask = (np.abs(self.k1) != n // 2) & (np.abs(self.k2) != n // 2)
        self.dealias_mask = (
            (np.abs(self.k1) <= self.dealias_cutoff)
            & (np.abs(self.k2) <= self.dealias_cutoff)
        )
        x = np.arange(n) * (2.0 * np.pi / n)
        self.x1 = x[:, None] * np.ones((1, n))
        self.x2 = np.ones((n, 1)) * x[None, :]

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self):
        return hash(("Grid", self.n))

    def __repr__(self):
        return f"Grid(n={self.n})"


class SpectralScalar:
    """Real scalar field stored as complex Fourier amplitudes.

    Treat instances as immutable: every operation returns a new field.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        if coeffs.shape != (grid.n, grid.n):
            raise GridMismatchError(
                f"coefficient array {coeffs.shape} does not match grid n={grid.n}"
            )
        self.grid = grid
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)

    def copy(self) -> "SpectralScalar":
        return SpectralScalar(self.grid, self.coeffs.copy())

    def __add__(self, other):
        _check_same_grid(self, other)
        return SpectralScalar(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return SpectralScalar(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c):
        return SpectralScalar(self.grid, self.coeffs * c)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralScalar(self.grid, -self.coeffs)


class SpectralVector:
    """Pair of scalar components; divergence_free is advisory."""

    __slots__ = ("x1", "x2", "divergence_free")

    def __init__(self, x1: SpectralScalar, x2: SpectralScalar, divergence_free: bool = False):
        _check_same_grid(x1, x2)
        self.x1 = x1
        self.x2 = x2
        self.divergence_free = divergence_free

    @property
    def grid(self) -> Grid:
        return self.x1.grid

    def copy(self) -> "SpectralVector":
        return SpectralVector(self.x1.copy(), self.x2.copy(), self.divergence_free)

    def __add__(self, other):
        return SpectralVector(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other):
        return SpectralVector(self.x1 - other.x1, self.x2 - other.x2)

    def __mul__(self, c):
        return SpectralVector(self.x1 * c, self.x2 * c, self.divergence_free)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralVector(-self.x1, -self.x2, self.divergence_free)


def _check_same_grid(a, b):
    ga = a.grid if hasattr(a, "grid") else a
    gb = b.grid if hasattr(b, "grid") else b
    if ga != gb:
        raise GridMismatchError(f"fields on different grids: {ga} vs {gb}")


# ---------------------------------------------------------------------------
# transforms


def forward_transform(grid: Grid, samples: np.ndarray) -> SpectralScalar:
    """Real n x n samples -> amplitude coefficients (Nyquist zeroed)."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n, grid.n):
        raise GridMismatchError(
            f"sample array {samples.shape} does not match grid n={grid.n}"
        )
    if np.iscomplexobj(samples):
        raise ValueError("forward_transform expects real samples")
    coeffs = _fft.fft2(samples, workers=fft_workers()) / (grid.n**2)
    coeffs[~grid.keep_mask] = 0.0
    return SpectralScalar(grid, coeffs)


def inverse_transform(f: SpectralScalar) -> np.ndarray:
    """Coefficients -> real samples (the imaginary part is dropped unchecked)."""
    n = f.grid.n
    phys = _fft.ifft2(f.coeffs * (n**2), workers=fft_workers())
    return np.ascontiguousarray(phys.real)


def check_real(f: SpectralScalar) -> None:
    """Raise HermitianSymmetryError unless f's samples are real, that is,
    their imaginary residue is at most 1e-10 * max(1, max |real part|)."""
    phys = _fft.ifft2(f.coeffs * (f.grid.n**2), workers=fft_workers())
    scale = max(1.0, float(np.max(np.abs(phys.real))))
    residue = float(np.max(np.abs(phys.imag)))
    if residue > 1e-10 * scale:
        raise HermitianSymmetryError(
            f"imaginary residue {residue:.3e} exceeds 1e-10 (corrupted field)"
        )


def resample(f: SpectralScalar, grid: Grid) -> SpectralScalar:
    """The same Fourier modes on another grid: zero-padded on a finer grid,
    truncated to the modes below the coarse Nyquist on a coarser one."""
    if grid == f.grid:
        return f
    half = min(f.grid.n, grid.n) // 2
    src = np.r_[:half, f.grid.n - half:f.grid.n]
    dst = np.r_[:half, grid.n - half:grid.n]
    c = np.zeros((grid.n, grid.n), dtype=np.complex128)
    c[np.ix_(dst, dst)] = f.coeffs[np.ix_(src, src)]
    return SpectralScalar(grid, c)


def zero_scalar(grid: Grid) -> SpectralScalar:
    return SpectralScalar(grid, np.zeros((grid.n, grid.n), dtype=np.complex128))


def constant_scalar(grid: Grid, value: float) -> SpectralScalar:
    f = zero_scalar(grid)
    f.coeffs[0, 0] = value
    return f


# ---------------------------------------------------------------------------
# calculus (exact per-mode multipliers)


def gradient(f: SpectralScalar) -> SpectralVector:
    g = f.grid
    return SpectralVector(
        SpectralScalar(g, 1j * g.k1 * f.coeffs),
        SpectralScalar(g, 1j * g.k2 * f.coeffs),
    )


def perp_gradient(f: SpectralScalar) -> SpectralVector:
    """grad-perp = (-d2, d1); always divergence-free."""
    g = f.grid
    return SpectralVector(
        SpectralScalar(g, -1j * g.k2 * f.coeffs),
        SpectralScalar(g, 1j * g.k1 * f.coeffs),
        divergence_free=True,
    )


def divergence(F: SpectralVector) -> SpectralScalar:
    g = F.grid
    return SpectralScalar(g, 1j * g.k1 * F.x1.coeffs + 1j * g.k2 * F.x2.coeffs)


def curl(F: SpectralVector) -> SpectralScalar:
    """curl F = d1 F2 - d2 F1."""
    g = F.grid
    return SpectralScalar(g, 1j * g.k1 * F.x2.coeffs - 1j * g.k2 * F.x1.coeffs)


def laplacian(f: SpectralScalar) -> SpectralScalar:
    return SpectralScalar(f.grid, -f.grid.k_sq * f.coeffs)


def bilaplacian(f: SpectralScalar) -> SpectralScalar:
    return SpectralScalar(f.grid, f.grid.k_sq**2 * f.coeffs)


def vector_laplacian(F: SpectralVector) -> SpectralVector:
    return SpectralVector(laplacian(F.x1), laplacian(F.x2), F.divergence_free)


def vector_bilaplacian(F: SpectralVector) -> SpectralVector:
    return SpectralVector(bilaplacian(F.x1), bilaplacian(F.x2), F.divergence_free)


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
    g = f.grid
    out = f.coeffs * g.inv_k_sq
    return SpectralScalar(g, out)


def biot_savart(omega: SpectralScalar) -> SpectralVector:
    """Divergence-free u with curl u = omega:  u = -grad_perp (-Lap)^{-1} omega."""
    _require_mean_zero(omega, "biot_savart")
    g = omega.grid
    psi = omega.coeffs * g.inv_k_sq  # (-Lap)^{-1} omega
    u1 = SpectralScalar(g, 1j * g.k2 * psi)
    u2 = SpectralScalar(g, -1j * g.k1 * psi)
    return SpectralVector(u1, u2, divergence_free=True)


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
        divergence_free=True,
    )
    q_part = SpectralVector(SpectralScalar(g, q1), SpectralScalar(g, q2))
    return p_part, q_part


# ---------------------------------------------------------------------------
# products and norms


def dealias(f: SpectralScalar) -> SpectralScalar:
    out = f.coeffs.copy()
    out[~f.grid.dealias_mask] = 0.0
    return SpectralScalar(f.grid, out)


def dealias_vector(F: SpectralVector) -> SpectralVector:
    return SpectralVector(dealias(F.x1), dealias(F.x2), F.divergence_free)


def dealiased_product(f: SpectralScalar, g: SpectralScalar) -> SpectralScalar:
    """2/3-rule product: truncate inputs, multiply on the grid, truncate output.

    For inputs already inside the retained band the result is the exact
    convolution restricted to that band (no aliasing).
    """
    _check_same_grid(f, g)
    grid = f.grid
    a = inverse_transform(dealias(f))
    b = inverse_transform(dealias(g))
    return dealias(forward_transform(grid, a * b))


def product_physical(fields_phys: np.ndarray, grid: Grid) -> SpectralScalar:
    """Forward transform of an already-formed physical product, dealiased."""
    return dealias(forward_transform(grid, fields_phys))


def l2_norm(f: SpectralScalar) -> float:
    """Physical L2 norm; Plancherel gives (2*pi) * sqrt(sum |fhat|^2)."""
    return 2.0 * np.pi * float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))


def l2_norm_vector(F: SpectralVector) -> float:
    s = np.sum(np.abs(F.x1.coeffs) ** 2) + np.sum(np.abs(F.x2.coeffs) ** 2)
    return 2.0 * np.pi * float(np.sqrt(s))


def inner_product(f: SpectralScalar, g: SpectralScalar) -> float:
    _check_same_grid(f, g)
    return (2.0 * np.pi) ** 2 * float(np.real(np.sum(f.coeffs * np.conj(g.coeffs))))


def inner_product_vector(F: SpectralVector, G: SpectralVector) -> float:
    return inner_product(F.x1, G.x1) + inner_product(F.x2, G.x2)


def sup_norm(f: SpectralScalar, oversample: bool = False) -> float:
    """Max |f| on the collocation grid (optionally on a 2x finer grid)."""
    f = resample(f, Grid(2 * f.grid.n)) if oversample else f
    return float(np.max(np.abs(inverse_transform(f))))


def sup_norm_vector(F: SpectralVector, oversample: bool = False) -> float:
    """Max pointwise Euclidean magnitude of a vector field."""
    grid = Grid(2 * F.grid.n) if oversample else F.grid
    a = inverse_transform(resample(F.x1, grid))
    b = inverse_transform(resample(F.x2, grid))
    return float(np.max(np.sqrt(a * a + b * b)))


def max_divergence_ratio(F: SpectralVector) -> float:
    """Worst per-mode |k.uhat(k)| / |uhat(k)| over modes with energy."""
    g = F.grid
    num = np.abs(g.k1 * F.x1.coeffs + g.k2 * F.x2.coeffs)
    den = np.sqrt(np.abs(F.x1.coeffs) ** 2 + np.abs(F.x2.coeffs) ** 2)
    mask = den > 0
    if not np.any(mask):
        return 0.0
    ratio = np.zeros_like(num)
    ratio[mask] = num[mask] / den[mask]
    return float(np.max(ratio))
