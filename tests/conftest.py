import numpy as np
import pytest

from oddflow import spectral
from oddflow.dynamics import Fields
from oddflow.errors import GridMismatchError, ValidationError
from oddflow.spectral import Grid, SpectralScalar, SpectralVector, fold, zero_scalar


@pytest.fixture(scope="session")
def grid16():
    return Grid(16)


@pytest.fixture(scope="session")
def grid32():
    return Grid(32)


@pytest.fixture(scope="session")
def grid64():
    return Grid(64)


@pytest.fixture
def fields_built(monkeypatch):
    """A one-item list holding the number of dynamics.Fields built so far."""
    count = [0]
    init = Fields.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fields, "__init__", counting_init)
    return count


def full_wavenumbers(n):
    """k1, k2 and |k| on the full n x n spectrum, for test data drawn there
    and folded to the stored half-spectrum."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    return k1, k2, np.sqrt(k1**2 + k2**2)


def coordinates(grid):
    """The grid's collocation points as two n x n arrays,
    (x1[i, j], x2[i, j]) = 2*pi*(i, j)/n, for test data given by samples."""
    n = grid.n
    x = np.arange(n) * (2.0 * np.pi / n)
    return x[:, None] * np.ones((1, n)), np.ones((n, 1)) * x[None, :]


def forward_transform(grid, samples):
    """Real n x n samples (read as float64) -> half-spectrum amplitudes
    (Nyquist zeroed), through the package's transform module."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n, grid.n):
        raise GridMismatchError(f"sample array {samples.shape} does not match grid n={grid.n}")
    if np.iscomplexobj(samples):
        raise ValidationError("forward_transform expects real samples")
    coeffs = fold(spectral._fft.rfft2(np.asarray(samples, dtype=np.float64)))
    coeffs[grid.n // 2] = 0.0
    coeffs[:, -1] = 0.0
    return SpectralScalar(grid, coeffs)


def constant_scalar(grid, value):
    f = zero_scalar(grid)
    f.coeffs[0, 0] = value
    return f


def max_divergence_ratio(F):
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


def shear_state_fields(grid):
    """rho = 1, u = (0, sin x1) with exact coefficients."""
    u2 = zero_scalar(grid)
    u2.coeffs[1, 0] = -0.5j
    u2.coeffs[-1, 0] = 0.5j
    return zero_scalar(grid), SpectralVector(zero_scalar(grid), u2)


def dft_oracle(samples):
    """Direct O(n^4) DFT with the amplitude normalization (no FFT)."""
    n = samples.shape[0]
    x = np.arange(n) * (2 * np.pi / n)
    out = np.zeros((n, n), dtype=complex)
    kvals = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    for i, k1 in enumerate(kvals):
        for j, k2 in enumerate(kvals):
            phase = np.exp(-1j * (k1 * x[:, None] + k2 * x[None, :]))
            out[i, j] = np.sum(samples * phase) / n**2
    return out


def convolution_oracle(fc, gc, cutoff):
    """Truncated convolution of two coefficient arrays (direct sums)."""
    n = fc.shape[0]
    kvals = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    out = np.zeros_like(fc)
    idx = {int(k): i for i, k in enumerate(kvals)}
    support = [(int(kvals[i]), int(kvals[j]))
               for i in range(n) for j in range(n)
               if fc[i, j] != 0]
    for i in range(n):
        k1 = int(kvals[i])
        if abs(k1) > cutoff:
            continue
        for j in range(n):
            k2 = int(kvals[j])
            if abs(k2) > cutoff:
                continue
            acc = 0.0
            for (q1, q2) in support:
                r1, r2 = k1 - q1, k2 - q2
                if abs(r1) > n // 2 - 1 or abs(r2) > n // 2 - 1:
                    continue
                acc += fc[idx[q1], idx[q2]] * gc[idx[r1], idx[r2]]
            out[i, j] = acc
    return out
