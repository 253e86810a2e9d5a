"""Dyadic frequency decomposition, Bony paraproducts, and Sobolev/Besov/
Chemin-Lerner norms.

The radial cutoff chi equals 1 for r <= 1.5, drops smoothly (exp(-1/t)
bump transition) on [1.5, 2] and vanishes for r >= 2, so it is 1 on the unit
ball and 0 outside B(0,2).  Blocks are the telescoped differences

    D_{-1} = chi(2|k|),    D_j = chi(2^{-j}|k|) - chi(2^{-j+1}|k|)  (j >= 0),

which sum to chi(2^{-j_max}|k|) = 1 exactly at every grid frequency once
2^{j_max} * 1.5 exceeds the largest grid |k|; j_max = ceil(log2(n/2))
achieves that.  Low cutoffs S_j = sum_{m <= j-1} D_m are stored as cumulative
multipliers, so S_j f = sum of blocks below j holds exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .spectral import (
    Grid,
    SpectralScalar,
    dealiased_product,
    inverse_transform,
    l2_norm,
    _check_same_grid,
)


def chi_profile(r):
    """Radial cutoff: 1 on [0, 1.5], smooth monotone drop to 0 at 2."""
    r = np.asarray(r, dtype=np.float64)
    t = (r - 1.5) / 0.5  # transition variable in [0, 1]
    lo = np.exp(-1.0 / np.maximum(t, 1e-300), where=t > 0, out=np.zeros_like(t))
    hi = np.exp(-1.0 / np.maximum(1.0 - t, 1e-300), where=t < 1, out=np.zeros_like(t))
    with np.errstate(invalid="ignore"):
        s = np.where(t <= 0, 0.0, np.where(t >= 1, 1.0, lo / (lo + hi)))
    return 1.0 - s


class DyadicPartition:
    """Block multipliers of the dyadic decomposition on one grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.n
        self.j_max = int(math.ceil(math.log2(n / 2)))
        kmag = np.sqrt(grid.k_sq)
        self.chi = chi_profile(kmag)
        mults = [chi_profile(2.0 * kmag)]  # j = -1
        prev = chi_profile(2.0 * kmag)
        for j in range(0, self.j_max + 1):
            cur = chi_profile(kmag / 2.0**j)
            mults.append(cur - prev)
            prev = cur
        self.block_mults = mults  # index i holds block j = i - 1
        # cumulative low-pass multipliers: low_mults[j] = sum of blocks < j
        self.low_mults = {}
        acc = np.zeros_like(kmag)
        self.low_mults[-1] = acc.copy()
        for j in range(-1, self.j_max + 1):
            acc = acc + self.block_mults[j + 1]
            self.low_mults[j + 1] = acc.copy()

    def block_multiplier(self, j: int) -> np.ndarray:
        if j < -1 or j > self.j_max:
            raise ValidationError(f"block index {j} outside [-1, {self.j_max}]")
        return self.block_mults[j + 1]


_partition_cache: dict[int, DyadicPartition] = {}


def build_partition(grid: Grid) -> DyadicPartition:
    part = _partition_cache.get(grid.n)
    if part is None:
        part = DyadicPartition(grid)
        _partition_cache[grid.n] = part
    return part


def partition_of_unity_error(part: DyadicPartition) -> float:
    total = np.zeros_like(part.chi)
    for m in part.block_mults:
        total = total + m
    return float(np.max(np.abs(total - 1.0)))


def dyadic_block(f: SpectralScalar, j: int) -> SpectralScalar:
    part = build_partition(f.grid)
    return SpectralScalar(f.grid, f.coeffs * part.block_multiplier(j))


def low_cutoff(f: SpectralScalar, j: int) -> SpectralScalar:
    """S_j f = sum of blocks below j (cumulative multiplier)."""
    part = build_partition(f.grid)
    if j < 0 or j > part.j_max + 1:
        raise ValidationError(f"cutoff index {j} outside [0, {part.j_max + 1}]")
    return SpectralScalar(f.grid, f.coeffs * part.low_mults[j])


class DyadicDecomposition:
    """All blocks of one field, blocks[i] holding block j = i - 1."""

    def __init__(self, f: SpectralScalar):
        part = build_partition(f.grid)
        self.grid = f.grid
        self.j_max = part.j_max
        self.blocks = [
            SpectralScalar(f.grid, f.coeffs * m) for m in part.block_mults
        ]

    def block(self, j: int) -> SpectralScalar:
        if j < -1 or j > self.j_max:
            raise ValidationError(f"block index {j} outside [-1, {self.j_max}]")
        return self.blocks[j + 1]

    def reconstruct(self) -> SpectralScalar:
        out = self.blocks[0].coeffs.copy()
        for b in self.blocks[1:]:
            out += b.coeffs
        return SpectralScalar(self.grid, out)


def decompose(f: SpectralScalar) -> DyadicDecomposition:
    return DyadicDecomposition(f)


# ---------------------------------------------------------------------------
# norms


def sobolev_norm(f: SpectralScalar, s: float, backend: str = "multiplier") -> float:
    """H^s norm, either via the (1+|k|^2)^{s/2} multiplier or by the
    weighted block sum sqrt(sum_j 2^{2js} ||D_j f||^2)."""
    if backend == "multiplier":
        w = (1.0 + f.grid.k_sq) ** s
        return 2.0 * np.pi * float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))
    if backend == "lp_sum":
        part = build_partition(f.grid)
        total = 0.0
        for j in range(-1, part.j_max + 1):
            bn = l2_norm(dyadic_block(f, j))
            total += 4.0**(j * s) * bn * bn
        return float(np.sqrt(total))
    raise ValidationError(f"unknown sobolev backend {backend!r}")


def sobolev_norm_vector(F, s: float, backend: str = "multiplier") -> float:
    a = sobolev_norm(F.x1, s, backend)
    b = sobolev_norm(F.x2, s, backend)
    return float(np.hypot(a, b))


def _lp_physical(f: SpectralScalar, p: float) -> float:
    phys = inverse_transform(f)
    if p == np.inf:
        return float(np.max(np.abs(phys)))
    h2 = (2.0 * np.pi / f.grid.n) ** 2
    return float((np.sum(np.abs(phys) ** p) * h2) ** (1.0 / p))


def besov_norm(f: SpectralScalar, s: float, p: float, r: float) -> float:
    """B^s_{p,r} norm: l^r over j of 2^{js} ||D_j f||_{L^p} (physical L^p)."""
    if not (1 <= p) or not (1 <= r):
        raise ValidationError("Besov indices p, r must lie in [1, inf]")
    part = build_partition(f.grid)
    terms = []
    for j in range(-1, part.j_max + 1):
        terms.append(2.0 ** (j * s) * _lp_physical(dyadic_block(f, j), p))
    terms = np.asarray(terms)
    if r == np.inf:
        return float(np.max(terms))
    return float(np.sum(terms**r) ** (1.0 / r))


def chemin_lerner_norm(series, s: float, q: float, dt: float) -> float:
    """Discrete tilde-L^q_T(H^s) norm of a time series of fields.

    Per block j, the rectangle-rule L^q norm in time of ||D_j u(t)||_{L^2},
    then the 2^{js}-weighted l^2 sum over j.  This is a measurement
    convention for the sampled trajectory, not a continuum claim.
    """
    series = list(series)
    if not series:
        raise ValidationError("chemin_lerner_norm needs a non-empty series")
    if dt <= 0:
        raise ValidationError("chemin_lerner_norm needs dt > 0")
    if not (1 <= q):
        raise ValidationError("time exponent q must lie in [1, inf]")
    part = build_partition(series[0].grid)
    total = 0.0
    for j in range(-1, part.j_max + 1):
        bn = np.asarray([l2_norm(dyadic_block(f, j)) for f in series])
        if q == np.inf:
            aj = float(np.max(bn))
        else:
            aj = float((np.sum(bn**q) * dt) ** (1.0 / q))
        total += 4.0**(j * s) * aj * aj
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# Bony decomposition


def paraproduct(u: SpectralScalar, v: SpectralScalar) -> SpectralScalar:
    """T_u v = sum_j S_{j-1} u * D_j v with dealiased products."""
    _check_same_grid(u, v)
    part = build_partition(u.grid)
    out = None
    for j in range(1, part.j_max + 1):
        term = dealiased_product(low_cutoff(u, j - 1), dyadic_block(v, j))
        out = term if out is None else out + term
    return out


def remainder(u: SpectralScalar, v: SpectralScalar) -> SpectralScalar:
    """R(u, v) = sum over |j-m| <= 1 of D_j u * D_m v."""
    _check_same_grid(u, v)
    part = build_partition(u.grid)
    ub = [dyadic_block(u, j) for j in range(-1, part.j_max + 1)]
    vb = [dyadic_block(v, j) for j in range(-1, part.j_max + 1)]
    out = None
    for j in range(-1, part.j_max + 1):
        for m in range(max(-1, j - 1), min(part.j_max, j + 1) + 1):
            term = dealiased_product(ub[j + 1], vb[m + 1])
            out = term if out is None else out + term
    return out


def bony_reconstruction(u: SpectralScalar, v: SpectralScalar) -> SpectralScalar:
    return paraproduct(u, v) + paraproduct(v, u) + remainder(u, v)
