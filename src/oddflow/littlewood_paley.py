"""Dyadic frequency decomposition, Bony paraproducts, and Sobolev and Besov
norms.

The radial cutoff chi equals 1 for r <= 1.5, drops smoothly (exp(-1/t)
bump transition) on [1.5, 2] and vanishes for r >= 2, so it is 1 on the unit
ball and 0 outside B(0,2).  Blocks are the telescoped differences

    D_{-1} = chi(2|k|),    D_j = chi(2^{-j}|k|) - chi(2^{-j+1}|k|)  (j >= 0),

which sum to chi(2^{-j_max}|k|) = 1 exactly at every grid frequency once
2^{j_max} * 1.5 exceeds the largest grid |k|; j_max = ceil(log2(n/2))
achieves that.  Low cutoffs S_j = sum_{m <= j-1} D_m are stored as running
sums of the block multipliers, so S_j f = sum of blocks below j holds exactly.
The Grid holds both lists (dyadic_blocks, dyadic_lows; chi is chi_profile).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .spectral import (
    Grid,
    SpectralScalar,
    check_same_grid,
    dealiased_product,
    half_vdot,
    inverse_transform,
)


def partition_of_unity_error(grid: Grid) -> float:
    return float(np.max(np.abs(grid.dyadic_lows[-1] - 1.0)))


def dyadic_block(f: SpectralScalar, j: int) -> SpectralScalar:
    j_max = len(f.grid.dyadic_blocks) - 2
    if j < -1 or j > j_max:
        raise ValidationError(f"block index {j} outside [-1, {j_max}]")
    return f * f.grid.dyadic_blocks[j + 1]


def dyadic_blocks(f: SpectralScalar) -> list[SpectralScalar]:
    """All blocks of f, D_j f at index j + 1."""
    return [f * m for m in f.grid.dyadic_blocks]


def low_cutoff(f: SpectralScalar, j: int) -> SpectralScalar:
    """S_j f = sum of blocks below j (cumulative multiplier)."""
    j_max = len(f.grid.dyadic_blocks) - 2
    if j < 0 or j > j_max + 1:
        raise ValidationError(f"cutoff index {j} outside [0, {j_max + 1}]")
    return f * f.grid.dyadic_lows[j + 1]


# ---------------------------------------------------------------------------
# norms


def sobolev_norm(f: SpectralScalar, s: float) -> float:
    """H^s norm, by the (1+|k|^2)^{s/2} multiplier."""
    w = (1.0 + f.grid.k_sq) ** s
    return 2.0 * np.pi * float(np.sqrt(half_vdot(w * f.coeffs, f.coeffs)))


def sobolev_norm_vector(F, s: float) -> float:
    return float(np.hypot(sobolev_norm(F.x1, s), sobolev_norm(F.x2, s)))


def _lp_physical(f: SpectralScalar, p: float) -> float:
    phys = inverse_transform(f)
    if p == np.inf:
        return float(np.max(np.abs(phys)))
    h2 = (2.0 * np.pi / f.grid.n) ** 2
    return float((np.sum(np.abs(phys) ** p) * h2) ** (1.0 / p))


def besov_norm(f: SpectralScalar, s: float, p: float, r: float) -> float:
    """B^s_{p,r} norm: l^r over j of 2^{js} ||D_j f||_{L^p} (physical L^p).
    B^s_{2,2} is sqrt(sum_j 2^{2js} ||D_j f||^2), the block-sum form of the
    H^s norm, equivalent to sobolev_norm."""
    if not (1 <= p) or not (1 <= r):
        raise ValidationError("Besov indices p, r must lie in [1, inf]")
    # np.float64's ** is a float's libm pow, but inf where a float's raises OverflowError
    terms = np.asarray([np.float64(2.0) ** (j * s) * _lp_physical(block, p)
                        for j, block in enumerate(dyadic_blocks(f), start=-1)])
    if r == np.inf:
        return float(np.max(terms))
    return float(np.sum(terms**r) ** (1.0 / r))


# ---------------------------------------------------------------------------
# Bony decomposition


def paraproduct(u: SpectralScalar, v: SpectralScalar) -> SpectralScalar:
    """T_u v = sum_j S_{j-1} u * D_j v with dealiased products."""
    check_same_grid(u, v)
    out = None
    for j in range(1, len(u.grid.dyadic_blocks) - 1):  # j = 1..j_max
        term = dealiased_product(low_cutoff(u, j - 1), dyadic_block(v, j))
        out = term if out is None else out + term
    return out


def remainder(u: SpectralScalar, v: SpectralScalar) -> SpectralScalar:
    """R(u, v) = sum over |j-m| <= 1 of D_j u * D_m v."""
    check_same_grid(u, v)
    ub, vb = dyadic_blocks(u), dyadic_blocks(v)
    out = None
    for i in range(len(ub)):  # list index i holds block i - 1
        for m in range(max(0, i - 1), min(len(vb), i + 2)):
            term = dealiased_product(ub[i], vb[m])
            out = term if out is None else out + term
    return out


def bony_reconstruction(u: SpectralScalar, v: SpectralScalar) -> SpectralScalar:
    return paraproduct(u, v) + paraproduct(v, u) + remainder(u, v)
