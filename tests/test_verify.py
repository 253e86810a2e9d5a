"""verify.run_all's checks and the work it does for them: every suite's
state is drawn once per suite, no state is solved twice, and the full-band
residuals that the pressure-split suite computes on its solved states equal
those of freshly drawn and solved ones."""

import collections

import pytest

from oddflow import verify
from oddflow.dynamics import residual_omega, residual_theta
from oddflow.pressure import solve_pressure
from oddflow.spectral import Grid

CHECKS = [
    ("partition of unity", 1e-12),
    ("Bony reconstruction", 1e-12),
    ("odd-term skew-symmetry (10 states)", 1e-12),
    ("theta residual (half band)", 1e-10),
    ("omega residual (half band)", 1e-10),
    ("theta residual (full band)", 1e-8),
    ("omega residual (full band)", 1e-8),
    ("pressure split (direct vs Phi)", 1e-8),
    ("commutator expansion", 1e-10),
    ("homogeneous odd term: div-free part", 1e-12),
    ("homogeneous odd term: potential = -omega", 1e-12),
    ("odd stress expansion", 1e-12),
    ("bilinear form B, alpha = rho - 1", 1e-12),
    ("bilinear form B, alpha = log rho", 1e-12),
    ("trilinear cubic form", 1e-10),
    ("eta expansion", 1e-12),
    ("vorticity cancellation", 1e-10),
]


def test_check_names_and_bounds():
    results = verify.run_all(n=32)
    assert [(r.name, r.bound) for r in results] == CHECKS
    assert all(r.passed for r in results)


def test_each_state_drawn_per_suite_and_solved_once(monkeypatch):
    draws, solved = [], []
    make_state, solve = verify.make_state, verify.solve_pressure

    def counting_draw(grid, seed, profile="half_band"):
        draws.append((seed, profile))
        return make_state(grid, seed, profile)

    def counting_solve(state, *args, **kwargs):
        solved.append(state)  # kept alive, so no two ids are reused
        return solve(state, *args, **kwargs)

    monkeypatch.setattr(verify, "make_state", counting_draw)
    monkeypatch.setattr(verify, "solve_pressure", counting_solve)
    verify.run_all(n=32, seed=3)
    assert len(draws) == 22 and len(solved) == 10
    assert len({id(st) for st in solved}) == 10
    assert collections.Counter(draws) == collections.Counter(
        [(s, "full_band") for s in range(3, 13)]     # skew
        + [(s, "full_band") for s in range(3, 8)]    # pressure split
        + [(s, "half_band") for s in range(3, 8)]    # residuals
        + [(3, "half_band")] * 2)                    # homogeneous, identities


@pytest.mark.parametrize("n,seed", [(32, 0), (64, 7)])
def test_full_band_residuals_equal_fresh_states(n, seed):
    values = {r.name: r.value for r in verify.run_all(n=n, seed=seed)}
    theta = omega = 0.0
    for i in range(5):
        st = verify.make_state(Grid(n), seed + i, "full_band")
        solve_pressure(st)
        theta = max(theta, residual_theta(st))
        omega = max(omega, residual_omega(st))
    assert values["theta residual (full band)"] == theta
    assert values["omega residual (full band)"] == omega
