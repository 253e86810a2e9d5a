import gc
import re
import weakref

import numpy as np
import pytest

from oddflow import dynamics, fft, pressure, stepping
from oddflow.app_io import RunConfig, init_scenario
from oddflow.diagnostics import observe
from oddflow.dynamics import FlowState
from oddflow.errors import RuntimeAbort
from oddflow.pressure import solve_pressure
from oddflow.spectral import (
    Grid,
    SpectralVector,
    l2_norm,
    zero_scalar,
)
from oddflow.stepping import StageGuess, StepperConfig, cfl_dt, linear_factor, run, step
from oddflow.verify import make_state

from conftest import coordinates, forward_transform, max_divergence_ratio, shear_state_fields


def history_arrays(state: FlowState) -> list:
    """The band-column arrays of a state's pressure guess and history: the
    rate and each stage's pending base and difference table.  The guess
    is stage 1's base itself after a step from a state without one, and
    the deepest entry of stage 1's table once that table is full."""
    past = state.pressure_history
    if past is None:
        return []
    return [state.pressure_guess, past.rate,
            *(a for s in past.stages for a in (s.base, *s.table) if a is not None)]


def shear(grid, eps=0.0):
    rho, u = shear_state_fields(grid)
    return FlowState(0.0, rho, u, epsilon=eps)


class TestLinearFactor:
    def test_eps_zero(self):
        ks = np.array([0.0, 1.0, 4.0, 100.0])
        assert np.all(linear_factor(ks, 0.5, 0.0) == 1.0)

    def test_unit_mode(self):
        val = linear_factor(np.array([1.0]), 1.0, 0.1)[0]
        assert abs(val - np.exp(-0.1)) < 1e-15

    def test_origin(self):
        assert linear_factor(np.array([0.0]), 2.0, 3.0)[0] == 1.0


class TestCfl:
    def test_rest_state_capped(self, grid64):
        st = FlowState(0.0, zero_scalar(grid64),
                       SpectralVector(zero_scalar(grid64), zero_scalar(grid64)))
        assert cfl_dt(st) == 1e6

    def test_unit_shear_bound(self):
        from oddflow.spectral import Grid
        g = Grid(128)
        st = shear(g)
        assert abs(cfl_dt(st) - 1.0 / 64.0) < 1e-12

    def test_halves_with_doubling_n(self):
        from oddflow.spectral import Grid
        vals = {}
        for n in (64, 128):
            vals[n] = cfl_dt(shear(Grid(n)))
        assert abs(vals[64] / vals[128] - 2.0) < 1e-12

    def test_stiff_bound(self, grid64):
        st = make_state(grid64, 1, "half_band")
        st = FlowState(st.t, st.rho_dev, st.u, epsilon=0.1)
        bound = cfl_dt(st)
        assert 0 < bound < 1e6


class TestStep:
    def test_steady_shear_unchanged(self, grid64):
        st = shear(grid64)
        cfg = StepperConfig(dt=0.01, t_end=1.0)
        out = step(st, cfg)
        assert l2_norm(out.u - st.u) <= 1e-10
        assert l2_norm(out.rho_dev) <= 1e-13
        assert out.t == 0.01

    def test_exact_hyperviscous_decay(self, grid64):
        st = shear(grid64, eps=0.1)
        cfg = StepperConfig(dt=0.01, t_end=1.0)
        out = step(st, cfg)
        amp = -2.0 * np.imag(out.u.x2.coeffs[1, 0])
        assert abs(amp - np.exp(-0.001)) <= 1e-9

    def test_rest_state(self, grid64):
        x2 = coordinates(grid64)[1]
        rho = forward_transform(grid64, 0.2 * np.cos(x2))
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid64),
                                                zero_scalar(grid64)))
        out = step(st, StepperConfig(dt=0.01, t_end=1.0))
        assert l2_norm(out.rho_dev - st.rho_dev) < 1e-14
        assert l2_norm(out.u) < 1e-14

    def test_means_preserved(self, grid64):
        st = make_state(grid64, 2, "half_band")
        out = step(st, StepperConfig(dt=0.005, t_end=1.0))
        assert out.rho_dev.coeffs[0, 0] == st.rho_dev.coeffs[0, 0]
        # for rho = 1 the velocity mean is exactly conserved as well
        st_h = FlowState(0.0, zero_scalar(grid64), st.u)
        out_h = step(st_h, StepperConfig(dt=0.005, t_end=1.0))
        assert abs(out_h.u.x1.coeffs[0, 0]) < 1e-16
        assert abs(out_h.u.x2.coeffs[0, 0]) < 1e-16

    def test_total_momentum_conserved(self, grid64):
        """The conserved linear quantity for variable density is the
        integral of rho*u (the plain mean of u moves with the flow)."""
        def momentum(s):
            fl = s.fields
            u1, u2 = fl.u_phys
            h2 = (2 * np.pi / s.grid.n) ** 2
            return (np.sum(fl.rho_phys * u1) * h2, np.sum(fl.rho_phys * u2) * h2)

        st = make_state(grid64, 12, "half_band")
        m0 = momentum(st)
        out = run(st, StepperConfig(dt=0.005, t_end=0.05))
        m1 = momentum(out)
        assert abs(m1[0] - m0[0]) < 1e-10 and abs(m1[1] - m0[1]) < 1e-10

    def test_divergence_free_output(self, grid64):
        st = make_state(grid64, 3, "half_band")
        out = step(st, StepperConfig(dt=0.005, t_end=1.0))
        assert max_divergence_ratio(out.u) < 1e-12

    def test_cache_read_by_observers_same_bits(self, grid32):
        """A state whose cache and pressure solution observe already built
        steps to the same bits as a fresh state with the same fields, and
        the step frees both after stage 1."""
        st = make_state(grid32, 5, "half_band")
        fresh = FlowState(st.t, st.rho_dev, st.u, st.epsilon, st.odd_sign)
        observe(st, 2.5)
        assert st._fields is not None and fresh._fields is None
        assert st.solved and not fresh.solved
        cfg = StepperConfig()
        shared = step(st, cfg, dt=1e-3)
        own = step(fresh, cfg, dt=1e-3)
        for a, b in ((shared.rho_dev, own.rho_dev), (shared.u.x1, own.u.x1),
                     (shared.u.x2, own.u.x2)):
            assert np.array_equal(a.coeffs, b.coeffs)
        for s in (st, fresh):
            assert s._fields is None and not s.solved

    def test_state_freed_without_cyclic_gc(self, grid32):
        """A state and its cache form no reference cycle: with the cyclic
        collector off, dropping the last reference frees the state."""
        st = make_state(grid32, 5, "half_band")
        st.fields.inv_rho_phys
        ref = weakref.ref(st)
        gc.disable()
        try:
            del st
            assert ref() is None
        finally:
            gc.enable()

    def test_step_keeps_no_stage_state(self, grid32, monkeypatch):
        """step holds only band-column arrays between stages: when a stage
        solves, the input state and that stage's state are the only states
        alive, that stage's Fields the only cache, and no PressureSolution
        survives.  After step only the new state is alive; it carries its
        pressure history, and the input state keeps no cache, solution or
        history.  step takes over the input's history arrays: of the new
        state's, all but stage 1's base (the last stage's potential) are
        arrays the input held once the input's history is full, and none of
        the input's others survives, so no second history is ever kept."""
        made = {"state": [], "fields": [], "solution": []}

        def recorded(cls, kind):
            class Recorded(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    made[kind].append(weakref.ref(self))
            return Recorded

        def alive(kind):
            return [r() for r in made[kind] if r() is not None]

        def checked_solve(state, **kwargs):
            assert alive("state") == [state] or alive("state") == []  # stage 1
            assert [f for f in alive("fields") if f is not state._fields] == []
            assert alive("solution") == []
            return solve_pressure(state, **kwargs)

        full = int(re.search(r"(\d+) band-column arrays",
                             " ".join(FlowState.__doc__.split())).group(1))
        monkeypatch.setattr(stepping, "FlowState", recorded(FlowState, "state"))
        monkeypatch.setattr(dynamics, "Fields", recorded(dynamics.Fields, "fields"))
        monkeypatch.setattr(pressure, "PressureSolution",
                            recorded(pressure.PressureSolution, "solution"))
        monkeypatch.setattr(stepping, "solve_pressure", checked_solve)
        st = make_state(grid32, 5, "half_band")
        cfg = StepperConfig(dt=1e-3)
        gc.disable()
        try:
            for k in range(8):  # the history is full from the sixth step on
                for kind in made:
                    made[kind].clear()
                held = [weakref.ref(a) for a in history_arrays(st)]
                out = step(st, cfg)
                assert len(made["state"]) == 4 and alive("state") == [out]
                assert alive("fields") == [out._fields] and alive("solution") == []
                arrays = history_arrays(out)
                assert all(a.shape == (32, 32 // 3 + 1) for a in arrays)
                assert len({id(a) for a in arrays}) == (4, 9, 13, 17, 21, full, full, full)[k]
                survivors = {id(r()) for r in held if r() is not None}
                assert survivors <= {id(a) for a in arrays}
                if k >= 6:
                    base = out.pressure_history.stages[0].base
                    assert {id(a) for a in arrays if a is not base} == survivors
                assert st._fields is None and not st.solved
                assert st.pressure_guess is None and st.pressure_history is None
                st = out
                arrays = base = None  # the next step frees this state's P4
        finally:
            gc.enable()

    def test_trajectory_independent_of_observers(self, grid32):
        """An observer that solves every state (observe_every = 1) gives the
        final state an unobserved run gives, bit for bit."""
        cfg = StepperConfig(dt=None, t_end=0.05)
        states = [init_scenario(RunConfig(grid_n=32, t_end=0.0, scenario={
            "name": "density_wave", "a": 0.5})) for _ in range(2)]
        rows = []
        observed = run(states[0], cfg, observers=[lambda s, i: rows.append(observe(s, 2.5))])
        plain = run(states[1], cfg)
        assert len(rows) > 3 and rows[1].pressure_iterations < rows[0].pressure_iterations
        for a, b in ((observed.rho_dev, plain.rho_dev), (observed.u.x1, plain.u.x1),
                     (observed.u.x2, plain.u.x2)):
            assert np.array_equal(a.coeffs, b.coeffs)
        for a, b in zip(history_arrays(observed), history_arrays(plain), strict=True):
            assert np.array_equal(a, b)

    def test_stage_guesses_cut_iterations(self):
        """The criterion-1 flow at n = 64 to t = 0.1 (9 automatic steps)
        makes at most 125 stepping CG iterations: 192 from first-order
        guesses, about 110 from second-order ones and 99 from third-order
        ones.  The bound leaves
        room for the host's BLAS reductions to move a count.  Stages 2-4
        apply the preconditioner stage 1 chose, without choosing again."""
        iterations, named = [], []

        def counted(state, **kwargs):
            solution = solve_pressure(state, **kwargs)
            iterations.append(solution.iterations)
            named.append((state.preconditioner, solution.preconditioner))
            return solution

        st = init_scenario(RunConfig(grid_n=64, t_end=0.0, scenario={
            "name": "density_wave", "a": 0.5}))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stepping, "solve_pressure", counted)
            run(st, StepperConfig(dt=None, t_end=0.1))
        assert len(iterations) == 4 * 9
        assert sum(iterations) <= 125
        for k in range(0, len(named), 4):
            assert named[k] == (None, "concus_golub")
            assert named[k + 1:k + 4] == [("concus_golub", "concus_golub")] * 3

    def test_stage_depths_cut_observed_iterations(self, monkeypatch):
        """The observe_n64 benchmark's run (random_bandlimited, a = 0.5,
        n = 64, dt = 2e-3, seed 3, 20 steps, every state observed) makes at
        most 330 CG iterations over all its solves: 405 with every stage
        at the quadratic depth, 294 with each stage's depth chosen from
        its scores."""
        from oddflow import diagnostics

        iterations = []

        def counted(state, **kwargs):
            solution = solve_pressure(state, **kwargs)
            iterations.append(solution.iterations)
            return solution

        monkeypatch.setattr(stepping, "solve_pressure", counted)
        monkeypatch.setattr(diagnostics, "solve_pressure", counted)
        st = init_scenario(RunConfig(grid_n=64, t_end=0.0, seed=3, scenario={
            "name": "random_bandlimited", "a": 0.5}))
        run(st, StepperConfig(dt=2e-3, t_end=0.04),
            observers=[lambda s, i: observe(s, 2.5)])
        assert len(iterations) == 21 + 3 * 20
        assert sum(iterations) <= 330

    def test_preconditioner_rule_once_per_step(self, monkeypatch):
        """A stage-1 solve whose guess meets the tolerance applies no
        preconditioner; the stages after it take the name from the first
        solve that applied one, so the rule (the contrast and sup|q|
        tests) runs at most once per step."""
        rules, first = [], []
        chooser = pressure._preconditioner

        def recorded(a_phys, a_star, grid, ws, name=None):
            rules[-1] += name is None
            return chooser(a_phys, a_star, grid, ws, name)

        def solve(state, **kwargs):
            solution = solve_pressure(state, **kwargs)
            if state.preconditioner is None:
                first.append(solution.iterations)
            return solution

        monkeypatch.setattr(pressure, "_preconditioner", recorded)
        monkeypatch.setattr(stepping, "solve_pressure", solve)
        st = init_scenario(RunConfig(grid_n=32, t_end=0.0, scenario={
            "name": "density_wave", "a": 0.5}))
        for _ in range(6):
            rules.append(0)
            st = step(st, StepperConfig(dt=2e-3))
        assert 0 in first  # a stage 1 took no iteration
        assert all(count <= 1 for count in rules)

    @pytest.mark.parametrize("factor", [10.0, 0.1])
    def test_guess_survives_a_step_size_change(self, grid32, factor):
        """A history made by steps of size h' still converges when the next
        step is 10 h' or h'/10 (a clipped last step), to within 1e-10 of a
        step from the same state with the history dropped; a dropped
        history starts cold, with the bits of a state never stepped."""
        h_prev = 2e-3
        cfg = StepperConfig(dt=h_prev)

        def stepped_thrice():
            st = init_scenario(RunConfig(grid_n=32, t_end=0.0, scenario={
                "name": "density_wave", "a": 0.5}))
            for _ in range(3):
                st = step(st, cfg)
            return st

        warm, dropped = stepped_thrice(), stepped_thrice()
        dropped.drop_cache()
        assert dropped.pressure_guess is None and dropped.pressure_history is None
        fresh = FlowState(dropped.t, dropped.rho_dev, dropped.u)
        h = factor * h_prev
        a, b, c = (step(s, cfg, h) for s in (warm, dropped, fresh))
        for x, y, z in ((a.rho_dev, b.rho_dev, c.rho_dev), (a.u.x1, b.u.x1, c.u.x1),
                        (a.u.x2, b.u.x2, c.u.x2)):
            assert l2_norm(x - y) <= 1e-10 * l2_norm(y)
            assert np.array_equal(y.coeffs, z.coeffs)
        for x, y in zip(history_arrays(b), history_arrays(c), strict=True):
            assert np.array_equal(x, y)

    def test_cfl_warning(self, grid64):
        # one run step of a fixed dt above the CFL bound (1/32 here)
        st = shear(grid64)
        with pytest.warns(RuntimeWarning):
            run(st, StepperConfig(dt=0.5, t_end=0.5))

    def test_vacuum_abort(self, grid64):
        # initial minimum below the configured floor aborts with a diagnostic
        x1, x2 = coordinates(grid64)
        rho = forward_transform(grid64, 0.9 * np.cos(x1) * np.cos(x2))
        st0 = make_state(grid64, 4, "half_band")
        st = FlowState(0.0, rho, st0.u)
        cfg = StepperConfig(dt=0.01, t_end=1.0, vacuum_floor=0.2)
        with pytest.raises(RuntimeAbort) as exc_info:
            s = st
            for _ in range(40):
                s = step(s, cfg)
        assert "min rho" in str(exc_info.value)


    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0])
    def test_step_rejects_bad_dt(self, grid32, dt):
        with pytest.raises(ValueError, match="positive finite dt"):
            step(shear(grid32), StepperConfig(), dt)


def band_weight(shape):
    """|k|^4 on the first m columns of an n-row half-spectrum, shape (n, m)."""
    n, m = shape
    k1 = (np.arange(n) + n // 2) % n - n // 2
    return ((k1[:, None] ** 2 + np.arange(m) ** 2) ** 2).astype(np.float64)


class TestStageGuess:
    """The difference table on a zero base with h = 0.5, so h^2 and the
    small-integer coefficients below are held exactly."""

    h_sq = 0.5 * 0.5
    offsets = np.arange(8.0).reshape(2, 4) * (1 + 2j)  # a different value per entry

    @pytest.mark.parametrize("degree, coefficient", [
        (4, lambda k: k ** 4 - 2 * k ** 3 + 3 * k - 4),
        (3, lambda k: k ** 3 - 4 * k * k + 2),
        (2, lambda k: 2 * k * k - 3 * k + 1),
        (1, lambda k: 5 - 3 * k),
        (0, lambda k: 7 + 0 * k),
    ], ids=["quartic", "cubic", "quadratic", "linear", "constant"])
    def test_guess_is_the_next_coefficient(self, degree, coefficient):
        """On a polynomial sequence of coefficients the chosen depth
        reaches degree + 1 and stays there, and from the first guess that
        deep on, every guess is the next coefficient times h^2, bit for
        bit, as the table fills and then overwrites its deepest entry."""
        base = np.zeros((2, 4), dtype=complex)
        stage = StageGuess(band_weight(base.shape))
        exact = False
        for k in range(16):
            c = coefficient(k + self.offsets)
            exact = exact or stage.depth >= degree + 1
            guess = stage.guess(base, self.h_sq)
            if exact:
                assert np.array_equal(guess, self.h_sq * c), k
            stage.record(base + self.h_sq * c)
            assert np.array_equal(stage.table[0], c) and stage.base is None
        assert stage.depth == degree + 1

    def test_table_holds_the_errors_of_every_depth(self):
        """Entry j of the table after a record is the new coefficient less
        the depth-j guess's sum over the old table."""
        base = np.zeros((2, 4), dtype=complex)
        stage = StageGuess(band_weight(base.shape))
        for k in range(7):
            kept = [entry.copy() for entry in stage.table]  # guess overwrites one
            c = (k * k * k + 3) * self.offsets
            stage.guess(base, self.h_sq)
            stage.record(base + self.h_sq * c)
            for j, entry in enumerate(stage.table):
                assert np.array_equal(entry, c - sum(kept[:j], np.zeros_like(c))), (k, j)

    def test_noise_settles_at_depth_1(self):
        """A slowly varying sequence under white noise of a larger size
        scores the constant guess best: deeper guesses carry the noise
        with gains sqrt(5), sqrt(19), ..."""
        rng = np.random.default_rng(7)
        shape = (16, 6)
        smooth = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        base = np.zeros(shape, dtype=complex)
        stage = StageGuess(band_weight(shape))
        depths = []
        for k in range(40):
            noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            stage.guess(base, self.h_sq)
            stage.record(base + self.h_sq * (smooth * (1 + 1e-3 * k) + 0.1 * noise))
            depths.append(stage.depth)
        assert depths[10:] == [1] * 30

    def test_weight_is_the_grids(self):
        """step builds the score weight once per history, |k|^4 from the
        Grid's exact k_sq on the band columns, and hands it to all four
        stages, also at n = 98, where fftfreq(n, 1/n) is not integral."""
        grid = Grid(98)
        cfg = StepperConfig(dt=1e-3, t_end=1.0)
        first = step(make_state(grid, 1, "half_band"), cfg)
        weight = first.pressure_history.stages[0].weight
        assert np.array_equal(weight, grid.k_sq[:, :grid.dealias_cutoff + 1] ** 2)
        assert all(s.weight is weight for s in first.pressure_history.stages)
        second = step(first, cfg)
        assert all(s.weight is weight for s in second.pressure_history.stages)

    def test_full_ring_records_into_the_guess(self):
        """With a full table, guess overwrites the deepest entry and record
        writes the new coefficient into that same array: the table's
        arrays are reused, none is allocated."""
        base = np.zeros((2, 4), dtype=complex)
        stage = StageGuess(band_weight(base.shape))
        for k in range(8):
            stage.guess(base, self.h_sq)
            stage.record(base + self.h_sq * (k * k + self.offsets))
        kept = list(stage.table)
        assert len(kept) == 5
        guess = stage.guess(base, self.h_sq)
        assert guess is kept[-1]
        stage.record(base + self.h_sq * (64 + self.offsets))
        assert stage.table[0] is guess
        assert {id(a) for a in stage.table} == {id(a) for a in kept}
        assert np.array_equal(guess, 64 + self.offsets)


class TestStepperConfig:
    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            StepperConfig(dt=dt)

    @pytest.mark.parametrize("t_end", [np.nan, np.inf, -1.0])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end must be finite"):
            StepperConfig(t_end=t_end)


    @pytest.mark.parametrize("floor", [np.nan, 2.0, -1.0, 0.0, 1.0])
    def test_rejects_bad_vacuum_floor(self, floor):
        with pytest.raises(ValueError, match="vacuum_floor must lie in"):
            StepperConfig(vacuum_floor=floor)


class TestRun:
    def test_one_step_run_matches_step(self, grid64):
        """run integrates the state's own epsilon: one run step is step's bits."""
        st = make_state(grid64, 3, "half_band")
        st = FlowState(st.t, st.rho_dev, st.u, epsilon=0.1)
        h = 0.01
        cfg = StepperConfig(dt=h, t_end=h)
        with pytest.warns(RuntimeWarning, match="exceeds the stability estimate"):
            ran = run(st, cfg)  # the stiff bound is 7.7e-5
        stepped = step(st, cfg, h)
        assert ran.epsilon == 0.1
        for a, b in ((ran.rho_dev, stepped.rho_dev), (ran.u.x1, stepped.u.x1),
                     (ran.u.x2, stepped.u.x2)):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_t_end_zero_returns_initial(self, grid64):
        st = shear(grid64)
        out = run(st, StepperConfig(dt=0.01, t_end=0.0))
        assert out is st

    def test_steady_to_t1(self, grid64):
        st = shear(grid64)
        out = run(st, StepperConfig(dt=None, t_end=1.0))
        assert abs(out.t - 1.0) < 1e-12
        assert l2_norm(out.u - st.u) <= 1e-8

    def test_observer_cadence(self, grid64):
        st = shear(grid64)
        seen = []
        run(st, StepperConfig(dt=0.02, t_end=0.1),
            observers=[lambda s, i: seen.append((i, s.t))])
        assert seen[0] == (0, 0.0)
        assert len(seen) == 6
        assert abs(seen[-1][1] - 0.1) < 1e-12

    def test_one_fields_per_stage(self, grid32, fields_built):
        """One Fields per state: the initial state's, then 4 per step (stages
        2-4 and the new state, which the next cfl_dt and stage 1 read)."""
        st = make_state(grid32, 5, "half_band")
        fields_built[0] = 0
        seen = []
        run(st, StepperConfig(dt=None, t_end=0.05),
            observers=[lambda s, i: seen.append(i)])
        steps = len(seen) - 1
        assert steps > 1 and fields_built[0] == 1 + 4 * steps

    def test_energy_drift_small(self, grid64):
        from oddflow.diagnostics import kinetic_energy
        st = make_state(grid64, 5, "half_band")
        k0 = kinetic_energy(st)
        out = run(st, StepperConfig(dt=None, t_end=0.25))
        assert abs(kinetic_energy(out) - k0) / k0 <= 1e-8


class TestRunWorkspace:
    """A run holds one fft.Workspace through its loop and frees it
    when the loop ends, normally or by an abort."""

    @pytest.fixture
    def made(self, monkeypatch):
        """Weak references to every fft.Workspace built."""
        refs = []

        class Recorded(fft.Workspace):
            def __init__(self, n):
                super().__init__(n)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(fft, "Workspace", Recorded)
        return refs

    def test_one_workspace_per_run(self, grid32, made):
        """Every stage solve and every observer solve of a 3-step run share
        one workspace, which is gone when run returns."""
        rows = []
        run(make_state(grid32, 5, "half_band"), StepperConfig(dt=1e-3, t_end=3e-3),
            observers=[lambda s, i: rows.append(observe(s, 2.5))])
        assert len(rows) == 4 and len(made) == 1
        assert made[0]() is None and fft._held.workspaces == {}

    @pytest.mark.parametrize("where", ["step", "observer"])
    def test_freed_after_an_abort(self, made, where):
        """A vacuum breach in a step's first stage (min rho is 0.5) or an
        observer's abort after two steps ends the run with no workspace
        left."""
        st = init_scenario(RunConfig(grid_n=32, t_end=0.0, scenario={
            "name": "density_wave", "a": 0.5}))

        def observer(s, i):
            observe(s, 2.5)
            if where == "observer" and i == 2:
                raise RuntimeAbort("observer abort")

        cfg = StepperConfig(dt=1e-3, t_end=1e-2, vacuum_floor=0.6 if where == "step" else 1e-6)
        with pytest.raises(RuntimeAbort, match="min rho" if where == "step" else "observer"):
            run(st, cfg, observers=[observer])
        assert len(made) == 1 and made[0]() is None and fft._held.workspaces == {}


class TestTemporalOrder:
    def test_fourth_order_refinement(self, grid32):
        """||u(T; dt) - u(T; dt/2)|| falls ~16x per halving for eps = 0."""
        st = make_state(grid32, 6, "half_band")
        T = 0.2
        finals = {}
        for m in (1, 2, 4):
            dt = 0.04 / m
            cfg = StepperConfig(dt=dt, t_end=T)
            finals[m] = run(st, cfg)
        e1 = l2_norm(finals[1].u - finals[2].u)
        e2 = l2_norm(finals[2].u - finals[4].u)
        ratio = e1 / e2
        assert 16 * 0.75 <= ratio <= 16 * 1.25


class TestHomogeneousReduction:
    def test_matches_euler_integrator(self, grid64):
        """rho = 1: the odd system and the Euler system (odd_sign 0) coincide."""
        u = make_state(grid64, 7, "half_band").u
        cfg = StepperConfig(dt=0.01, t_end=0.2)
        out_odd = run(FlowState(0.0, zero_scalar(grid64), u), cfg)
        out_eul = run(FlowState(0.0, zero_scalar(grid64), u, odd_sign=0), cfg)
        assert l2_norm(out_odd.u - out_eul.u) <= 1e-8
