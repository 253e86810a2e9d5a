"""Property tests of the two input boundaries: a checkpoint file and a run
config either load or raise ValidationError, and through the CLI they either
succeed or exit 1 with one `error:` line, never a traceback.  `norms` on an
accepted checkpoint prints only finite numbers, or exits 2 with one
`abort:` line when its norms overflow or its density is not positive.  An
accepted config on a small grid is run for a few steps: it ends in exit 0 with a
finite CSV, or in exit 1 or 2 with one `error:` or `abort:` line, beside
any one-line warnings."""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddflow import app_io
from oddflow.cli import cli
from oddflow.dynamics import FlowState
from oddflow.errors import OddflowError, ValidationError
from oddflow.spectral import Grid
from oddflow.stepping import cfl_dt
from oddflow.verify import make_state

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def work_dir():
    with tempfile.TemporaryDirectory() as path:
        yield path


@pytest.fixture(scope="module")
def checkpoint_blob(work_dir):
    path = os.path.join(work_dir, "valid.bin")
    state = make_state(Grid(16), 4, "half_band")
    app_io.write_checkpoint(FlowState(state.t, state.rho_dev, state.u, epsilon=1e-3), path)
    with open(path, "rb") as fh:
        return fh.read()


def cli_output(argv):
    """Exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli(argv)
    return code, out.getvalue(), err.getvalue()


def assert_loads_or_rejects(blob, work_dir):
    """A rejected checkpoint exits 1 with one error line.  An accepted one
    prints a norm table of finite numbers (exit 0), or exits 2 with one
    abort line when its norms are not finite or its density not positive.
    Returns the exit code."""
    path = os.path.join(work_dir, "case.bin")
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        app_io.read_checkpoint(path)
        accepted = True
    except ValidationError:
        accepted = False
    code, out, err = cli_output(["norms", path])
    if not accepted:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    elif code == 0:
        assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE), out
    else:
        assert code == 2 and re.fullmatch(r"abort: .*(not finite|vacuum breach).*\n", err), err
    return code


class TestReadCheckpoint:
    @PROPERTY
    @given(blob=st.binary(max_size=256))
    def test_random_bytes(self, work_dir, blob):
        assert_loads_or_rejects(blob, work_dir)

    @PROPERTY
    @given(data=st.data())
    def test_random_bytes_after_a_valid_header(self, work_dir, checkpoint_blob, data):
        tail = data.draw(st.binary(max_size=len(checkpoint_blob)))
        assert_loads_or_rejects(checkpoint_blob[:38] + tail, work_dir)

    @PROPERTY
    @given(data=st.data())
    def test_truncations(self, work_dir, checkpoint_blob, data):
        cut = data.draw(st.integers(0, len(checkpoint_blob) - 1))
        assert_loads_or_rejects(checkpoint_blob[:cut], work_dir)

    @PROPERTY
    @given(data=st.data())
    def test_single_byte_flips(self, work_dir, checkpoint_blob, data):
        pos = data.draw(st.integers(0, len(checkpoint_blob) - 1))
        mask = data.draw(st.integers(1, 255))
        blob = bytearray(checkpoint_blob)
        blob[pos] ^= mask
        assert_loads_or_rejects(bytes(blob), work_dir)

    @pytest.mark.parametrize("mask,code", [(0x40, 0), (0x7f, 2), (0xc0, 2)])
    def test_flips_of_the_density_mean(self, work_dir, checkpoint_blob, mask, code):
        """Byte 45 is the top byte of the mean of rho - 1, which is 0.0.  The
        flips make it 2.0 (a finite table), 2^1009 (norms that overflow) or
        -2.0 (rho = -1, a vacuum breach); each file is accepted."""
        blob = bytearray(checkpoint_blob)
        blob[45] ^= mask
        assert assert_loads_or_rejects(bytes(blob), work_dir) == code


json_scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=6)
scenario_dicts = st.fixed_dictionaries(
    {"name": st.sampled_from(app_io.SCENARIOS) | json_values},
    optional={"a": json_values | st.floats(0, 1), "band": json_values | st.integers(0, 9),
              "u_amplitude": json_values, "extra": json_values})
config_keys = st.sampled_from(sorted(app_io._TOP_KEYS)) | st.text(max_size=10)
config_dicts = st.dictionaries(
    config_keys,
    json_values | scenario_dicts | st.integers(0, 70) | st.floats(-1, 2),
    max_size=8)
# mostly accepted, on grids small enough to run: smooth and rough densities
# of any contrast, so runs reach both pressure preconditioners
run_scenarios = (
    st.fixed_dictionaries({"name": st.just("steady_shear")})
    | st.fixed_dictionaries({"name": st.just("density_wave"), "a": st.floats(0.01, 0.99)})
    | st.fixed_dictionaries(
        {"name": st.just("random_bandlimited"), "a": st.floats(0.01, 0.99)},
        optional={"band": st.integers(1, 3), "u_amplitude": st.floats(0.1, 10)}))
run_configs = st.fixed_dictionaries(
    {"grid_n": st.sampled_from([8, 16, 24]), "t_end": st.floats(0, 1),
     "scenario": run_scenarios},
    optional={"dt": st.none() | st.floats(1e-4, 1), "epsilon": st.floats(0, 1e-2),
              "odd_sign": st.sampled_from([1.0, -1.0]), "vacuum_floor": st.floats(1e-6, 0.5),
              "observe_every": st.integers(1, 3), "checkpoint_every": st.integers(0, 2),
              "seed": st.integers(0, 2**16), "s": st.floats(1.5, 400)})


RUN_GRID_MAX = 24  # accepted configs with grid_n up to this are run
RUN_STEPS = 3      # for at most this many initial steps


def assert_runs_or_fails(data, work_dir):
    """Run an accepted config for a few steps through the CLI."""
    cfg = app_io.validate_config(data)
    if cfg.grid_n > RUN_GRID_MAX:
        return
    try:
        dt = cfg.dt or cfg.cfl_safety * cfl_dt(app_io.init_scenario(cfg))
    except OddflowError:
        dt = 0.0  # the CLI rejects the initial state before the first step
    out = os.path.join(work_dir, "run")
    data = dict(data, t_end=min(cfg.t_end, RUN_STEPS * dt), output_dir=out)
    path = os.path.join(work_dir, "accepted.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out, "diagnostics.csv"))
    code, _, err = cli_output(["run", "--config", path])
    rest = [ln for ln in err.splitlines() if not ln.startswith("warning: ")]
    if code == 0:
        assert not rest, err
        with open(os.path.join(out, "diagnostics.csv"), encoding="utf-8") as fh:
            rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        assert rows.size and np.all(np.isfinite(rows))
    else:
        prefix = {1: "error: ", 2: "abort: "}[code]
        assert len(rest) == 1 and rest[0].startswith(prefix), err


class TestValidateConfig:
    @PROPERTY
    @given(data=config_dicts | json_values | run_configs)
    def test_random_config(self, work_dir, data):
        try:
            app_io.validate_config(data)
        except ValidationError:
            pass
        else:
            assert_runs_or_fails(data, work_dir)
            return
        path = os.path.join(work_dir, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code, _, err = cli_output(["run", "--config", path])
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err

    @PROPERTY
    @given(scenario=scenario_dicts, grid_n=st.sampled_from([8, 16, 17, 32]),
           t_end=st.floats(0, 1) | json_values)
    def test_random_scenario(self, work_dir, scenario, grid_n, t_end):
        data = {"grid_n": grid_n, "t_end": t_end, "scenario": scenario}
        try:
            app_io.validate_config(data)
        except ValidationError:
            return
        assert_runs_or_fails(data, work_dir)
