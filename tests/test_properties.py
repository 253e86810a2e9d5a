"""Property tests of the two input boundaries: a checkpoint file and a run
config either load or raise ValidationError, and through the CLI they either
succeed or exit 1 with one `error:` line, never a traceback."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oddflow import app_io
from oddflow.cli import cli
from oddflow.errors import ValidationError
from oddflow.spectral import Grid
from oddflow.verify import make_state

PROPERTY = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def work_dir():
    with tempfile.TemporaryDirectory() as path:
        yield path


@pytest.fixture(scope="module")
def checkpoint_blob(work_dir):
    path = os.path.join(work_dir, "valid.bin")
    app_io.write_checkpoint(make_state(Grid(16), 4, "half_band", epsilon=1e-3), path)
    with open(path, "rb") as fh:
        return fh.read()


def cli_quiet(argv):
    """Exit code and stderr of one CLI call, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli(argv)
    return code, err.getvalue()


def assert_loads_or_rejects(blob, work_dir):
    path = os.path.join(work_dir, "case.bin")
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        app_io.read_checkpoint(path)
        accepted = True
    except ValidationError:
        accepted = False
    code, err = cli_quiet(["norms", path])
    if accepted:
        assert code == 0, err
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err


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


class TestValidateConfig:
    @PROPERTY
    @given(data=config_dicts | json_values)
    def test_random_config(self, work_dir, data):
        try:
            app_io.validate_config(data)
            return  # accepted: running it is not part of this property
        except ValidationError:
            pass
        path = os.path.join(work_dir, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code, err = cli_quiet(["run", "--config", path])
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err

    @PROPERTY
    @given(scenario=scenario_dicts, grid_n=st.sampled_from([8, 16, 17, 32]),
           t_end=st.floats(0, 1) | json_values)
    def test_random_scenario(self, scenario, grid_n, t_end):
        data = {"grid_n": grid_n, "t_end": t_end, "scenario": scenario}
        try:
            app_io.validate_config(data)
        except ValidationError:
            pass
