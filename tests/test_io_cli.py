import hashlib
import json

import numpy as np
import pytest

from oddflow import app_io
from oddflow.cli import cli
from oddflow.errors import (
    CancellationIdentityError,
    GridMismatchError,
    HermitianSymmetryError,
    MeanModeError,
    OddflowError,
    ValidationError,
)
from oddflow.spectral import (
    Grid,
    SpectralScalar,
    check_real,
    curl,
    inverse_transform,
    max_divergence_ratio,
    sup_norm,
)
from oddflow.stepping import StepperConfig, step
from oddflow.verify import make_state


def minimal_config(**extra):
    data = {"grid_n": 32, "t_end": 0.05, "scenario": {"name": "steady_shear"}}
    data.update(extra)
    return data


def write_json(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = app_io.load_config(write_json(tmp_path, minimal_config()))
        assert cfg.dt is None          # auto-CFL
        assert cfg.epsilon == 0.0
        assert cfg.odd_sign == 1.0
        assert cfg.s == 2.5
        assert cfg.observe_every == 10

    def test_unknown_key_named(self, tmp_path):
        path = write_json(tmp_path, minimal_config(epsilonn=0.1))
        with pytest.raises(ValidationError, match="epsilonn"):
            app_io.load_config(path)

    def test_unknown_scenario_key_named(self, tmp_path):
        data = minimal_config()
        data["scenario"] = {"name": "density_wave", "a": 0.5, "bandd": 3}
        with pytest.raises(ValidationError, match="bandd"):
            app_io.load_config(write_json(tmp_path, data))

    def test_vacuum_amplitude_rejected(self, tmp_path):
        data = minimal_config()
        data["scenario"] = {"name": "density_wave", "a": 1.0}
        with pytest.raises(ValidationError, match="vacuum"):
            app_io.load_config(write_json(tmp_path, data))

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            app_io.load_config("/nonexistent/cfg.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            app_io.load_config(str(path))

    def test_wrong_type(self, tmp_path):
        with pytest.raises(ValidationError, match="grid_n"):
            app_io.load_config(write_json(tmp_path, minimal_config(grid_n="64")))

    def test_band_cap(self, tmp_path):
        data = minimal_config()
        data["scenario"] = {"name": "random_bandlimited", "a": 0.3, "band": 9}
        with pytest.raises(ValidationError, match="band"):
            app_io.load_config(write_json(tmp_path, data))

    @pytest.mark.parametrize("key,value", [
        ("vacuum_floor", -1.0), ("vacuum_floor", 0.0), ("vacuum_floor", 1.0),
        ("s", 0.5), ("s", 1.0),
    ])
    def test_out_of_range_rejected(self, tmp_path, key, value):
        with pytest.raises(ValidationError, match=f"^{key} must"):
            app_io.load_config(write_json(tmp_path, minimal_config(**{key: value})))


class TestScenarios:
    def test_steady_shear_curl(self, tmp_path):
        cfg = app_io.load_config(write_json(tmp_path, minimal_config()))
        st = app_io.init_scenario(cfg)
        from oddflow.spectral import Grid
        g = Grid(32)
        w = curl(st.u)
        assert np.max(np.abs(inverse_transform(w) - np.cos(g.x1))) < 1e-13

    def test_density_wave_min(self, tmp_path):
        data = minimal_config()
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        cfg = app_io.load_config(write_json(tmp_path, data))
        st = app_io.init_scenario(cfg)
        dev = inverse_transform(st.rho_dev)
        assert abs((1 + dev.min()) - 0.5) < 1e-12
        assert max_divergence_ratio(st.u) < 1e-12

    def test_random_scenario_deterministic(self, tmp_path):
        data = minimal_config(seed=41)
        data["scenario"] = {"name": "random_bandlimited", "a": 0.3}
        cfg = app_io.load_config(write_json(tmp_path, data))
        s1 = app_io.init_scenario(cfg)
        s2 = app_io.init_scenario(cfg)
        assert np.array_equal(s1.rho_dev.coeffs, s2.rho_dev.coeffs)
        assert np.array_equal(s1.u.x1.coeffs, s2.u.x1.coeffs)

    def test_random_scenario_band_and_floor(self, tmp_path):
        data = minimal_config(seed=5)
        data["scenario"] = {"name": "random_bandlimited", "a": 0.4, "band": 3}
        cfg = app_io.load_config(write_json(tmp_path, data))
        st = app_io.init_scenario(cfg)
        g = st.grid
        outside = (np.abs(g.k1) > 3) | (np.abs(g.k2) > 3)
        assert np.all(st.rho_dev.coeffs[outside] == 0)
        dev = inverse_transform(st.rho_dev)
        assert 1 + dev.min() >= 1 - 0.4 - 1e-12
        assert abs(np.max(np.abs(dev)) - 0.4) < 1e-12


def _random_scalar_loops(grid, seed, stream, band, sup_amplitude):
    """Reference: random_scalar with the coefficients placed and made
    Hermitian one mode at a time."""
    rng = app_io._stream(seed, stream)
    size = 2 * band + 1
    noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    n = grid.n
    c = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(-band, band + 1)
    for i, k1 in enumerate(idx):
        for j, k2 in enumerate(idx):
            c[k1 % n, k2 % n] = noise[i, j]
    ch = np.zeros_like(c)
    for k1 in idx:
        for k2 in idx:
            ch[k1 % n, k2 % n] = 0.5 * (c[k1 % n, k2 % n] + np.conj(c[-k1 % n, -k2 % n]))
    ch[0, 0] = 0.0
    return ch * (sup_amplitude / sup_norm(SpectralScalar(grid, ch)))


class TestRealFields:
    """Realness is checked only where data enters; the fields the program
    builds itself must satisfy it."""

    @pytest.mark.parametrize("scenario", [
        {"name": "steady_shear"},
        {"name": "density_wave", "a": 0.5},
        {"name": "random_bandlimited", "a": 0.5},
    ])
    def test_scenario_initial_states(self, tmp_path, scenario):
        cfg = app_io.load_config(write_json(tmp_path, minimal_config(scenario=scenario)))
        st = app_io.init_scenario(cfg)
        for f in (st.rho_dev, st.u.x1, st.u.x2):
            check_real(f)

    @pytest.mark.parametrize("profile", ["half_band", "full_band"])
    def test_make_state_profiles(self, grid64, profile):
        st = make_state(grid64, 3, profile)
        for f in (st.rho_dev, st.u.x1, st.u.x2):
            check_real(f)

    def test_density_wave_after_two_steps(self, tmp_path):
        data = minimal_config(scenario={"name": "density_wave", "a": 0.5})
        st = app_io.init_scenario(app_io.load_config(write_json(tmp_path, data)))
        cfg = StepperConfig(dt=0.01, t_end=1.0)
        st = step(step(st, cfg), cfg)
        for f in (st.rho_dev, st.u.x1, st.u.x2):
            check_real(f)

    def test_random_streams_pinned(self):
        g = Grid(64)
        rho = app_io.random_scalar(g, 2026, 2, 4, 1e-3)
        assert hashlib.sha256(rho.coeffs.tobytes()).hexdigest()[:16] == "91eec1b2b65a1508"
        u = app_io.random_divergence_free(g, 2026, 3, 4, 1e-3)
        blob = u.x1.coeffs.tobytes() + u.x2.coeffs.tobytes()
        assert hashlib.sha256(blob).hexdigest()[:16] == "3aa85573395f6a27"
        for n, band, seed in ((16, 2, 0), (32, 1, 5), (64, 8, 7)):
            got = app_io.random_scalar(Grid(n), seed, 1, band, 0.4).coeffs
            assert got.tobytes() == _random_scalar_loops(Grid(n), seed, 1, band, 0.4).tobytes()


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, grid64):
        st = make_state(grid64, 3, "full_band", epsilon=1e-3)
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        back = app_io.read_checkpoint(path)
        assert back.t == st.t
        assert back.epsilon == st.epsilon
        assert back.odd_sign == st.odd_sign
        assert np.array_equal(back.rho_dev.coeffs, st.rho_dev.coeffs)
        assert np.array_equal(back.u.x1.coeffs, st.u.x1.coeffs)
        assert np.array_equal(back.u.x2.coeffs, st.u.x2.coeffs)

    def test_corrupted_magic(self, tmp_path, grid64):
        st = make_state(grid64, 4, "half_band")
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        blob = bytearray(open(path, "rb").read())
        blob[0] = ord("X")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValidationError, match="magic"):
            app_io.read_checkpoint(path)

    def test_unsupported_version(self, tmp_path, grid64):
        st = make_state(grid64, 5, "half_band")
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        blob = bytearray(open(path, "rb").read())
        blob[6] += 1  # version + 1
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValidationError, match="version"):
            app_io.read_checkpoint(path)

    @pytest.mark.parametrize("offset", [14, 38 + 16 * 5])  # t, a coefficient
    def test_non_finite_rejected(self, tmp_path, grid64, offset):
        st = make_state(grid64, 6, "half_band")
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        blob = bytearray(open(path, "rb").read())
        blob[offset:offset + 8] = np.float64(np.nan).tobytes()
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValidationError, match="non-finite"):
            app_io.read_checkpoint(path)

    def test_truncated(self, tmp_path, grid64):
        st = make_state(grid64, 6, "half_band")
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(ValidationError):
            app_io.read_checkpoint(path)


class TestCsv:
    def test_schema_and_17_digits(self):
        from oddflow.diagnostics import DIAGNOSTIC_FIELDS, DiagnosticsRecord
        rec = DiagnosticsRecord(t=1 / 3, kinetic=np.pi, rho_l2=0.0, rho_min=1.0,
                                rho_max=1.0, E=0.0, F=0.0, G=0.0,
                                M_integrand=0.0, Mtilde_integrand=0.0,
                                theta_residual=0.0, omega_residual=0.0,
                                pressure_iterations=3)
        text = app_io.diagnostics_csv([rec], DIAGNOSTIC_FIELDS)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(DIAGNOSTIC_FIELDS)
        cells = lines[1].split(",")
        assert cells[0] == "0.33333333333333331"
        assert cells[1] == "3.1415926535897931"

    def test_dat_alias(self):
        dat = app_io.csv_to_dat("a,b\n1,2\n")
        assert dat == "# a b\n1 2\n"


class TestCli:
    def test_run_and_determinism(self, tmp_path):
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        data = minimal_config(observe_every=2, seed=9)
        data["scenario"] = {"name": "random_bandlimited", "a": 0.3}
        p1 = write_json(tmp_path, dict(data, output_dir=str(out1)), "c1.json")
        p2 = write_json(tmp_path, dict(data, output_dir=str(out2)), "c2.json")
        assert cli(["run", "--config", p1]) == 0
        assert cli(["run", "--config", p2]) == 0
        csv1 = (out1 / "diagnostics.csv").read_bytes()
        csv2 = (out2 / "diagnostics.csv").read_bytes()
        assert csv1 == csv2
        ck1 = (out1 / "checkpoint_final.bin").read_bytes()
        ck2 = (out2 / "checkpoint_final.bin").read_bytes()
        assert ck1 == ck2

    def test_run_steady_kinetic_constant(self, tmp_path):
        out = tmp_path / "out"
        data = minimal_config(observe_every=1, t_end=0.2)
        data["output_dir"] = str(out)
        path = write_json(tmp_path, data)
        assert cli(["run", "--config", path, "--emit-dat"]) == 0
        rows = (out / "diagnostics.csv").read_text().strip().split("\n")[1:]
        kin = [float(r.split(",")[1]) for r in rows]
        assert all(abs(k - kin[0]) / kin[0] <= 1e-8 for k in kin)
        assert (out / "diagnostics.dat").exists()

    def test_exit_code_validation_error(self, tmp_path):
        assert cli(["run", "--config", str(tmp_path / "missing.json")]) == 1

    def test_exit_code_runtime_abort(self, tmp_path):
        data = minimal_config(vacuum_floor=0.9)
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        path = write_json(tmp_path, data)
        assert cli(["run", "--config", path]) == 2

    def test_verify_exit_zero(self):
        assert cli(["verify", "--seed", "7", "--n", "32"]) == 0

    def test_norms_subcommand(self, tmp_path, grid64, capsys):
        st = make_state(grid64, 8, "half_band")
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        assert cli(["norms", path, "--s", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "rho-1" in out and "theta" in out

    def _assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_norms_nan_checkpoint(self, tmp_path, grid64, capsys):
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(make_state(grid64, 8, "half_band"), path)
        blob = bytearray(open(path, "rb").read())
        blob[-8:] = np.float64(np.nan).tobytes()
        open(path, "wb").write(bytes(blob))
        assert cli(["norms", path]) == 1
        self._assert_one_line_error(capsys)

    def test_norms_broken_symmetry_checkpoint(self, tmp_path, grid64, capsys):
        st = make_state(grid64, 8, "half_band")
        st.rho_dev.coeffs[2, 1] += 0.1  # no matching change at (-2, -1)
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        assert cli(["norms", path]) == 1
        self._assert_one_line_error(capsys)

    def test_norms_missing_checkpoint(self, tmp_path, capsys):
        assert cli(["norms", str(tmp_path / "missing.bin")]) == 1
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("exc,code", [
        (HermitianSymmetryError, 1), (GridMismatchError, 1), (MeanModeError, 1),
        (CancellationIdentityError, 2), (OddflowError, 2),
    ])
    def test_package_errors_end_in_one_line(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc("injected failure")
        monkeypatch.setattr("oddflow.cli.cmd_verify", fail)
        assert cli(["verify"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "injected failure" in err, err

    def test_twin_subcommand(self, tmp_path):
        out = tmp_path / "out"
        data = minimal_config(t_end=0.02, dt=0.01)
        data["output_dir"] = str(out)
        path = write_json(tmp_path, data)
        assert cli(["twin", "--config", path, "--amplitude", "1e-3"]) == 0
        assert (out / "twin.csv").exists()

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "out"
        data = minimal_config(t_end=0.02, dt=0.01)
        data["output_dir"] = str(out)
        path = write_json(tmp_path, data)
        assert cli(["sweep-eps", "--config", path, "--eps", "1e-2,1e-3"]) == 0
        text = (out / "sweep_eps.csv").read_text()
        assert text.startswith("eps_high,eps_low")
