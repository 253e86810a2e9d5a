import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import oddflow
from oddflow import app_io, fft
from oddflow.cli import cli
from oddflow.dynamics import FlowState
from oddflow.errors import (
    GridMismatchError,
    HermitianSymmetryError,
    MeanModeError,
    OddflowError,
    ValidationError,
)
from oddflow.spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    check_real,
    curl,
    expand,
    inverse_transform,
    zero_scalar,
)
from oddflow.stepping import StepperConfig, step
from oddflow.verify import make_state

from conftest import coordinates, forward_transform, max_divergence_ratio


def minimal_config(**extra):
    data = {"grid_n": 32, "t_end": 0.05, "scenario": {"name": "steady_shear"}}
    data.update(extra)
    return data


def cli_process(argv, **env):
    """Exit code and stderr of `oddflow argv` in a fresh interpreter, where
    warnings reach stderr as they do for a user; env sets environment
    variables, and a None value unsets one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oddflow.__file__)))
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=src, **env).items() if v is not None}
    proc = subprocess.run([sys.executable, "-c", "from oddflow.cli import main; main()", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stderr


# verify's suites draw seed..seed+9, and each must fit a 64-bit Philox key
SEED_RULE = "--seed must lie in [0, 2**64 - 10] (the suites draw seed..seed+9)"


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
        ("s", 0.5), ("s", 1.0), ("odd_sign", 0),
    ])
    def test_out_of_range_rejected(self, tmp_path, key, value):
        with pytest.raises(ValidationError, match=f"^{key} must"):
            app_io.load_config(write_json(tmp_path, minimal_config(**{key: value})))

    @pytest.mark.parametrize("key,value", [
        ("t_end", float("nan")), ("t_end", float("inf")),
        ("dt", float("nan")), ("dt", float("inf")),
        ("epsilon", float("nan")), ("epsilon", float("inf")),
        ("u_amplitude", float("nan")), ("u_amplitude", float("inf")),
    ])
    def test_non_finite_number_rejected(self, tmp_path, key, value):
        data = minimal_config()
        if key == "u_amplitude":
            data["scenario"] = {"name": "random_bandlimited", "a": 0.3, key: value}
        else:
            data[key] = value
        with pytest.raises(ValidationError, match=f"{key}' must be finite"):
            app_io.load_config(write_json(tmp_path, data))


class TestScenarios:
    def test_steady_shear_curl(self, tmp_path):
        cfg = app_io.load_config(write_json(tmp_path, minimal_config()))
        st = app_io.init_scenario(cfg)
        w = curl(st.u)
        x1 = coordinates(st.grid)[0]
        assert np.max(np.abs(inverse_transform(w) - np.cos(x1))) < 1e-13

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
    Hermitian one mode at a time (full spectrum)."""
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
    return ch * (sup_amplitude / np.max(np.abs(check_real(ch))))


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

    @pytest.mark.parametrize("n, band", [(98, 6), (196, 13)])
    def test_band_edge_modes_drawn(self, n, band):
        """random_band_scalar draws every mode with |k|_inf <= band, the
        8 * band modes of the edge |k|_inf = band among them, also where
        fftfreq(n, 1/n) is not integral; the bands are make_state's
        half_band density at these n."""
        grid = Grid(n)
        full = expand(app_io.random_band_scalar(grid, 0, 0, band, power=4.0).coeffs)
        k = np.abs(grid.k1[:, 0])
        k_inf = np.maximum(k[:, None], k[None, :])
        assert np.count_nonzero(full[k_inf == band]) == 8 * band
        assert not full[k_inf > band].any()

    def test_random_streams_pinned(self):
        g = Grid(64)
        # hashes of the full spectra with -0 written as +0: the sign of a zero
        # coefficient follows the arithmetic that produced it, and the parent's
        # full-spectrum biot_savart left one -0 in u2 that expand writes as +0
        def digest(*fields):
            blob = b"".join((expand(f.coeffs) + 0.0).tobytes() for f in fields)
            return hashlib.sha256(blob).hexdigest()[:16]

        assert digest(app_io.random_scalar(g, 2026, 2, 4, 1e-3)) == "91eec1b2b65a1508"
        u = app_io.random_divergence_free(g, 2026, 3, 4, 1e-3)
        assert digest(u.x1, u.x2) == "c010be73c65caa6d"
        for n, band, seed in ((16, 2, 0), (32, 1, 5), (64, 8, 7)):
            got = expand(app_io.random_scalar(Grid(n), seed, 1, band, 0.4).coeffs)
            assert got.tobytes() == _random_scalar_loops(Grid(n), seed, 1, band, 0.4).tobytes()


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, grid64):
        st = make_state(grid64, 3, "full_band")
        st = FlowState(st.t, st.rho_dev, st.u, epsilon=1e-3)
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        back = app_io.read_checkpoint(path)
        assert back.t == st.t
        assert back.epsilon == st.epsilon
        assert back.odd_sign == st.odd_sign
        assert np.array_equal(back.rho_dev.coeffs, st.rho_dev.coeffs)
        assert np.array_equal(back.u.x1.coeffs, st.u.x1.coeffs)
        assert np.array_equal(back.u.x2.coeffs, st.u.x2.coeffs)

    def test_round_trip_keeps_negative_zero(self, tmp_path, grid16):
        """A -0.0 real part comes back as -0.0, so a rewritten checkpoint
        has the bytes of the first (a coefficient rebuilt as re + 1j*im
        would read +0.0)."""
        rho = zero_scalar(grid16)
        rho.coeffs[1, 1] = complex(-0.0, 0.25)
        st = FlowState(0.0, rho, SpectralVector(zero_scalar(grid16), zero_scalar(grid16)))
        first, second = str(tmp_path / "first.bin"), str(tmp_path / "second.bin")
        app_io.write_checkpoint(st, first)
        back = app_io.read_checkpoint(first)
        assert back.rho_dev.coeffs.tobytes() == rho.coeffs.tobytes()
        app_io.write_checkpoint(back, second)
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()

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

    @pytest.mark.parametrize("offset,value", [
        (10, np.uint32(7)), (10, np.uint32(0)),            # grid size odd, zero
        (30, np.float64(0.5)), (30, np.float64(0.0)),      # odd_sign
        (22, np.float64(-1.0)),                            # epsilon
    ])
    def test_header_out_of_range(self, tmp_path, grid64, offset, value):
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(make_state(grid64, 6, "half_band"), path)
        blob = bytearray(open(path, "rb").read())
        blob[offset:offset + value.nbytes] = value.tobytes()
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValidationError):
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

    def test_run_bits_on_recycled_memory(self, tmp_path):
        """glibc fills memory it hands out again with MALLOC_PERTURB_'s byte
        (its complement on allocation), so a read of a stale workspace
        buffer or of an np.empty array never written shows in the outputs.
        Unset, 171 and 85, a run that writes a row and a checkpoint every
        step writes the same bytes."""
        data = {"grid_n": 64, "t_end": 0.02, "observe_every": 1, "checkpoint_every": 1,
                "scenario": {"name": "density_wave", "a": 0.9}}
        outputs = []
        for perturb in (None, "171", "85"):
            out = tmp_path / f"out{perturb}"
            path = write_json(tmp_path, dict(data, output_dir=str(out)), f"c{perturb}.json")
            assert cli_process(["run", "--config", path], MALLOC_PERTURB_=perturb) == (0, "")
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "diagnostics.csv" in outputs[0] and len(outputs[0]) >= 4
        assert outputs[1] == outputs[0] == outputs[2]

    def test_run_holds_one_workspace(self, tmp_path, monkeypatch):
        """From the initial vacuum check to the final row, a run works in one
        fft.Workspace, and no band-path irfft2 runs outside a held block (a
        run whose only rows are the first and the last)."""
        made, outside, inside = [], [], []

        class Recorded(fft.Workspace):
            def __init__(self, n):
                super().__init__(n)
                made.append(weakref.ref(self))

        irfft2 = fft.irfft2

        def counted(x, *args, **kwargs):
            n, m = x.shape[-2:]
            if m < n // 2 + 1:
                (inside if n in fft._held.workspaces else outside).append(m)
            return irfft2(x, *args, **kwargs)

        monkeypatch.setattr(fft, "Workspace", Recorded)
        monkeypatch.setattr(fft, "irfft2", counted)
        out = tmp_path / "out"
        path = write_json(tmp_path, {
            "grid_n": 32, "t_end": 2e-3, "dt": 1e-3, "observe_every": 10**6,
            "scenario": {"name": "density_wave", "a": 0.9}, "output_dir": str(out)})
        assert cli(["run", "--config", path]) == 0
        rows = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert len(rows) == 3 and inside
        assert len(made) == 1 and outside == []
        assert made[0]() is None and fft._held.workspaces == {}

    @pytest.mark.parametrize("name,argv", [
        ("diagnostics.csv", []),
        ("checkpoint_final.bin", []),
        ("diagnostics.dat", ["--emit-dat"]),
    ], ids=["csv", "checkpoint", "dat"])
    def test_output_file_cannot_be_written(self, tmp_path, name, argv):
        """An output file that the system refuses (here a directory holds
        its name) ends in one error line and exit 1, not a traceback; the
        rows are written before the final checkpoint."""
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        path = write_json(tmp_path, minimal_config(t_end=0.01, output_dir=str(out)))
        code, err = cli_process(["run", "--config", path, *argv])
        assert code == 1 and "Traceback" not in err
        assert err == f"error: cannot write {str(out / name)!r}: Is a directory\n"
        if name != "diagnostics.csv":
            assert (out / "diagnostics.csv").is_file()

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
        # dt = 0.3 is far above the CFL bound: the density overshoots mid-run
        data = minimal_config(dt=0.3, t_end=20.0, output_dir=str(tmp_path / "out"))
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        path = write_json(tmp_path, data)
        with pytest.warns(RuntimeWarning, match="exceeds the stability estimate"):
            assert cli(["run", "--config", path]) == 2

    def test_abort_keeps_rows_and_last_state(self, tmp_path, capsys):
        out = tmp_path / "out"
        data = minimal_config(dt=0.3, t_end=20.0, observe_every=1, output_dir=str(out))
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        with pytest.warns(RuntimeWarning):
            assert cli(["run", "--config", write_json(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("abort: ") and err.count("\n") == 1, err
        rows = (out / "diagnostics.csv").read_text().strip().split("\n")[1:]
        last = app_io.read_checkpoint(str(out / "checkpoint_abort.bin"))
        # one row per completed step (index 0 included); the last is the saved state
        assert len(rows) >= 2 and 0 < last.t < 20.0
        assert float(rows[-1].split(",")[0]) == last.t
        assert not (out / "checkpoint_final.bin").exists()

    @pytest.mark.parametrize("steps, times", [(7, [0.0, 0.03, 0.06, 0.07]),
                                              (6, [0.0, 0.03, 0.06])])
    def test_run_rows_at_observed_indices_and_the_end(self, tmp_path, steps, times):
        """A row every 3 steps, at indices 0, 3 and 6, and one more for the
        last state when no multiple of 3 observed it."""
        out = tmp_path / "out"
        data = minimal_config(dt=0.01, t_end=steps * 0.01, observe_every=3,
                              output_dir=str(out))
        assert cli(["run", "--config", write_json(tmp_path, data)]) == 0
        rows = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[:, 0] == pytest.approx(times, abs=1e-12)

    def test_run_non_finite_diagnostics(self, tmp_path):
        """s = 400 overflows the Sobolev weight (1 + |k|^2)^s at n = 32, so E,
        F and G are NaN: exit 2 with one abort line naming them, the rows
        before it and the last good state kept, no final checkpoint."""
        out = tmp_path / "out"
        data = minimal_config(s=400, output_dir=str(out))
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        code, err = cli_process(["run", "--config", write_json(tmp_path, data)])
        rest = [ln for ln in err.splitlines() if not ln.startswith("warning: ")]
        assert code == 2 and rest == ["abort: diagnostics E, F, G not finite at t = 0.000000"]
        header, *rows = (out / "diagnostics.csv").read_text().splitlines()
        assert header.startswith("t,kinetic") and rows == []
        assert app_io.read_checkpoint(str(out / "checkpoint_abort.bin")).t == 0.0
        assert not (out / "checkpoint_final.bin").exists()

    @pytest.mark.parametrize("extra,scenario", [
        ({"grid_n": 64}, {"name": "density_wave", "a": 0.99}),   # T[1/rho] < 0
        ({"vacuum_floor": 0.9}, {"name": "density_wave", "a": 0.5}),
    ])
    def test_unresolved_initial_state(self, tmp_path, capsys, extra, scenario):
        data = minimal_config(output_dir=str(tmp_path / "out"), scenario=scenario, **extra)
        assert cli(["run", "--config", write_json(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert "initial state not resolved" in err
        self._assert_one_line_error_text(err)

    def test_verify_exit_zero(self):
        assert cli(["verify", "--seed", "7", "--n", "32"]) == 0

    def test_verify_top_seed(self):
        """The largest seed --seed admits draws seed+9 = 2**64 - 1, the top key."""
        assert cli(["verify", "--seed", str(2**64 - 10), "--n", "32"]) == 0

    def test_norms_subcommand(self, tmp_path, grid64, capsys):
        st = make_state(grid64, 8, "half_band")
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        assert cli(["norms", path, "--s", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "rho-1" in out and "theta" in out

    def _assert_one_line_error(self, capsys):
        self._assert_one_line_error_text(capsys.readouterr().err)

    @staticmethod
    def _assert_one_line_error_text(err):
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("key,value", [("t_end", float("nan")), ("dt", float("inf"))])
    def test_run_non_finite_config(self, tmp_path, capsys, key, value):
        data = minimal_config(output_dir=str(tmp_path / "out"), **{key: value})
        assert cli(["run", "--config", write_json(tmp_path, data)]) == 1
        self._assert_one_line_error(capsys)

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
        st.rho_dev.coeffs[2, 0] += 0.1  # no matching change at (-2, 0)
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        assert cli(["norms", path]) == 1
        self._assert_one_line_error(capsys)

    def test_norms_negative_density_checkpoint(self, tmp_path, grid64, capsys):
        """rho = 1 - 1.5 cos^2 x1 dips below zero: log rho has no value."""
        x1 = coordinates(grid64)[0]
        st = make_state(grid64, 8, "half_band")
        st = FlowState(0.0, forward_transform(grid64, -1.5 * np.cos(x1) ** 2), st.u)
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        assert cli(["norms", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("abort: ") and err.count("\n") == 1, err

    def test_norms_overflow_checkpoint(self, tmp_path, capsys):
        """Finite, real coefficients whose norms overflow: exit 2 with one
        abort line and no table."""
        data = minimal_config(grid_n=16, t_end=0.0)
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        st = app_io.init_scenario(app_io.validate_config(data))
        st.u.x1.coeffs[0, 1] = 1e200  # and (0, 15) = (0, -1) by symmetry
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(st, path)
        assert cli(["norms", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("abort: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("s", ["200", "-1100"])
    def test_norms_besov_weight_overflow(self, tmp_path, s):
        """A Besov weight 2^{js} past the float range (j = 6 at s = 200 on
        n = 128, j = -1 at s = -1100) is inf: exit 2 with one abort line, and
        no other stderr line but warnings."""
        path = str(tmp_path / "state.bin")
        app_io.write_checkpoint(make_state(Grid(128), 8, "half_band"), path)
        code, err = cli_process(["norms", path, f"--s={s}"])
        rest = [ln for ln in err.splitlines() if not ln.startswith("warning: ")]
        assert code == 2 and rest == [f"abort: checkpoint {path!r} has norms that are not finite"]

    def test_run_continuation_power_overflow(self, tmp_path):
        """At s = 1000, |grad rho|^s in the continuation monitor passes the
        float range on the first row: it is inf, so the run aborts with one
        line, keeps the (empty) rows and the initial state, and writes no
        final checkpoint."""
        out = tmp_path / "out"
        data = minimal_config(s=1000, t_end=0.0, output_dir=str(out))
        data["scenario"] = {"name": "random_bandlimited", "a": 0.9}
        code, err = cli_process(["run", "--config", write_json(tmp_path, data)])
        rest = [ln for ln in err.splitlines() if not ln.startswith("warning: ")]
        assert code == 2 and len(rest) == 1 and rest[0].startswith("abort: diagnostics ")
        assert "M_integrand, Mtilde_integrand not finite at t = 0.000000" in rest[0]
        header, *rows = (out / "diagnostics.csv").read_text().splitlines()
        assert header.startswith("t,kinetic") and rows == []
        assert app_io.read_checkpoint(str(out / "checkpoint_abort.bin")).t == 0.0
        assert not (out / "checkpoint_final.bin").exists()

    @pytest.mark.parametrize("argv", [
        ["norms", "CKPT", "--s", "nan"],
        ["norms", "CKPT", "--s", "inf"],
        ["sweep-eps", "--config", "CFG", "--eps", "nan,0"],
        ["sweep-eps", "--config", "CFG", "--eps", "inf,0"],
        ["twin", "--config", "CFG", "--amplitude", "nan"],
        ["twin", "--config", "CFG", "--amplitude", "1e-3", "--band", "-3"],
        ["twin", "--config", "CFG", "--amplitude", "1e-3", "--band", "1000"],
        ["verify", "--n", "16"],
        ["verify", "--n", "1048576"],  # 800 TiB: rejected before numpy refuses it
    ], ids=" ".join)
    def test_bad_argument(self, tmp_path, grid16, capsys, argv):
        """One error line that names the argument (the one before the bad
        value), exit 1."""
        data = minimal_config(grid_n=16, t_end=0.01, output_dir=str(tmp_path / "out"))
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        ckpt = str(tmp_path / "state.bin")
        app_io.write_checkpoint(make_state(grid16, 8, "half_band"), ckpt)
        paths = {"CFG": write_json(tmp_path, data), "CKPT": ckpt}
        assert cli([paths.get(a, a) for a in argv]) == 1
        err = capsys.readouterr().err
        self._assert_one_line_error_text(err)
        assert argv[-2] in err, err

    def test_run_grid_beyond_memory(self, tmp_path, capsys):
        """A grid the machine cannot hold is rejected before anything is
        allocated: exit 1 and one line, where numpy's refusal of the 4 TiB
        wavenumber arrays would exit 2."""
        data = minimal_config(grid_n=1048576, output_dir=str(tmp_path / "out"))
        with pytest.raises(ValidationError, match="physical memory"):
            app_io.validate_config(data)
        assert cli(["run", "--config", write_json(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        self._assert_one_line_error_text(err)
        assert "grid_n = 1048576 needs about" in err, err
        assert not (tmp_path / "out").exists()

    def test_norms_missing_checkpoint(self, tmp_path, capsys):
        assert cli(["norms", str(tmp_path / "missing.bin")]) == 1
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("exc,code", [
        (HermitianSymmetryError, 1), (GridMismatchError, 2), (MeanModeError, 2),
        (OddflowError, 2), (MemoryError, 2),
    ])
    def test_package_errors_end_in_one_line(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc("injected failure")
        monkeypatch.setattr("oddflow.cli.cmd_verify", fail)
        assert cli(["verify"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "injected failure" in err, err
        assert ("out of memory" in err) == (exc is MemoryError), err

    @pytest.mark.parametrize("argv, dt, count", [
        (["run"], 0.3, 1),                               # 2 steps, each far above the CFL bound
        (["sweep-eps", "--eps", "1e-2,5e-3"], 0.005, 2),  # bounds 7.6e-4, 1.5e-3
    ], ids=["run", "sweep-eps"])
    def test_warnings_are_one_line(self, tmp_path, argv, dt, count):
        """One warning line per run, on its first step above the bound."""
        data = minimal_config(dt=dt, t_end=2 * dt, output_dir=str(tmp_path / "out"))
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        code, err = cli_process([*argv, "--config", write_json(tmp_path, data)])
        assert code == 0, err
        lines = err.splitlines()
        assert len(lines) == count and all(
            ln.startswith(f"warning: dt = {dt:.3e} exceeds the stability estimate ")
            for ln in lines), err

    def test_warning_format_restored(self):
        before = warnings.formatwarning
        assert cli(["verify", "--n", "16"]) == 1
        assert warnings.formatwarning is before

    def test_twin_subcommand(self, tmp_path):
        out = tmp_path / "out"
        data = minimal_config(t_end=0.02, dt=0.01)
        data["output_dir"] = str(out)
        path = write_json(tmp_path, data)
        assert cli(["twin", "--config", path, "--amplitude", "1e-3"]) == 0
        header, *rows = (out / "twin.csv").read_text().splitlines()
        assert header == "t,D,Theta"
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert table.shape == (2, 3) and np.all(np.isfinite(table))  # index 0 and the end
        assert table[-1, 0] == pytest.approx(0.02, abs=1e-12)

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "out"
        data = minimal_config(t_end=0.02, dt=0.01)
        data["output_dir"] = str(out)
        path = write_json(tmp_path, data)
        assert cli(["sweep-eps", "--config", path, "--eps", "1e-2,1e-3,0"]) == 0
        header, *rows = (out / "sweep_eps.csv").read_text().splitlines()
        assert header == "eps_high,eps_low,u_distance,rho_distance"
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert table.shape == (2, 4) and np.all(np.isfinite(table))
        assert list(table[-1, :2]) == [1e-3, 0.0]  # the last pair ends the sweep

    @pytest.mark.parametrize("argv, extra, match", [
        (["run", "--config", "DIR"], {}, "cannot read config file"),
        (["run", "--config", "LATIN1"], {}, "is not UTF-8 text"),
        (["run", "--config", "CFG"], {"output_dir": "FILE"}, "cannot create output directory"),
        (["twin", "--config", "CFG", "--amplitude", "1e-3"], {"output_dir": "FILE"},
         "cannot create output directory"),
        (["sweep-eps", "--config", "CFG", "--eps", "1e-2,1e-3"], {"output_dir": "FILE"},
         "cannot create output directory"),
        (["sweep-eps", "--config", "CFG", "--eps", "1e-2"], {}, "at least two values"),
        (["verify", "--seed", "-1"], {}, f"{SEED_RULE}, got -1"),
        (["verify", "--seed", str(2**64)], {}, f"got {2**64}"),
        (["verify", "--seed", str(2**64 - 9)], {}, f"{SEED_RULE}, got {2**64 - 9}"),
        (["run", "--config", "CFG"],
         {"seed": -1, "scenario": {"name": "random_bandlimited", "a": 0.5}}, "got -1"),
        (["twin", "--config", "CFG", "--amplitude", "1e-3"], {"seed": -1}, "got -1"),
        (["twin", "--config", "CFG", "--amplitude", "5"], {},
         "perturbed state below the vacuum floor"),
    ], ids=["config-dir", "config-latin1", "run-output-file", "twin-output-file",
            "sweep-output-file", "sweep-one-eps", "verify-seed-negative", "verify-seed-2**64",
            "verify-seed-2**64-9",
            "run-seed-negative", "twin-seed-negative", "twin-below-vacuum-floor"])
    def test_rejected_before_the_first_step(self, tmp_path, monkeypatch, capsys,
                                            argv, extra, match):
        """A config, output directory, seed or eps list that cannot work ends
        in one error line and exit 1, before anything is integrated or any
        output directory is made."""
        def no_step(*args, **kwargs):
            raise AssertionError("integrated before rejecting the input")

        monkeypatch.setattr("oddflow.stepping.step", no_step)
        (tmp_path / "FILE").write_text("a file, not a directory")
        data = minimal_config(grid_n=16, t_end=0.01, output_dir=str(tmp_path / "out"))
        data["scenario"] = {"name": "density_wave", "a": 0.5}
        data.update({k: str(tmp_path / v) if k == "output_dir" else v
                     for k, v in extra.items()})
        (tmp_path / "latin1.json").write_bytes('{"grid_n": 16, "t_end": 0.1, "scenario": '
                                               '{"name": "caf\xe9"}}'.encode("latin-1"))
        paths = {"CFG": write_json(tmp_path, data), "DIR": str(tmp_path),
                 "LATIN1": str(tmp_path / "latin1.json")}
        assert cli([paths.get(a, a) for a in argv]) == 1
        err = capsys.readouterr().err
        self._assert_one_line_error_text(err)
        assert match in err, err
        assert not (tmp_path / "out").exists()
