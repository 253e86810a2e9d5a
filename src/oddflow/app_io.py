"""Configuration, scenario library, binary checkpoints, and CSV emission.

Checkpoint format (all little-endian): magic "ODD2D\\0" (6 bytes), version
uint32, n uint32, then t, epsilon, odd_sign as float64, then the spectral
coefficients of rho-1, u1, u2 as row-major (k1 outer) (re, im) float64
pairs.  Round trips are bit-exact.  Reading rejects a file whose numbers
are not all finite or whose coefficients are not those of real fields.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .dynamics import FlowState
from .errors import ValidationError
from .spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    biot_savart,
    check_real,
    dealias,
    sup_norm,
    sup_norm_vector,
    zero_scalar,
)

MAGIC = b"ODD2D\x00"
VERSION = 1

SCENARIOS = ("steady_shear", "density_wave", "random_bandlimited")

_TOP_KEYS = {
    "grid_n": int,
    "dt": (float, type(None)),
    "t_end": float,
    "epsilon": float,
    "odd_sign": float,
    "s": float,
    "scenario": dict,
    "output_dir": str,
    "observe_every": int,
    "checkpoint_every": int,
    "seed": int,
    "cfl_safety": float,
    "vacuum_floor": float,
}

_SCENARIO_KEYS = {
    "steady_shear": set(),
    "density_wave": {"a"},
    "random_bandlimited": {"a", "band", "u_amplitude"},
}


@dataclass(frozen=True)
class RunConfig:
    grid_n: int
    t_end: float
    scenario: dict
    dt: float | None = None
    epsilon: float = 0.0
    odd_sign: float = 1.0
    s: float = 2.5
    output_dir: str = "out"
    observe_every: int = 10
    checkpoint_every: int = 0
    seed: int = 0
    cfl_safety: float = 0.5
    vacuum_floor: float = 1e-6


def _type_ok(value, expected):
    if isinstance(expected, tuple):
        return any(_type_ok(value, e) for e in expected)
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def validate_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise ValidationError(f"unknown config key {key!r}")
    for key in ("grid_n", "t_end", "scenario"):
        if key not in data:
            raise ValidationError(f"missing required config key {key!r}")
    for key, value in data.items():
        if not _type_ok(value, _TOP_KEYS[key]):
            raise ValidationError(f"config key {key!r} has the wrong type")

    n = data["grid_n"]
    if n < 8 or n % 2 != 0:
        raise ValidationError("grid_n must be even and >= 8")
    if data["t_end"] < 0:
        raise ValidationError("t_end must be >= 0")
    if data.get("dt") is not None and data["dt"] <= 0:
        raise ValidationError("dt must be positive (or null for auto-CFL)")
    if data.get("epsilon", 0.0) < 0:
        raise ValidationError("epsilon must be >= 0")
    if data.get("odd_sign", 1.0) not in (1, -1, 1.0, -1.0):
        raise ValidationError("odd_sign must be +1 or -1")
    if data.get("observe_every", 10) < 1:
        raise ValidationError("observe_every must be >= 1")
    if data.get("checkpoint_every", 0) < 0:
        raise ValidationError("checkpoint_every must be >= 0")
    if not (0 < data.get("cfl_safety", 0.5) <= 1):
        raise ValidationError("cfl_safety must lie in (0, 1]")
    if not (0 < data.get("vacuum_floor", 1e-6) < 1):
        raise ValidationError("vacuum_floor must lie in (0, 1)")
    if not data.get("s", 2.5) > 1:
        raise ValidationError("s must be > 1 (the continuation monitor needs s > 1)")

    scen = data["scenario"]
    name = scen.get("name")
    if name not in SCENARIOS:
        raise ValidationError(f"unknown scenario {name!r} (choose from {SCENARIOS})")
    for key in scen:
        if key != "name" and key not in _SCENARIO_KEYS[name]:
            raise ValidationError(f"unknown scenario key {key!r} for {name!r}")
    if name in ("density_wave", "random_bandlimited"):
        a = scen.get("a")
        if not _type_ok(a, float):
            raise ValidationError("scenario key 'a' must be a number")
        if not (0 < a < 1):
            raise ValidationError(
                f"scenario amplitude a = {a} leaves no vacuum margin "
                "(need 0 < a < 1 so that rho stays positive)")
    if name == "random_bandlimited":
        band = scen.get("band", n // 8)
        if not _type_ok(band, int) or band < 1 or band > n // 8:
            raise ValidationError(f"scenario band must be an int in [1, n/8] = [1, {n // 8}]")
        ua = scen.get("u_amplitude", 1.0)
        if not _type_ok(ua, float) or ua <= 0:
            raise ValidationError("scenario u_amplitude must be positive")

    kw = {k: data[k] for k in data}
    return RunConfig(**kw)


def load_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ValidationError(f"config file {path!r} does not exist")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return validate_config(data)


# ---------------------------------------------------------------------------
# seeded random fields (counter-based generator, platform-stable streams)


def _stream(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _hermitian_part(c: np.ndarray) -> np.ndarray:
    """0.5 * (c(k) + conj(c(-k))): the coefficients of the real part."""
    neg = -np.arange(c.shape[0]) % c.shape[0]
    return 0.5 * (c + np.conj(c[np.ix_(neg, neg)]))


def random_scalar(grid: Grid, seed: int, stream: int, band: int,
                  sup_amplitude: float) -> SpectralScalar:
    """Mean-zero real field with |k|_inf <= band, normalized to the given
    sup amplitude."""
    rng = _stream(seed, stream)
    size = 2 * band + 1
    noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    idx = np.arange(-band, band + 1) % grid.n
    c = np.zeros((grid.n, grid.n), dtype=np.complex128)
    c[np.ix_(idx, idx)] = noise
    c = _hermitian_part(c)
    c[0, 0] = 0.0
    f = SpectralScalar(grid, c)
    sup = sup_norm(f)
    if sup == 0.0:
        return f
    return SpectralScalar(grid, c * (sup_amplitude / sup))


def random_divergence_free(grid: Grid, seed: int, stream: int, band: int,
                           sup_amplitude: float) -> SpectralVector:
    """Divergence-free field with sup magnitude sup_amplitude, via the
    stream function of a random band-limited vorticity."""
    u = biot_savart(random_scalar(grid, seed, stream, band, 1.0))
    sup = sup_norm_vector(u)
    scale = sup_amplitude / sup if sup > 0 else 0.0
    return SpectralVector(u.x1 * scale, u.x2 * scale, divergence_free=True)


# ---------------------------------------------------------------------------
# scenarios


def _steady_shear(grid: Grid) -> tuple[SpectralScalar, SpectralVector]:
    u2 = zero_scalar(grid)
    u2.coeffs[1 % grid.n, 0] = -0.5j   # sin(x1)
    u2.coeffs[-1 % grid.n, 0] = 0.5j
    return zero_scalar(grid), SpectralVector(zero_scalar(grid), u2, divergence_free=True)


def _density_wave(grid: Grid, a: float) -> tuple[SpectralScalar, SpectralVector]:
    rho = zero_scalar(grid)
    q = a / 4.0                        # a * cos(x1) cos(x2)
    n = grid.n
    for k1, k2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        rho.coeffs[k1 % n, k2 % n] = q
    om = zero_scalar(grid)
    # omega0 = cos(x1)cos(x2) + 0.5 sin(x1 + 2 x2), band-limited and mean-zero
    for k1, k2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        om.coeffs[k1 % n, k2 % n] += 0.25
    om.coeffs[1 % n, 2 % n] += -0.25j
    om.coeffs[-1 % n, -2 % n] += 0.25j
    return rho, biot_savart(om)


def _random_bandlimited(grid: Grid, a: float, band: int, u_amplitude: float,
                        seed: int) -> tuple[SpectralScalar, SpectralVector]:
    rho = random_scalar(grid, seed, 0, band, a)
    u = random_divergence_free(grid, seed, 1, band, u_amplitude)
    return rho, u


def init_scenario(config: RunConfig) -> FlowState:
    grid = Grid(config.grid_n)
    scen = config.scenario
    name = scen["name"]
    if name == "steady_shear":
        rho, u = _steady_shear(grid)
    elif name == "density_wave":
        rho, u = _density_wave(grid, float(scen["a"]))
    elif name == "random_bandlimited":
        rho, u = _random_bandlimited(
            grid, float(scen["a"]), int(scen.get("band", grid.n // 8)),
            float(scen.get("u_amplitude", 1.0)), config.seed)
    else:
        raise ValidationError(f"unknown scenario {name!r}")
    return FlowState(0.0, dealias(rho), SpectralVector(
        dealias(u.x1), dealias(u.x2), divergence_free=True),
        epsilon=config.epsilon, odd_sign=config.odd_sign)


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(state: FlowState, path: str) -> None:
    n = state.grid.n
    header = MAGIC + struct.pack("<II", VERSION, n)
    header += struct.pack("<ddd", state.t, state.epsilon, state.odd_sign)
    with open(path, "wb") as fh:
        fh.write(header)
        for field in (state.rho_dev.coeffs, state.u.x1.coeffs, state.u.x2.coeffs):
            flat = np.ascontiguousarray(field, dtype=np.complex128)
            pairs = np.empty((n * n, 2), dtype="<f8")
            pairs[:, 0] = flat.real.reshape(-1)
            pairs[:, 1] = flat.imag.reshape(-1)
            fh.write(pairs.tobytes())


def read_checkpoint(path: str) -> FlowState:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read checkpoint {path!r}: {exc.strerror}") from exc
    if len(blob) < 6 + 8 + 24:
        raise ValidationError(f"checkpoint {path!r} is truncated")
    if blob[:6] != MAGIC:
        raise ValidationError(f"checkpoint {path!r} has a bad magic header")
    version, n = struct.unpack_from("<II", blob, 6)
    if version != VERSION:
        raise ValidationError(
            f"checkpoint {path!r} has unsupported version {version} (expected {VERSION})")
    t, epsilon, odd_sign = struct.unpack_from("<ddd", blob, 14)
    offset = 14 + 24
    need = offset + 3 * n * n * 16
    if len(blob) != need:
        raise ValidationError(
            f"checkpoint {path!r} has {len(blob)} bytes, expected {need}")
    if not np.all(np.isfinite(np.frombuffer(blob, dtype="<f8", offset=14))):
        raise ValidationError(f"checkpoint {path!r} holds non-finite numbers")
    grid = Grid(n)
    fields = []
    for _ in range(3):
        pairs = np.frombuffer(blob, dtype="<f8", count=2 * n * n, offset=offset)
        offset += n * n * 16
        coeffs = (pairs[0::2] + 1j * pairs[1::2]).reshape(n, n)
        fields.append(SpectralScalar(grid, coeffs.copy()))
        check_real(fields[-1])
    return FlowState(t, fields[0],
                     SpectralVector(fields[1], fields[2], divergence_free=True),
                     epsilon=epsilon, odd_sign=odd_sign)


# ---------------------------------------------------------------------------
# CSV emission


def format_number(x) -> str:
    return f"{float(x):.17g}"


def diagnostics_csv(records, fields) -> str:
    lines = [",".join(fields)]
    for rec in records:
        vals = rec.values() if hasattr(rec, "values") else rec
        lines.append(",".join(format_number(v) for v in vals))
    return "\n".join(lines) + "\n"


def csv_to_dat(csv_text: str) -> str:
    """gnuplot-ready alias: comment header, whitespace separated."""
    lines = csv_text.strip().split("\n")
    out = ["# " + " ".join(lines[0].split(","))]
    for line in lines[1:]:
        out.append(" ".join(line.split(",")))
    return "\n".join(out) + "\n"
