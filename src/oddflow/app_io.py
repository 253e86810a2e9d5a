"""Configuration, scenario library, binary checkpoints, and CSV emission.

Checkpoint format (all little-endian): magic "ODD2D\\0" (6 bytes), version
uint32, n uint32, then t, epsilon, odd_sign as float64, then the full
n x n spectral coefficients of rho-1, u1, u2 as row-major (k1 outer)
complex128, each an (re, im) float64 pair.  Writing expands each stored
half-spectrum to the full spectrum; reading rejects a file whose numbers
are not all finite or whose coefficients are not those of real fields,
then folds each field to its half-spectrum.  Both sides take the
coefficients' bytes as they are, so round trips are bit-exact, down to the
sign of a zero.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import types
import typing
from dataclasses import dataclass

import numpy as np

from .dynamics import FlowState, check_vacuum
from .errors import RuntimeAbort, ValidationError
from .spectral import (
    Grid,
    SpectralScalar,
    SpectralVector,
    biot_savart,
    check_real,
    dealias,
    expand,
    fold,
    sup_magnitude,
    zero_scalar,
)
from .stepping import StepperConfig

MAGIC = b"ODD2D\x00"
VERSION = 1

_SCENARIO_KEYS = {
    "steady_shear": set(),
    "density_wave": {"a"},
    "random_bandlimited": {"a", "band", "u_amplitude"},
}

SCENARIOS = tuple(_SCENARIO_KEYS)


@dataclass(frozen=True, kw_only=True)
class RunConfig(StepperConfig):
    """A run's config: the stepper's parameters (dt, t_end, cfl_safety,
    vacuum_floor), declared, defaulted and checked by StepperConfig, and the
    scenario's and the output's."""

    grid_n: int
    scenario: dict
    epsilon: float = 0.0
    odd_sign: float = 1.0
    s: float = 2.5
    output_dir: str = "out"
    observe_every: int = 10
    checkpoint_every: int = 0
    seed: int = 0


_TOP_KEYS = typing.get_type_hints(RunConfig)


def _type_ok(value, expected):
    if isinstance(expected, types.UnionType):
        return any(_type_ok(value, e) for e in expected.__args__)
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def check_grid_fits(name: str, n: int) -> None:
    """ValidationError, before anything is allocated, when an n x n grid needs
    more than physical memory at 800 B a point (the growth of a run's peak
    RSS per added point, 770-820 B from n = 128 to 256)."""
    need, have = 800 * n * n, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValidationError(f"{name} = {n} needs about {need / 2**30:.3g} GiB, more than "
                              f"the {have / 2**30:.3g} GiB of physical memory")


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
    for key, value in [*data.items(), *data["scenario"].items()]:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"config key {key!r} must be finite, got {value}")

    cfg = RunConfig(**data)
    n = cfg.grid_n
    if n < 8 or n % 2 != 0:
        raise ValidationError("grid_n must be even and >= 8")
    check_grid_fits("grid_n", n)
    if cfg.epsilon < 0:
        raise ValidationError("epsilon must be >= 0")
    if cfg.odd_sign not in (1, -1):
        raise ValidationError("odd_sign must be +1 or -1")
    if cfg.observe_every < 1:
        raise ValidationError("observe_every must be >= 1")
    if cfg.checkpoint_every < 0:
        raise ValidationError("checkpoint_every must be >= 0")
    if not cfg.s > 1:
        raise ValidationError("s must be > 1 (the continuation monitor needs s > 1)")

    scen = cfg.scenario
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
        band, ua = _bandlimited_options(scen, n)
        if not _type_ok(band, int) or band < 1 or band > n // 8:
            raise ValidationError(f"scenario band must be an int in [1, n/8] = [1, {n // 8}]")
        if not _type_ok(ua, float) or ua <= 0:
            raise ValidationError("scenario u_amplitude must be positive")
    return cfg


def _bandlimited_options(scenario: dict, n: int) -> tuple:
    """(band, u_amplitude) of a random_bandlimited scenario, with defaults."""
    return scenario.get("band", n // 8), scenario.get("u_amplitude", 1.0)


def load_config(path: str) -> RunConfig:
    try:
        with opened(path, "r", "read config file") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return validate_config(data)


@contextlib.contextmanager
def opened(path: str, mode: str, action: str):
    """open(path, mode), text as UTF-8, raising an OSError as ValidationError."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot {action} {path!r}: {exc.strerror}") from exc


def make_output_dir(path: str) -> None:
    """Create the output directory (and its parents) unless it exists;
    ValidationError when the system refuses, e.g. where a file has the name."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {path!r}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# seeded random fields (counter-based generator, platform-stable streams)


def _stream(seed: int, stream: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, stream); ValidationError unless the
    seed fits the key's 64 bits."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _real_field(grid: Grid, draw: np.ndarray, sup_amplitude: float) -> SpectralScalar:
    """The mean-zero real field whose full spectrum is the Hermitian part
    0.5 * (draw(k) + conj(draw(-k))) of a random draw on the whole grid,
    scaled to the given sup amplitude (kept as it is when it is zero).

    The sup is taken from the samples check_real computes on the full
    spectrum, so a seed gives the same coefficients whatever the stored form."""
    neg = -np.arange(grid.n) % grid.n
    full = 0.5 * (draw + np.conj(draw[np.ix_(neg, neg)]))
    full[0, 0] = 0.0
    sup = float(np.max(np.abs(check_real(full))))
    f = SpectralScalar(grid, fold(full))
    return f if sup == 0.0 else f * (sup_amplitude / sup)


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
    return _real_field(grid, c, sup_amplitude)


def random_band_scalar(grid: Grid, seed: int, stream: int, band: int,
                       power: float = 0.0, sup_amplitude: float = 1.0) -> SpectralScalar:
    """Mean-zero field with |k|_inf <= band and a |k|^(-power) envelope,
    drawn on the full spectrum."""
    rng = _stream(seed, stream)
    n = grid.n
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = grid.k1[:, 0]  # the full spectrum's wavenumbers, in fft order
    kmag = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
    env = np.where(kmag > 0, np.maximum(kmag, 1.0) ** (-power), 0.0)
    mask = (np.abs(k[:, None]) <= band) & (np.abs(k[None, :]) <= band)
    return _real_field(grid, np.where(mask, noise * env, 0.0), sup_amplitude)


def random_divergence_free(grid: Grid, seed: int, stream: int, band: int,
                           sup_amplitude: float) -> SpectralVector:
    """Divergence-free field with sup magnitude sup_amplitude, via the
    stream function of a random band-limited vorticity."""
    u = biot_savart(random_scalar(grid, seed, stream, band, 1.0))
    sup = sup_magnitude(check_real(u.x1), check_real(u.x2))
    return u * (sup_amplitude / sup if sup > 0 else 0.0)


# ---------------------------------------------------------------------------
# scenarios


# The constructors set the modes k2 >= 0 of the half-spectrum; the conjugate
# modes k2 < 0 are implied.


def _steady_shear(grid: Grid) -> tuple[SpectralScalar, SpectralVector]:
    u2 = zero_scalar(grid)
    u2.coeffs[1 % grid.n, 0] = -0.5j   # sin(x1)
    u2.coeffs[-1 % grid.n, 0] = 0.5j
    return zero_scalar(grid), SpectralVector(zero_scalar(grid), u2)


def _density_wave(grid: Grid, a: float) -> tuple[SpectralScalar, SpectralVector]:
    rho = zero_scalar(grid)
    rho.coeffs[[1, -1], 1] = a / 4.0     # a * cos(x1) cos(x2)
    om = zero_scalar(grid)
    # omega0 = cos(x1)cos(x2) + 0.5 sin(x1 + 2 x2), band-limited and mean-zero
    om.coeffs[[1, -1], 1] += 0.25
    om.coeffs[1, 2] += -0.25j
    return rho, biot_savart(om)


def _random_bandlimited(grid: Grid, a: float, band: int, u_amplitude: float,
                        seed: int) -> tuple[SpectralScalar, SpectralVector]:
    rho = random_scalar(grid, seed, 0, band, a)
    u = random_divergence_free(grid, seed, 1, band, u_amplitude)
    return rho, u


def init_scenario(config: RunConfig) -> FlowState:
    """The scenario's initial state, rejected (ValidationError) when its
    truncated rho or 1/rho falls below the vacuum floor on the grid."""
    grid = Grid(config.grid_n)
    scen = config.scenario
    name = scen["name"]
    if name == "steady_shear":
        rho, u = _steady_shear(grid)
    elif name == "density_wave":
        rho, u = _density_wave(grid, float(scen["a"]))
    elif name == "random_bandlimited":
        band, ua = _bandlimited_options(scen, grid.n)
        rho, u = _random_bandlimited(grid, float(scen["a"]), int(band), float(ua),
                                     config.seed)
    else:
        raise ValidationError(f"unknown scenario {name!r}")
    state = FlowState(0.0, dealias(rho), dealias(u),
                      epsilon=config.epsilon, odd_sign=config.odd_sign)
    try:
        check_vacuum(state, config.vacuum_floor)
    except RuntimeAbort as exc:
        raise ValidationError(
            f"initial state not resolved on the n = {grid.n} grid: {exc}") from exc
    return state


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(state: FlowState, path: str) -> None:
    n = state.grid.n
    header = MAGIC + struct.pack("<II", VERSION, n)
    header += struct.pack("<ddd", state.t, state.epsilon, state.odd_sign)
    with opened(path, "wb", "write") as fh:
        fh.write(header)
        for field in (state.rho_dev, state.u.x1, state.u.x2):
            fh.write(expand(field.coeffs).astype("<c16", copy=False).tobytes())


def read_checkpoint(path: str) -> FlowState:
    with opened(path, "rb", "read checkpoint") as fh:
        blob = fh.read()
    if len(blob) < 6 + 8 + 24:
        raise ValidationError(f"checkpoint {path!r} is truncated")
    if blob[:6] != MAGIC:
        raise ValidationError(f"checkpoint {path!r} has a bad magic header")
    version, n = struct.unpack_from("<II", blob, 6)
    if version != VERSION:
        raise ValidationError(
            f"checkpoint {path!r} has unsupported version {version} (expected {VERSION})")
    if n < 8 or n % 2 != 0:
        raise ValidationError(f"checkpoint {path!r} has grid size {n} (need even and >= 8)")
    t, epsilon, odd_sign = struct.unpack_from("<ddd", blob, 14)
    offset = 14 + 24
    need = offset + 3 * n * n * 16
    if len(blob) != need:
        raise ValidationError(
            f"checkpoint {path!r} has {len(blob)} bytes, expected {need}")
    if not np.all(np.isfinite(np.frombuffer(blob, dtype="<f8", offset=14))):
        raise ValidationError(f"checkpoint {path!r} holds non-finite numbers")
    if epsilon < 0 or odd_sign not in (1.0, -1.0):
        raise ValidationError(
            f"checkpoint {path!r} has epsilon {epsilon} or odd_sign {odd_sign} out of range")
    grid = Grid(n)
    fields = []
    for _ in range(3):
        coeffs = np.frombuffer(blob, dtype="<c16", count=n * n, offset=offset).reshape(n, n)
        offset += n * n * 16
        check_real(coeffs)
        fields.append(SpectralScalar(grid, fold(coeffs)))
    return FlowState(t, fields[0], SpectralVector(fields[1], fields[2]),
                     epsilon=epsilon, odd_sign=odd_sign)


# ---------------------------------------------------------------------------
# CSV emission


def diagnostics_csv(records, columns) -> str:
    lines = [",".join(columns)]
    lines += [",".join(f"{float(v):.17g}" for v in rec) for rec in records]
    return "\n".join(lines) + "\n"


def write_table(path: str, records, columns) -> str:
    """Write records under the header columns to path as diagnostics_csv's
    text, and return the text."""
    text = diagnostics_csv(records, columns)
    with opened(path, "w", "write") as fh:
        fh.write(text)
    return text


def csv_to_dat(csv_text: str) -> str:
    """gnuplot-ready alias: comment header, whitespace separated."""
    header, *rows = csv_text.strip().split("\n")
    return "\n".join(["# " + header, *rows]).replace(",", " ") + "\n"
