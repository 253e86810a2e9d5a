"""Command-line interface: run, verify, twin, sweep-eps, norms.

Exit codes follow the error class alone: 0 success, 1 a ValidationError
(a bad config, command-line argument or checkpoint, an initial state the
grid cannot resolve, or a `twin` perturbation below the vacuum floor) and
`verify` suites that fail their bounds, 2 any other package error (vacuum
breach, NaN, solver failure, a non-finite diagnostics value or `norms`
table) and a MemoryError.  Every such error ends in one line on
stderr, and every warning is one `warning:` line there; a builtin exception
from a defect, a ValueError from NumPy among them, is not caught.  An
aborted `run` still writes the diagnostics rows it collected and its last
good state (checkpoint_abort.bin).  `twin` steps its two states through
the loop `run` uses (stepping.trajectory).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import app_io, diagnostics, fft
from .dynamics import check_vacuum, good_unknowns
from .errors import OddflowError, RuntimeAbort, ValidationError
from .littlewood_paley import besov_norm, sobolev_norm
from .spectral import l2_norm
from .stepping import run as integrate
from .verify import run_all


def _argument(ok: bool, name: str, rule: str, value) -> None:
    """Reject an argument as validate_config rejects a config number."""
    if not ok:
        raise ValidationError(f"{name} {rule}, got {value}")


def cmd_run(args) -> int:
    cfg = app_io.load_config(args.config)
    rows = []

    def observer(st, idx):
        if idx % cfg.observe_every == 0:
            rows.append(diagnostics.observe(st, cfg.s))
        if cfg.checkpoint_every and idx > 0 and idx % cfg.checkpoint_every == 0:
            app_io.write_checkpoint(
                st, os.path.join(cfg.output_dir, f"checkpoint_{idx:06d}.bin"))
        last[:] = [st, idx]

    csv_path = os.path.join(cfg.output_dir, "diagnostics.csv")

    def write_rows():
        csv_text = app_io.write_table(csv_path, rows, diagnostics.DIAGNOSTIC_FIELDS)
        if args.emit_dat:
            with app_io.opened(os.path.join(cfg.output_dir, "diagnostics.dat"), "w",
                               "write") as fh:
                fh.write(app_io.csv_to_dat(csv_text))

    # one workspace from the initial vacuum check to the last row, which the
    # loop's own block (stepping.trajectory) reuses
    with fft.workspace(cfg.grid_n):
        state = app_io.init_scenario(cfg)
        app_io.make_output_dir(cfg.output_dir)
        last = [state, 0]  # the last state that completed its observers, its index
        try:
            final = integrate(state, cfg, observers=[observer])
            if last[1] % cfg.observe_every:  # the last state has no row yet
                rows.append(diagnostics.observe(final, cfg.s))
        except OddflowError:
            # an aborted run keeps the rows it collected and its last good state
            write_rows()
            app_io.write_checkpoint(last[0], os.path.join(cfg.output_dir, "checkpoint_abort.bin"))
            raise
    write_rows()  # first, so a checkpoint that cannot be written leaves the rows
    app_io.write_checkpoint(final, os.path.join(cfg.output_dir, "checkpoint_final.bin"))
    print(f"integrated to t = {final.t:.6g} ({last[1]} steps); "
          f"diagnostics in {csv_path}")
    return 0


def cmd_verify(args) -> int:
    _argument(0 <= args.seed <= 2**64 - 10, "--seed",
              "must lie in [0, 2**64 - 10] (the suites draw seed..seed+9)", args.seed)
    _argument(args.n >= 32 and args.n % 2 == 0, "--n",
              "must be even and >= 32 (coarser grids miss the suites' bounds)", args.n)
    app_io.check_grid_fits("--n", args.n)
    results = run_all(n=args.n, seed=args.seed)
    for res in results:
        print(res.line())
    if all(r.passed for r in results):
        print("verify: all suites passed")
        return 0
    print("verify: FAILURES detected", file=sys.stderr)
    return 1


def cmd_twin(args) -> int:
    _argument(np.isfinite(args.amplitude), "--amplitude", "must be finite", args.amplitude)
    cfg = app_io.load_config(args.config)
    cut = cfg.grid_n // 3
    band = max(2, cfg.grid_n // 16) if args.band is None else args.band
    _argument(1 <= band <= cut, "--band", f"must lie in the dealiased band [1, {cut}]", band)
    state = app_io.init_scenario(cfg)
    grid = state.grid
    drho = app_io.random_scalar(grid, cfg.seed, 2, band, args.amplitude)
    du = app_io.random_divergence_free(grid, cfg.seed, 3, band, args.amplitude)
    perturbed = diagnostics.perturbed_state(state, drho, du)
    try:
        check_vacuum(perturbed, cfg.vacuum_floor)
    except RuntimeAbort as exc:
        raise ValidationError(f"perturbed state below the vacuum floor: {exc}") from exc
    app_io.make_output_dir(cfg.output_dir)
    records = diagnostics.twin_run_stability(state, perturbed, cfg,
                                             observe_every=cfg.observe_every)
    path = os.path.join(cfg.output_dir, "twin.csv")
    app_io.write_table(path, records, diagnostics.STABILITY_FIELDS)
    print(f"D(0) = {records[0].D:.6e}  D(T) = {records[-1].D:.6e}  -> {path}")
    return 0


def cmd_sweep_eps(args) -> int:
    cfg = app_io.load_config(args.config)
    try:
        eps_list = [float(tok) for tok in args.eps.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --eps list {args.eps!r}") from exc
    _argument(np.all(np.isfinite(eps_list)), "--eps", "values must be finite", args.eps)
    diagnostics.check_eps_list(eps_list)  # before any file is touched
    state = app_io.init_scenario(cfg)
    app_io.make_output_dir(cfg.output_dir)
    table = diagnostics.epsilon_sweep(state, cfg, eps_list)
    print(f"{'eps_high':>12} {'eps_low':>12} {'|du|_L2':>14} {'|drho|_L2':>14}")
    for row in table:
        print(f"{row.eps_high:12.3e} {row.eps_low:12.3e} "
              f"{row.u_distance:14.6e} {row.rho_distance:14.6e}")
    path = os.path.join(cfg.output_dir, "sweep_eps.csv")
    app_io.write_table(path, table, diagnostics.SWEEP_FIELDS)
    print(f"table -> {path}")
    return 0


def cmd_norms(args) -> int:
    _argument(np.isfinite(args.s), "--s", "must be finite", args.s)
    state = app_io.read_checkpoint(args.checkpoint)
    s = args.s
    gu = good_unknowns(state)
    quantities = [
        ("rho-1", state.rho_dev),
        ("u1", state.u.x1),
        ("u2", state.u.x2),
        ("omega", gu.omega),
        ("theta", gu.theta),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        table = [(name, l2_norm(f), sobolev_norm(f, s), besov_norm(f, s, 2, 2),
                  besov_norm(f, s, np.inf, np.inf))
                 for name, f in quantities]
    if not np.isfinite([row[1:] for row in table]).all():
        raise RuntimeAbort(f"checkpoint {args.checkpoint!r} has norms that are not finite")
    print(f"checkpoint t = {state.t:.6g}, n = {state.grid.n}, "
          f"eps = {state.epsilon:g}, odd_sign = {state.odd_sign:+g}")
    hdr = (f"{'field':>8} {'L2':>13} {f'H^{s:g} mult':>13} "
           f"{f'H^{s:g} lp':>13} {f'B^{s:g}_inf':>13}")
    print(hdr)
    for name, *values in table:
        print(f"{name:>8} " + " ".join(f"{v:13.6e}" for v in values))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddflow",
        description="pseudo-spectral odd-viscosity flow simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and emit diagnostics")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--emit-dat", action="store_true",
                       help="also write a gnuplot-ready .dat alias of the CSV")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the identity suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--n", type=int, default=64)
    p_ver.set_defaults(func=cmd_verify)

    p_twin = sub.add_parser("twin", help="twin-run stability study")
    p_twin.add_argument("--config", required=True)
    p_twin.add_argument("--amplitude", type=float, required=True)
    p_twin.add_argument("--band", type=int,
                        help="perturbation band (default n/16)")
    p_twin.set_defaults(func=cmd_twin)

    p_sweep = sub.add_parser("sweep-eps", help="eps -> 0 convergence study")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--eps", required=True,
                         help="comma-separated strictly decreasing list, e.g. 1e-2,1e-3,0")
    p_sweep.set_defaults(func=cmd_sweep_eps)

    p_norms = sub.add_parser("norms", help="norm table for a checkpoint")
    p_norms.add_argument("checkpoint")
    p_norms.add_argument("--s", type=float, default=2.5)
    p_norms.set_defaults(func=cmd_norms)
    return parser


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def cli(argv=None) -> int:
    saved = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:
        return _dispatch(argv)
    finally:
        warnings.formatwarning = saved


def _dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OddflowError as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a grid the host cannot hold
        print(f"abort: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
