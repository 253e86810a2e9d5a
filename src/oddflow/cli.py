"""Command-line interface: run, verify, twin, sweep-eps, norms.

Exit codes: 0 success, 1 validation/config error (including a bad or
missing checkpoint), 2 runtime abort (vacuum breach, NaN, solver failure,
failed identity check).  Every package error ends in one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import app_io, diagnostics
from .dynamics import good_unknowns
from .errors import (
    GridMismatchError,
    HermitianSymmetryError,
    MeanModeError,
    OddflowError,
    ValidationError,
)
from .littlewood_paley import besov_norm, sobolev_norm
from .spectral import l2_norm
from .stepping import StepperConfig, cfl_dt, run as integrate
from .verify import run_all


def _stepper_config(cfg: app_io.RunConfig) -> StepperConfig:
    return StepperConfig(dt=cfg.dt, t_end=cfg.t_end, cfl_safety=cfg.cfl_safety,
                         epsilon=cfg.epsilon, vacuum_floor=cfg.vacuum_floor)


def cmd_run(args) -> int:
    cfg = app_io.load_config(args.config)
    state = app_io.init_scenario(cfg)
    scfg = _stepper_config(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)

    rows = []
    observed = []

    def observer(st, idx):
        if idx % cfg.observe_every == 0:
            rows.append(diagnostics.observe(st, cfg.s))
            observed.append(idx)
        if cfg.checkpoint_every and idx > 0 and idx % cfg.checkpoint_every == 0:
            app_io.write_checkpoint(
                st, os.path.join(cfg.output_dir, f"checkpoint_{idx:06d}.bin"))

    last_index = [0]

    def count(st, idx):
        last_index[0] = idx

    final = integrate(state, scfg, observers=[observer, count])
    if not observed or observed[-1] != last_index[0]:
        rows.append(diagnostics.observe(final, cfg.s))
    app_io.write_checkpoint(final, os.path.join(cfg.output_dir, "checkpoint_final.bin"))

    csv_text = app_io.diagnostics_csv(rows, diagnostics.DIAGNOSTIC_FIELDS)
    csv_path = os.path.join(cfg.output_dir, "diagnostics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    if args.emit_dat:
        with open(os.path.join(cfg.output_dir, "diagnostics.dat"), "w",
                  encoding="utf-8") as fh:
            fh.write(app_io.csv_to_dat(csv_text))
    print(f"integrated to t = {final.t:.6g} ({last_index[0]} steps); "
          f"diagnostics in {csv_path}")
    return 0


def cmd_verify(args) -> int:
    results = run_all(n=args.n, seed=args.seed)
    for res in results:
        print(res.line())
    if all(r.passed for r in results):
        print("verify: all suites passed")
        return 0
    print("verify: FAILURES detected", file=sys.stderr)
    return 1


def cmd_twin(args) -> int:
    cfg = app_io.load_config(args.config)
    state = app_io.init_scenario(cfg)
    scfg = _stepper_config(cfg)
    if scfg.dt is None:
        # twins must share the step sequence, so freeze dt from the base state
        scfg = dataclasses.replace(scfg, dt=cfg.cfl_safety * cfl_dt(state, scfg) * 0.9)
    grid = state.grid
    band = args.band or max(2, grid.n // 16)
    drho = app_io.random_scalar(grid, cfg.seed, 2, band, args.amplitude)
    du = app_io.random_divergence_free(grid, cfg.seed, 3, band, args.amplitude)
    records = diagnostics.twin_run_stability(state, scfg, drho, du,
                                             observe_every=cfg.observe_every)
    os.makedirs(cfg.output_dir, exist_ok=True)
    lines = ["t,D,Theta"]
    for rec in records:
        lines.append(",".join(app_io.format_number(v)
                              for v in (rec.t, rec.D, rec.Theta)))
    path = os.path.join(cfg.output_dir, "twin.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"D(0) = {records[0].D:.6e}  D(T) = {records[-1].D:.6e}  -> {path}")
    return 0


def cmd_sweep_eps(args) -> int:
    cfg = app_io.load_config(args.config)
    try:
        eps_list = [float(tok) for tok in args.eps.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --eps list {args.eps!r}") from exc
    state = app_io.init_scenario(cfg)
    scfg = _stepper_config(cfg)
    table = diagnostics.epsilon_sweep(state, scfg, eps_list)
    os.makedirs(cfg.output_dir, exist_ok=True)
    lines = ["eps_high,eps_low,u_distance,rho_distance"]
    print(f"{'eps_high':>12} {'eps_low':>12} {'|du|_L2':>14} {'|drho|_L2':>14}")
    for row in table:
        print(f"{row['eps_high']:12.3e} {row['eps_low']:12.3e} "
              f"{row['u_distance']:14.6e} {row['rho_distance']:14.6e}")
        lines.append(",".join(app_io.format_number(v) for v in
                              (row["eps_high"], row["eps_low"],
                               row["u_distance"], row["rho_distance"])))
    path = os.path.join(cfg.output_dir, "sweep_eps.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"table -> {path}")
    return 0


def cmd_norms(args) -> int:
    state = app_io.read_checkpoint(args.checkpoint)
    s = args.s
    gu = good_unknowns(state, check=False)
    quantities = [
        ("rho-1", state.rho_dev),
        ("u1", state.u.x1),
        ("u2", state.u.x2),
        ("omega", gu.omega),
        ("theta", gu.theta),
    ]
    print(f"checkpoint t = {state.t:.6g}, n = {state.grid.n}, "
          f"eps = {state.epsilon:g}, odd_sign = {state.odd_sign:+g}")
    hdr = (f"{'field':>8} {'L2':>13} {f'H^{s:g} mult':>13} "
           f"{f'H^{s:g} lp':>13} {f'B^{s:g}_22':>13} {f'B^{s:g}_inf':>13}")
    print(hdr)
    for name, f in quantities:
        print(f"{name:>8} {l2_norm(f):13.6e} {sobolev_norm(f, s):13.6e} "
              f"{sobolev_norm(f, s, 'lp_sum'):13.6e} "
              f"{besov_norm(f, s, 2, 2):13.6e} "
              f"{besov_norm(f, s, np.inf, np.inf):13.6e}")
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
    p_twin.add_argument("--band", type=int, default=0,
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


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValidationError, ValueError, HermitianSymmetryError, GridMismatchError,
            MeanModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OddflowError as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
