"""Workloads, correctness gates and metrics of the oddflow benchmark.

Load model: a closed loop with one caller.  Every RK4 step waits for the one
before it, and nothing runs concurrently; run.py pins every thread count to
1 before numpy loads.

A run repeats its workload's *solution* (one ``oddflow run`` to ``t_end``, or
one block of ``run_all`` calls) until the time budget is spent, and reports
medians over the repetitions; the first solution only warms up.  Untraced
solutions add only the step clock's observers, a bare timer on
``diagnostics.observe`` and the reference work (reference.py) between the
program's operations and, on some workloads, before every pressure solve,
which the times leave out; a traced run alternates
untraced and traced solutions, so the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy

from oddflow import app_io, cli, diagnostics, pressure, spectral, stepping, verify
from oddflow.errors import OddflowError

from reference import Reference
from spans import FFTProxy, Tracer, patched, self_time

SETUP_REPEATS = 5  # set-ups timed per run, at least
SUITES = ("partition", "bony", "skew", "residuals", "pressure_split",
          "homogeneous_gradient")
# acceptance criteria 1 and 2: relative drift of kinetic energy and ||rho-1||_L2
KINETIC_DRIFT_BOUND = 1e-6
RHO_L2_DRIFT_BOUND = 1e-5


@dataclass(frozen=True)
class Workload:
    kind: str                   # "run": `oddflow run` via cli.cli; "verify": verify.run_all
    n: int
    scenario: dict | None = None
    t_end: float = 0.0
    dt: float | None = None     # None: automatic CFL step
    observe_every: int = 1
    checkpoint_every: int = 0
    drift_gate: bool = False
    seeds_per_solution: int = 1
    # untraced: reference work also before every pressure solve, for
    # operations too long for reference work at their ends to follow the host
    ref_before_solves: bool = False


WORKLOADS = {
    # the first ~10 steps of the criterion-1 run; one diagnostics row at
    # the start and one at the end
    "wave_n128": Workload("run", 128, {"name": "density_wave", "a": 0.5},
                          t_end=0.06, observe_every=10**6, drift_gate=True,
                          ref_before_solves=True),
    "contrast_n128": Workload("run", 128, {"name": "density_wave", "a": 0.9},
                              t_end=0.02, observe_every=10**6, drift_gate=True,
                              ref_before_solves=True),
    # a fixed dt, at most a third of the initial CFL bound on every seed
    # sampled (0.0066 or more), gives every seed the same number of steps
    "observe_n64": Workload("run", 64, {"name": "random_bandlimited", "a": 0.5},
                            t_end=0.04, dt=0.002, observe_every=1,
                            checkpoint_every=1),
    "verify_n128": Workload("verify", 128, seeds_per_solution=2,
                            ref_before_solves=True),
}


def run_config(w: Workload, seed: int, output_dir: str) -> dict:
    return {"grid_n": w.n, "t_end": w.t_end, "dt": w.dt, "scenario": w.scenario,
            "output_dir": output_dir, "observe_every": w.observe_every,
            "checkpoint_every": w.checkpoint_every, "seed": seed}


class Gate:
    """Counts attempted operations (steps, solves, suite checks and gate
    checks) and keeps a message for each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class StepClock:
    """Observer pair placed before and after the CLI's own observers.  The
    gap from the end of one callback round to the start of the next is one
    RK4 step (the run loop's CFL bound plus ``step``).  With a tracer, the
    gap is also recorded as an ``op.step`` span.  With a reference, its work
    runs at the end of every callback round, outside the step's gap."""

    def __init__(self, tracer: Tracer | None, ref: Reference | None):
        self.tracer = tracer
        self.ref = ref
        self.steps: list[tuple[float, float]] = []  # (start, end)
        self._last = 0.0

    def before(self, state, index):
        now = time.perf_counter()
        if index > 0:
            self.steps.append((self._last, now))
        if self.tracer:
            self.tracer.end_open("op.step")

    def after(self, state, index):
        if self.ref:
            self.ref.chunk()
        if self.tracer:
            self.tracer.op += 1
            self.tracer.open("op.step")
        self._last = time.perf_counter()


def clocked(run, clock: StepClock):
    """``stepping.run`` with the clock's observers around the caller's."""
    tracer = clock.tracer

    def run_with_clock(initial, config, observers=()):
        span = tracer.open("stepping.run") if tracer else None
        try:
            return run(initial, config,
                       observers=[clock.before, *observers, clock.after])
        finally:
            if tracer:
                tracer.end_open("op.step")  # the empty gap after the last step
                tracer.close(span)

    return run_with_clock


def timed(fn, sink: list):
    def timed_call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)
    return timed_call


def traced_targets(tracer: Tracer) -> list:
    """Spans around the public names each module looks up at call time."""
    def solve_info(span, args, out):
        span.info = {"iterations": out.iterations, "residual": out.residual,
                     "tol": args["tol"]}

    def checkpoint_info(span, args, out):
        span.info = {"bytes": os.path.getsize(args["path"])}

    wrap = tracer.wrap
    targets = [(m, "solve_pressure", wrap("pressure.solve", m.solve_pressure, solve_info))
               for m in (stepping, diagnostics, verify)]
    targets += [(m, name, wrap("dynamics." + name, getattr(m, name)))
                for m in (diagnostics, verify)
                for name in ("residual_theta", "residual_omega")]
    targets += [(m, name, wrap("littlewood_paley.sobolev_norm", getattr(m, name)))
                for m, name in ((diagnostics, "sobolev_norm"),
                                (diagnostics, "sobolev_norm_vector"),
                                (verify, "sobolev_norm_vector"))]
    targets += [(verify, "suite_" + s, wrap("verify.suite_" + s, getattr(verify, "suite_" + s)))
                for s in SUITES]
    targets += [
        (stepping, "step", wrap("stepping.step", stepping.step)),
        (stepping, "cfl_dt", wrap("stepping.cfl_dt", stepping.cfl_dt)),
        (stepping, "momentum_rhs", wrap("dynamics.momentum_rhs", stepping.momentum_rhs)),
        (stepping, "density_rhs", wrap("dynamics.density_rhs", stepping.density_rhs)),
        (diagnostics, "observe", wrap("diagnostics.observe", diagnostics.observe)),
        (diagnostics, "energy_functionals",
         wrap("diagnostics.energy_functionals", diagnostics.energy_functionals)),
        (diagnostics, "continuation_monitor",
         wrap("diagnostics.continuation_monitor", diagnostics.continuation_monitor)),
        (verify, "bony_reconstruction",
         wrap("littlewood_paley.bony_reconstruction", verify.bony_reconstruction)),
        (app_io, "init_scenario", wrap("app_io.init_scenario", app_io.init_scenario)),
        (app_io, "write_checkpoint",
         wrap("app_io.write_checkpoint", app_io.write_checkpoint, checkpoint_info)),
        (app_io, "diagnostics_csv", wrap("app_io.diagnostics_csv", app_io.diagnostics_csv)),
        (spectral, "_fft", FFTProxy(spectral._fft, tracer)),
        (pressure, "_fft", FFTProxy(pressure._fft, tracer)),
    ]
    return targets


def chunk_before(fn, ref: Reference):
    def call_after_chunk(*args, **kwargs):
        ref.chunk()
        return fn(*args, **kwargs)
    return call_after_chunk


class Samples:
    """Seconds leave the reference work out; ``*_ref`` values are in units
    of the reference time around them (Reference.normalized)."""

    def __init__(self):
        self.wall = {False: [], True: []}  # solutions, keyed by traced
        self.step: list[float] = []        # untraced RK4 steps
        self.observe: list[float] = []     # untraced diagnostics rows
        self.suite: list[float] = []       # untraced run_all calls
        self.ref: list[float] = []         # reference work, untraced solutions
        self.wall_ref: list[float] = []    # untraced solutions
        self.op_ref: list[float] = []      # untraced steps or run_all calls

    def add_untraced(self, ref: Reference, solution, ops, op_seconds: list) -> float:
        """Record an untraced solution (start, end) and its operations'
        (start, end); return the solution's seconds."""
        op_seconds += [b - a - ref.inside(a, b) for a, b in ops]
        if ref.chunks:  # none when the run failed before its first step
            self.ref += ref.durations()
            self.wall_ref.append(ref.normalized(*solution))
            self.op_ref += [ref.normalized(a, b) for a, b in ops]
        return solution[1] - solution[0] - ref.inside(*solution)


class RunSolution:
    """One `oddflow run` of a workload, called in process through cli.cli."""

    def __init__(self, w: Workload, seed: int, work_dir: str):
        self.w = w
        self.out_dir = os.path.join(work_dir, "out")
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(run_config(w, seed, self.out_dir), fh)
        self.reference = None  # (steps, csv) of the first solution

    def __call__(self, tracer, ref, samples: Samples, gate: Gate, tamper) -> float:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if ref:
            ref.begin()
        clock = StepClock(tracer, ref)
        observe_times: list[float] = []
        targets = [(cli, "integrate", clocked(cli.integrate, clock))]
        if tracer:
            targets += traced_targets(tracer)
        else:
            targets.append((diagnostics, "observe", timed(diagnostics.observe, observe_times)))
            if self.w.ref_before_solves:
                targets.append((stepping, "solve_pressure",
                                chunk_before(stepping.solve_pressure, ref)))
        first_span = len(tracer.spans) if tracer else 0
        stdout, stderr = io.StringIO(), io.StringIO()
        with patched(targets), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                status = cli.cli(["run", "--config", self.config_path])
            except OddflowError as exc:  # escaped the CLI's own handlers
                status = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()

        steps = len(clock.steps)
        if tracer:
            wall = t1 - t0
        else:
            wall = samples.add_untraced(ref, (t0, t1), clock.steps, samples.step)
            samples.observe += observe_times
        gate.ops(steps)
        gate.check(status == 0, f"oddflow run ended with {status!r}: "
                   f"{stderr.getvalue().strip()[-300:]}")
        csv = ""
        with contextlib.suppress(FileNotFoundError), \
                open(os.path.join(self.out_dir, "diagnostics.csv"), encoding="utf-8") as fh:
            csv = fh.read()
        if tamper:
            csv = tamper(csv)
        self.check_csv(csv, steps, gate)
        if self.reference is None:
            self.reference = (steps, csv)
        gate.check(steps == self.reference[0],
                   f"{steps} steps, the first solution took {self.reference[0]}")
        gate.check(csv == self.reference[1],
                   "diagnostics.csv is not byte-identical to the first solution's")
        self.check_checkpoints(steps, gate)
        if tracer:
            for span in tracer.spans[first_span:]:
                if span.name == "pressure.solve":
                    info = span.info
                    gate.check(info is not None and info["residual"] <= info["tol"],
                               f"CG solve residual {info} above its tolerance")
        return wall

    def check_csv(self, csv: str, steps: int, gate: Gate) -> None:
        w = self.w
        fields = diagnostics.DIAGNOSTIC_FIELDS
        lines = csv.splitlines()
        gate.check(bool(lines) and lines[0] == ",".join(fields),
                   "diagnostics.csv lacks the expected columns")
        try:
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        except ValueError:
            gate.check(False, "diagnostics.csv has a non-numeric value")
            return
        expected = (len(range(0, steps + 1, w.observe_every))
                    + (steps % w.observe_every != 0))
        gate.check(len(rows) == expected,
                   f"diagnostics.csv has {len(rows)} rows, expected {expected}")
        gate.check(rows.size > 0 and bool(np.all(np.isfinite(rows))),
                   "diagnostics.csv has a non-finite value")
        if w.drift_gate and len(rows) >= 2:
            for name, bound in (("kinetic", KINETIC_DRIFT_BOUND),
                                ("rho_l2", RHO_L2_DRIFT_BOUND)):
                col = rows[:, fields.index(name)]
                drift = abs(col[-1] - col[0]) / abs(col[0])
                gate.check(drift <= bound,
                           f"{name} drift {drift:.3e} exceeds {bound:.0e}")

    def check_checkpoints(self, steps: int, gate: Gate) -> None:
        w = self.w
        names = os.listdir(self.out_dir) if os.path.isdir(self.out_dir) else []
        ckpts = sorted(f for f in names if f.startswith("checkpoint_"))
        expected = (steps // w.checkpoint_every if w.checkpoint_every else 0) + 1
        gate.check(len(ckpts) == expected and "checkpoint_final.bin" in ckpts,
                   f"{len(ckpts)} checkpoint files, expected {expected}")
        size = 6 + 8 + 24 + 3 * w.n * w.n * 16
        for f in ckpts:
            got = os.path.getsize(os.path.join(self.out_dir, f))
            gate.check(got == size, f"{f} has {got} bytes, expected {size}")


class VerifySolution:
    """``verify.run_all`` over consecutive seeds from the workload seed."""

    def __init__(self, w: Workload, seed: int, work_dir: str):
        self.w = w
        self.seed = seed

    def __call__(self, tracer, ref, samples: Samples, gate: Gate, tamper) -> float:
        calls = []  # (seed, check results, error)
        ops = []  # (start, end) of each run_all call
        if tracer:
            targets = traced_targets(tracer)
        else:
            ref.begin()
            targets = [(verify, "suite_" + s, chunk_before(getattr(verify, "suite_" + s), ref))
                       for s in SUITES]
            if self.w.ref_before_solves:
                targets.append((verify, "solve_pressure",
                                chunk_before(verify.solve_pressure, ref)))
        with patched(targets):
            t0 = time.perf_counter()
            for seed in range(self.seed, self.seed + self.w.seeds_per_solution):
                span = None
                if tracer:
                    tracer.op += 1
                    span = tracer.open("verify.run_all")
                c0 = time.perf_counter()
                try:
                    calls.append((seed, verify.run_all(n=self.w.n, seed=seed), None))
                except OddflowError as exc:
                    calls.append((seed, [], exc))
                finally:
                    if span:
                        tracer.close(span)
                ops.append((c0, time.perf_counter()))
            if ref:
                ref.chunk()
            t1 = time.perf_counter()
        wall = t1 - t0 if tracer else samples.add_untraced(ref, (t0, t1), ops, samples.suite)

        for seed, results, error in calls:
            if tamper:
                results = tamper(results)
            gate.check(error is None and bool(results), f"run_all(seed={seed}) raised {error!r}")
            for r in results:
                gate.check(r.passed and r.value <= r.bound, r.line())
        return wall


def setup_probe(w: Workload, seed: int, src: str, work_dir: str):
    """A function that times one set-up in a fresh interpreter."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    spec = ({"config": run_config(w, seed, os.path.join(work_dir, "out"))}
            if w.kind == "run" else {"grid_n": w.n})

    def seconds() -> float:
        out = subprocess.run([sys.executable, probe, src, json.dumps(spec)],
                             capture_output=True, text=True, timeout=120, check=True)
        return float(out.stdout.split()[-1])
    return seconds


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ms(xs) -> float:
    return 1e3 * _median(xs)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, solutions: int) -> dict:
    """Per-layer numbers from the spans of the traced solutions."""
    selfs = self_time(spans)
    step_of, solve_of, observe_of = [], [], []
    for s in spans:  # a parent is always opened, hence recorded, before its children
        p = s.parent
        step_of.append(s.id if s.name == "op.step" else step_of[p] if p >= 0 else -1)
        solve_of.append(s.id if s.name == "pressure.solve" else solve_of[p] if p >= 0 else -1)
        observe_of.append(s.id if s.name == "diagnostics.observe"
                          else observe_of[p] if p >= 0 else -1)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def dur(name):
        return [s.duration for s in by[name]]

    def in_step(items):
        return [s for s in items if step_of[s.id] >= 0]

    steps = by["op.step"]
    n_steps = len(steps)
    solves = by["pressure.solve"]
    step_solves = in_step(solves)
    ffts = [s for s in spans if s.name.startswith("spectral.")]
    step_ffts = in_step(ffts)
    iters = [s.info["iterations"] for s in solves]
    rhs_by_step = defaultdict(lambda: [0.0, 0])
    for s in in_step(by["dynamics.momentum_rhs"] + by["dynamics.density_rhs"]):
        acc = rhs_by_step[step_of[s.id]]
        acc[0] += s.duration
        acc[1] += s.name == "dynamics.momentum_rhs"  # one per RK stage
    observes = by["diagnostics.observe"]
    run_all_calls = max(len(by["verify.run_all"]), 1)

    m = {
        "pressure.solve_ms_p50": (_ms(dur("pressure.solve")), "ms"),
        "pressure.cg_iters_mean": (statistics.fmean(iters) if iters else 0.0, "count"),
        "pressure.iter_ms": (1e3 * _ratio(sum(dur("pressure.solve")), sum(iters)), "ms"),
        "pressure.solves_per_step": (_ratio(len(step_solves), n_steps), "count"),
        "pressure.step_share": (_ratio(sum(s.duration for s in step_solves),
                                       sum(dur("op.step"))), "ratio"),
        "spectral.fft_c2c_per_step": (
            _ratio(sum(s.info["kind"] == "c2c" for s in step_ffts), n_steps), "count"),
        "spectral.fft_r2c_per_step": (
            _ratio(sum(s.info["kind"] == "r2c" for s in step_ffts), n_steps), "count"),
        "spectral.fft_ms_per_step": (
            1e3 * _ratio(sum(s.duration for s in step_ffts), n_steps), "ms"),
        "spectral.fft_bytes_per_step": (
            _ratio(sum(s.info["bytes"] for s in step_ffts), n_steps), "B"),
        "spectral.fft_in_pressure_share": (
            _ratio(sum(solve_of[s.id] >= 0 for s in step_ffts), len(step_ffts)), "ratio"),
        "dynamics.rhs_ms_p50": (
            _ms([t / k for t, k in rhs_by_step.values() if k]), "ms"),
        "dynamics.residual_ms_p50": (
            _ms(dur("dynamics.residual_theta") + dur("dynamics.residual_omega")), "ms"),
        "stepping.step_self_ms_p50": (
            _ms([selfs[s.id] for s in by["stepping.step"]]), "ms"),
        "stepping.cfl_calls_per_step": (
            _ratio(len(in_step(by["stepping.cfl_dt"])), n_steps), "count"),
        "stepping.cfl_ms_p50": (_ms(dur("stepping.cfl_dt")), "ms"),
        "stepping.steps": (_ratio(n_steps, solutions), "count"),
        "diagnostics.observe_self_ms_p50": (_ms([selfs[s.id] for s in observes]), "ms"),
        "diagnostics.solves_per_observe": (
            _ratio(sum(observe_of[s.id] >= 0 for s in solves), len(observes)), "count"),
        "diagnostics.monitor_ms_p50": (_ms(dur("diagnostics.continuation_monitor")), "ms"),
        "diagnostics.energy_ms_p50": (_ms(dur("diagnostics.energy_functionals")), "ms"),
        "littlewood_paley.sobolev_ms_p50": (_ms(dur("littlewood_paley.sobolev_norm")), "ms"),
        "littlewood_paley.bony_ms_p50": (
            _ms(dur("littlewood_paley.bony_reconstruction")), "ms"),
        "app_io.checkpoint_write_ms_p50": (_ms(dur("app_io.write_checkpoint")), "ms"),
        "app_io.checkpoint_bytes": (
            statistics.median([s.info["bytes"] for s in by["app_io.write_checkpoint"]])
            if by["app_io.write_checkpoint"] else 0.0, "B"),
        "app_io.csv_ms": (_ms(dur("app_io.diagnostics_csv")), "ms"),
        "app_io.init_scenario_ms": (_ms(dur("app_io.init_scenario")), "ms"),
    }
    for suite in SUITES:
        m["verify.suite_ms." + suite] = (
            1e3 * sum(dur("verify.suite_" + suite)) / run_all_calls, "ms")
    return m


def environment(thread_vars) -> dict:
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for entry in sorted(os.listdir(base)):
            def read(f):
                with open(os.path.join(base, entry, f), encoding="utf-8") as fh:
                    return fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(read("type"), "")
            caches.append(f"L{read('level')}{kind} {read('size')}")
    return {"nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in thread_vars}}


class Result:
    def __init__(self, metrics, gate: Gate, samples: Samples, solutions: int):
        self.metrics = metrics   # name -> (value, unit)
        self.gate = gate
        self.samples = samples
        self.solutions = solutions

    @property
    def correct(self) -> bool:
        return not self.gate.failures


def measure(w: Workload, seed: int, seconds: float, trace: bool, src: str,
            work_root: str, tamper=None, tag: str = "run") -> Result:
    """Run workload ``w`` for about ``seconds`` seconds after set-up.

    ``tamper``, used only by the harness self-test, rewrites the program's
    output (the CSV text or the list of check results) before the gate
    reads it."""
    work_dir = os.path.join(work_root, f"{tag}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        setup = setup_probe(w, seed, src, work_dir)
        setup()  # the first interpreter may still have byte code to compile
        setup_times = []
        solve = (RunSolution if w.kind == "run" else VerifySolution)(w, seed, work_dir)
        gate, samples = Gate(), Samples()
        tracer = Tracer() if trace else None
        ref = Reference()
        next_setup = time.perf_counter()
        deadline = next_setup + seconds
        count, longest = 0, 0.0
        while True:
            traced = trace and count % 2 == 1
            # the first solution warms caches and lazy imports; it is gated
            # but not measured
            into = samples if count else Samples()
            t0 = time.perf_counter()
            wall = solve(tracer if traced else None, None if traced else ref,
                         into, gate, tamper)
            into.wall[traced].append(wall)
            # set-up is timed between solutions all through the run, so that
            # its median does not rest on one moment of the host's speed
            if time.perf_counter() >= next_setup:
                setup_times.append(setup())
                next_setup = time.perf_counter() + seconds / SETUP_REPEATS
            count += 1
            longest = max(longest, time.perf_counter() - t0)
            if count >= (3 if trace else 2) and time.perf_counter() + longest > deadline:
                break
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = samples.wall[False]
    op = samples.step if w.kind == "run" else samples.suite
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (_median(samples.wall_ref), "ref"),
        "op_ref": (_median(samples.op_ref), "ref"),
        "ref_ms_p50": (_ms(samples.ref), "ms"),
        "wall_s": (_median(untraced), "s"),
        "op_ms_p50": (_ms(op), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (_ratio(len(gate.failures), gate.attempted), "ratio"),
    }
    if w.kind == "run":
        metrics["step_ms_p50"] = (_ms(samples.step), "ms")
        metrics["step_ms_p90"] = (
            1e3 * float(np.percentile(samples.step, 90)) if samples.step else 0.0, "ms")
        if w.observe_every == 1:
            metrics["observe_ms_p50"] = (_ms(samples.observe), "ms")
    else:
        metrics["suite_ms_p50"] = (_ms(samples.suite), "ms")
    if trace:
        traced_solutions = len(samples.wall[True])
        metrics.update(layer_metrics(tracer.spans, traced_solutions))
        metrics["tracing.overhead_s"] = (
            statistics.median(samples.wall[True]) - statistics.median(untraced), "s")
        tracer.write_jsonl(os.path.join(work_root, f"trace-{tag}-seed{seed}.jsonl"))
    metrics = {k: (float(v), unit) for k, (v, unit) in metrics.items()}
    return Result(metrics, gate, samples, count)
