"""Self-test of the benchmark harness on tiny grids (under a minute).

    python3 perfbench/selftest.py

Checks, for one workload of each kind (n = 16; the verify suites need
n >= 32 to meet their bounds), untraced and traced:
  * every metric BENCHMARK.json names is computed, with the same unit, and
    printed by name together with the other end-to-end metrics;
  * the correctness gate passes on the program's real output;
  * when the harness's own reading of that output is corrupted (a kinetic
    energy or a row of the CSV, a verify check result), the gate fails and
    failed_frac rises.  Nothing in the oddflow package is patched for this;
  * every module attribute the harness replaces is restored afterwards.
Exits 0 when all hold, 1 otherwise.
"""

import contextlib
import io
import sys

import run  # pins the thread variables before numpy loads

sys.path[:0] = [run.SRC, run.BENCH_DIR]

import harness  # noqa: E402
from harness import Workload  # noqa: E402
from oddflow import app_io, cli, diagnostics, pressure, spectral, stepping, verify  # noqa: E402
from oddflow.verify import CheckResult  # noqa: E402


def corrupt_kinetic(csv: str) -> str:
    """Raise the last row's kinetic energy by one part in a thousand."""
    lines = csv.splitlines()
    col = diagnostics.DIAGNOSTIC_FIELDS.index("kinetic")
    cells = lines[-1].split(",")
    cells[col] = repr(float(cells[col]) * 1.001)
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def drop_last_row(csv: str) -> str:
    return "".join(csv.splitlines(keepends=True)[:-1])


def corrupt_check(results):
    """Replace the first check result by one far above its bound."""
    first = results[0]
    return [CheckResult(first.name, 1.0, first.bound)] + list(results[1:])


TINY = {  # label: (workload, wrong result to inject)
    "wave": (Workload("run", 16, {"name": "density_wave", "a": 0.5}, t_end=0.2,
                      observe_every=10**6, drift_gate=True, ref_before_solves=True),
             corrupt_kinetic),
    "observe": (Workload("run", 16, {"name": "random_bandlimited", "a": 0.5},
                         t_end=0.03, dt=0.01, observe_every=1, checkpoint_every=1),
                drop_last_row),
    "verify": (Workload("verify", 32, ref_before_solves=True), corrupt_check),
}
PRINTED = {  # end-to-end metrics printed (not all in BENCHMARK.json) per kind
    "run": ("wall_s", "op_ms_p50", "ref_ms_p50", "step_ms_p50", "step_ms_p90", "failed_frac"),
    "verify": ("wall_s", "op_ms_p50", "ref_ms_p50", "suite_ms_p50", "failed_frac"),
}
MODULES = (app_io, cli, diagnostics, pressure, spectral, stepping, verify)


def main() -> int:
    spec = run.load_spec()
    problems = []
    before = [dict(vars(m)) for m in MODULES]
    for label, (w, tamper) in TINY.items():
        for trace in (False, True):
            res = harness.measure(w, 0, 0.2, trace, run.SRC, run.WORK_ROOT,
                                  tag=f"selftest-{label}")
            where = f"{label} trace={int(trace)}"
            if not res.correct:
                problems.append(f"{where}: gate failed on real output: {res.gate.failures}")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                final = run.report(res, spec, trace)
            printed = {ln.split()[1] for ln in buf.getvalue().splitlines()
                       if ln.startswith("metric ")}
            names = [m["name"] for m in spec["end_to_end"]] + list(PRINTED[w.kind])
            if trace:
                names += [m["name"] for m in spec["per_layer"]]
            missing = sorted(set(names) - printed)
            if missing:
                problems.append(f"{where}: metrics not printed: {missing}")
            if set(final["metrics"]) != {m["name"] for m in
                                         spec["per_layer" if trace else "end_to_end"]}:
                problems.append(f"{where}: JSON metrics differ from BENCHMARK.json")

        bad = harness.measure(w, 0, 0.2, False, run.SRC, run.WORK_ROOT,
                              tamper=tamper, tag=f"selftest-{label}")
        if bad.correct or not bad.metrics["failed_frac"][0] > 0:
            problems.append(f"{label}: injected wrong result passed the gate")

    after = [dict(vars(m)) for m in MODULES]
    for m, b, a in zip(MODULES, before, after):
        changed = sorted(k for k in b if a.get(k) is not b[k])
        if changed:
            problems.append(f"{m.__name__}: attributes left patched: {changed}")

    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
