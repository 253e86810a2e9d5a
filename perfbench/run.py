"""oddflow benchmark: one workload per process, correctness-gated.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wave_n128 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, each in its own process

The program under test is the checkout's own ``src/oddflow``; the run stops
with exit code 2 when it is missing.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric.  Every
metric the run computes is also printed above it, one per line, with its
unit.  Spans of a traced run are written to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

THREAD_VARS = ("ODDFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({k: "1" for k in THREAD_VARS})  # before numpy loads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(result, spec: dict, trace: bool) -> dict:
    """Print every metric with its unit; return the final JSON object."""
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    s = result.samples
    print(f"samples solutions={result.solutions} untraced_solutions={len(s.wall[False])} "
          f"steps={len(s.step)} observe_rows={len(s.observe)} run_all_calls={len(s.suite)}")
    for failure in result.gate.failures:
        print(f"FAILED {failure}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = result.metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit} differs from BENCHMARK.json's {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": result.correct, "attempted": result.gate.attempted,
            "failed": len(result.gate.failures), "metrics": metrics}


def run_all_workloads(args, names) -> int:
    """Each workload in its own process; the last line sums them up."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {ln}" for ln in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        out = json.loads(lines[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for metric, entry in out["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oddflow", "__init__.py")):
        print(f"error: no oddflow package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import harness
    import oddflow

    if not os.path.abspath(oddflow.__file__).startswith(SRC + os.sep):
        print(f"error: imported oddflow from {oddflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all_workloads(args, names)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (choose from {names} or all)",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(harness.environment(THREAD_VARS)))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    result = harness.measure(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), SRC, WORK_ROOT, tag=args.workload)
    print(json.dumps(report(result, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
