"""One set-up of a benchmark workload, timed in a fresh interpreter.

Set-up is what a user pays before the first step: importing oddflow (and
with it numpy and scipy), validating the run config, ``init_scenario`` and
the first ``Grid``.  The clock starts before any of those imports, so work
moved into import time shows.  The run harness starts this script a few
times per run and reports the median.

Usage: python3 perfbench/setup_probe.py SRC_DIR SPEC_JSON
where SPEC_JSON is {"config": {...}} for an ``oddflow run`` workload or
{"grid_n": n} for a workload that only builds a grid.  Prints the seconds.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import oddflow.cli  # noqa: F401  (the import `oddflow run` pays)
    from oddflow import app_io
    from oddflow.spectral import Grid

    if "config" in spec:
        app_io.init_scenario(app_io.validate_config(spec["config"]))
    else:
        Grid(spec["grid_n"])
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
