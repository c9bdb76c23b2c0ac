"""ctsum benchmark: one workload per run, checked outputs, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload serve_e2 --seed 42 --seconds 10 --trace 0

The package is imported from ``src/`` beside this directory. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the environment fingerprint. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the same work runs
with in-memory spans and the per-layer numbers are printed instead.
"""

import os

# BLAS and OpenMP pools are sized when numpy loads, so pin them first:
# every workload is one caller on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctsum" / "__init__.py").is_file():
        print(f"perfbench: no ctsum package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import ctsum  # noqa: F401  (timed: users pay this once per process)

    import_s = (t0, perf_counter())

    import calibration
    import report
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    tracer = tracing.Tracer() if args.trace else tracing.NoTrace()
    if args.trace:
        tracer.record("import.ctsum", *import_s)
    workroot = HERE / ".work"
    workdir = workroot / str(os.getpid())
    try:
        clock = calibration.HostClock()
        outcome = workloads.run(args.workload, args.seed, args.seconds, tracer, clock, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass

    for problem in outcome.setup_problems:
        print(f"perfbench: set-up check failed: {problem}", file=sys.stderr)
    for problem, n in outcome.problems.items():
        print(f"perfbench: {n} operation(s): {problem}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracer.metrics(
                workloads.SPANS, workloads.SELF_TIME_SPANS, workloads.COUNTS
            ).items()
        }
    else:
        metrics = report.end_to_end(outcome)
    print(json.dumps({"environment": report.fingerprint(args, clock)}, sort_keys=True))
    result = {
        "correct": not outcome.setup_problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
