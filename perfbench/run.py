#!/usr/bin/env python3
"""nvscope benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload rabi-fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs from the root of a source checkout and imports nvscope from its
`src` directory. Workloads are described in perfbench/workloads.py. The
workload seed makes every input; the program sees only those inputs.

With --trace 0 the result line carries the end-to-end metrics: set-up
time (the fastest of seven timings of the numpy/scipy/nvscope imports,
one in this process and six in fresh interpreters, half of them
before the workloads and half after, plus the fastest of three
set-ups), completed output-map pixels per calibration run's worth of
unit time (see workloads.measure and hostspeed), peak resident memory
and the accurate share of output pixels. With
--trace 1 it carries the per-layer metrics from spans around calls into
each module, and the tracing overhead measured against untraced units on
the same inputs. Every run also prints px_per_s (completed pixels per
second of unit wall time), failed_frac and median_rel_err, a
`raw:` line with run metadata and per-unit details, and, last, one JSON
result object. The exit code is 1 when a correctness check failed.
`--workload all` runs the three in one process; its result line names
each metric `<workload>.<metric>`, and peak_rss_mb is then the process
high-water mark at the end of each workload.

Fit workers are fixed at one and the BLAS/OpenMP pools at one thread.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

# Set-up time counts from here: only the interpreter start and the
# standard-library imports above come before it.
_STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
NAMES = ("forward-maps", "rabi-fit", "scenario-cli")
# Fresh-interpreter import timings taken before and again after the
# workloads: host speed drifts over seconds, so the two halves see
# different phases of it.
IMPORT_SAMPLES = 3


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _import_times():
    """Import times of IMPORT_SAMPLES fresh interpreters.

    The imports are most of set-up on two workloads and their time
    varies with the load other tenants put on the host, so set-up takes
    the fastest of this process's import time and these.
    """
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = {[HERE, SRC]!r}; import workloads; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _metadata(args, import_times):
    import numpy
    import scipy
    from nvscope import kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "using_extension": kernels.USING_EXTENSION, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "import_times_s": import_times}


def _report(outcome, trace, imports_s):
    """Result dict for one workload, printing its human-readable lines."""
    import workloads
    setup_s = imports_s + min(outcome["setup_times_s"])
    e2e = {"setup_s": setup_s, "px_per_cal": outcome["px_per_cal"],
           "peak_rss_mb": outcome["peak_rss_mb"],
           "accurate_frac": outcome["accurate_frac"]}
    name = outcome["workload"]
    shown = dict(e2e, px_per_s=outcome["px_per_s"],
                 failed_frac=outcome["failed_frac"],
                 median_rel_err=outcome["median_rel_err"])
    units = dict(workloads.END_TO_END, **workloads.REPORTED_ONLY)
    for key, value in shown.items():
        print(f"{name:13s} {key:34s} {value:14.6g} {units[key]}")
    if trace:
        metrics = {k: _metric(v, workloads.PER_LAYER[k])
                   for k, v in outcome["layers"].items()}
        for key, m in metrics.items():
            print(f"{name:13s} {key:34s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {k: _metric(v, workloads.END_TO_END[k])
                   for k, v in e2e.items()}
    for problem in outcome["problems"]:
        print(f"{name:13s} CHECK FAILED: {problem}")
    return {"correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "nvscope")):
        print(f"error: no nvscope sources under {SRC}; run from the root "
              "of an nvscope checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import workloads  # imports numpy, scipy and nvscope
    import_times = [time.perf_counter() - _STARTED] + _import_times()

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT, prefix="run-")
    outcomes = []
    try:
        for name in (NAMES if args.workload == "all" else (args.workload,)):
            outcomes.append(workloads.measure(name, args.seed, args.seconds,
                                              args.trace, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import_times += _import_times()
    imports_s = min(import_times)

    results, raw = {}, {"metadata": _metadata(args, import_times)}
    for outcome in outcomes:
        name = outcome["workload"]
        results[name] = _report(outcome, args.trace, imports_s)
        raw[name] = {k: v for k, v in outcome.items() if k != "layers"}

    print("raw: " + json.dumps(raw, sort_keys=True, default=str))
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": m for name, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
