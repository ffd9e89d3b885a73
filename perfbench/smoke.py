#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

Runs each workload for a single unit (rabi-fit on stride-25 pixel
samples, scenario-cli and forward-maps as they are), with tracing
off and on, and asserts that the result carries exactly the end-to-end
or per-layer metrics that BENCHMARK.json names, each with its unit, and
that the uncorrupted run is correct. It then corrupts one output of
each workload and asserts that the correctness check fails and that
run.py exits 1 on such a run. It makes a working forward-maps scenario
raise and asserts that the run is incorrect, makes rabi-fit's fit_cube
raise and asserts that its pixels count as failed operations of an
incorrect run, and makes the scenario-cli report command fail and
asserts that no pixels count as completed and that accurate_frac is
not raised by it. Last it runs
benchmarks/bench_field_kernel.py, whose backend bit-identity assertion
must keep working. Exits non-zero on the first failed assertion.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

import run

TINY = {"forward-maps": {}, "rabi-fit": {"stride": 25},
        "scenario-cli": {}}


def _expect(cond, message):
    if not cond:
        raise SystemExit(f"smoke check failed: {message}")


def _result(workloads, name, trace, workdir):
    outcome = workloads.measure(name, 3, 0, trace, workdir, setup_repeats=1,
                                **TINY[name])
    with contextlib.redirect_stdout(io.StringIO()):
        return run._report(outcome, trace, imports_s=0.0)


def _scale_fit(fit_cube):
    def corrupted(*args, **kwargs):
        fmap, results = fit_cube(*args, **kwargs)
        fmap.values *= 1.5
        return fmap, results
    return corrupted


def _shift_read(read_field_map):
    def corrupted(path):
        fmap = read_field_map(path)
        fmap.values[0, 0] *= 2.0
        return fmap
    return corrupted


def main():
    sys.path.insert(0, run.SRC)
    import workloads
    from nvscope import acquisition, analysis, formats

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _expect(declared[0] == workloads.END_TO_END,
            "BENCHMARK.json end_to_end differs from workloads.END_TO_END")
    _expect(declared[1] == workloads.PER_LAYER,
            "BENCHMARK.json per_layer differs from workloads.PER_LAYER")
    _expect([w["name"] for w in spec["workloads"]] == list(run.NAMES),
            "BENCHMARK.json workloads differ from run.NAMES")

    corruptions = {
        "forward-maps": mock.patch.object(
            formats, "read_field_map", _shift_read(formats.read_field_map)),
        "rabi-fit": mock.patch.object(analysis, "fit_cube",
                                      _scale_fit(analysis.fit_cube)),
        "scenario-cli": mock.patch.object(analysis, "fit_cube",
                                          _scale_fit(analysis.fit_cube)),
    }
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK_ROOT, prefix="smoke-")
    try:
        for name in run.NAMES:
            for trace in (0, 1):
                result = _result(workloads, name, trace, workdir)
                emitted = {k: m["unit"] for k, m in result["metrics"].items()}
                _expect(emitted == declared[trace],
                        f"{name} trace={trace} emitted {sorted(emitted)}")
                _expect(all(isinstance(m["value"], (int, float))
                            for m in result["metrics"].values()),
                        f"{name} trace={trace}: non-numeric metric")
                _expect(result["correct"], f"{name}: clean run not correct")
                _expect(result["attempted"] >= 1, f"{name}: nothing attempted")
            with corruptions[name]:
                result = _result(workloads, name, 0, workdir)
            _expect(not result["correct"],
                    f"{name}: corrupted output passed the correctness check")
            print(f"smoke {name}: metrics emitted, corruption detected")

        # a scenario that newly raises is not just a failed operation
        with mock.patch.object(acquisition, "simulate_stream",
                               side_effect=RuntimeError("injected")):
            outcome = workloads.measure("forward-maps", 3, 0, 0, workdir,
                                        setup_repeats=1)
        _expect(not outcome["correct"]
                and outcome["failed"] == 3 * len(outcome["units"]),
                "forward-maps: a newly raising scenario passed the check")
        print("smoke forward-maps: a newly raising scenario is incorrect")

        # a fit that raises fails its pixels' operations
        with mock.patch.object(analysis, "fit_cube",
                               side_effect=RuntimeError("injected")):
            outcome = workloads.measure("rabi-fit", 3, 0, 0, workdir,
                                        setup_repeats=1, **TINY["rabi-fit"])
        _expect(not outcome["correct"] and outcome["px_per_cal"] == 0
                and outcome["failed"] == outcome["attempted"] > 0,
                f"rabi-fit: a raising fit gave failed {outcome['failed']} "
                f"of {outcome['attempted']}")
        print("smoke rabi-fit: a raising fit is a failed operation")

        # a failed report command completes no pixels
        clean = workloads.measure("scenario-cli", 3, 0, 0, workdir,
                                  setup_repeats=1, **TINY["scenario-cli"])
        with mock.patch.object(analysis, "amplitude_sensitivity",
                               side_effect=analysis.NoOscillation(0.0, 1.0)):
            broken = workloads.measure("scenario-cli", 3, 0, 0, workdir,
                                       setup_repeats=1,
                                       **TINY["scenario-cli"])
        _expect(broken["failed"] > 0 and broken["px_per_cal"] == 0,
                f"scenario-cli: failed report gave px_per_cal "
                f"{broken['px_per_cal']}, failed {broken['failed']}")
        _expect(broken["accurate_frac"] <= clean["accurate_frac"],
                "scenario-cli: a failed report raised accurate_frac")
        print("smoke scenario-cli: a failed command completes no pixels")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with corruptions["forward-maps"], \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = run.main(["--workload", "forward-maps", "--seconds", "0"])
    last = json.loads(out.getvalue().splitlines()[-1])
    _expect(code == 1 and last["correct"] is False,
            f"run.py exited {code} on a corrupted output")
    print("smoke run.py: exits 1 when a correctness check fails")

    kernel_bench = os.path.join(run.ROOT, "benchmarks", "bench_field_kernel.py")
    env = dict(os.environ, PYTHONPATH=run.SRC)
    proc = subprocess.run([sys.executable, kernel_bench, "--segments", "8",
                           "--points", "500", "--repeats", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    _expect(proc.returncode == 0,
            f"bench_field_kernel.py failed: {proc.stdout}{proc.stderr}")
    print("smoke bench_field_kernel.py: ok")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
