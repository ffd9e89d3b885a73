"""Smoke tests of benchmarks/bench_acquisition.py.

It runs as README shows it, from a checkout that is not installed: no
PYTHONPATH and a working directory outside the checkout.
"""

import os
import re
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "benchmarks", "bench_acquisition.py")

TIMING = re.compile(r"^(noiseless|noisy) cube:\s+(\S+) ms \(\s*(\S+) us/frame\)$")


def run_script(args, cwd):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, SCRIPT] + args, capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)


def test_crop_times_noiseless_and_noisy_cubes(tmp_path):
    proc = run_script(["--scenario", "omega-fig3", "--crop", "10",
                       "--repeats", "2"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    head, *timings = proc.stdout.splitlines()
    assert head == "scenario omega-fig3: 100 px x 100 frames, best of 2"
    matches = [TIMING.match(line) for line in timings]
    assert all(matches), proc.stdout
    assert [m.group(1) for m in matches] == ["noiseless", "noisy"]
    for m in matches:
        ms, us = float(m.group(2)), float(m.group(3))
        assert ms > 0
        # ms is printed to 3 decimals, us/frame to 1
        assert us == pytest.approx(ms * 1e3 / 100, abs=0.1)


def test_unknown_scenario_exits_2(tmp_path):
    proc = run_script(["--scenario", "no-such-scenario"], tmp_path)
    assert proc.returncode == 2
    assert "no-such-scenario" in proc.stderr


def test_malformed_device_exits_2_naming_the_field(tmp_path):
    # meander-fig3 gives a 2-D origin_um
    proc = run_script(["--scenario", "meander-fig3", "--repeats", "1"],
                      tmp_path)
    assert proc.returncode == 2
    assert "device.params.origin" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_crop_larger_than_the_grid_exits_2(tmp_path):
    proc = run_script(["--scenario", "omega-fig3", "--crop", "100000"],
                      tmp_path)
    assert proc.returncode == 2
    assert "--crop" in proc.stderr
