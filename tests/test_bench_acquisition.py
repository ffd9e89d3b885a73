"""Smoke tests of benchmarks/bench_acquisition.py.

It runs as README shows it, from a checkout that is not installed: no
PYTHONPATH and a working directory outside the checkout.
"""

import os
import re
import subprocess
import sys

import pytest

from nvscope.acquisition import CUBE_CHUNK, JOB_FRAMES
from nvscope.fieldcore import usable_cpus

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "benchmarks", "bench_acquisition.py")

TIMING = re.compile(r"^(noiseless cube|noisy cube|write cube|read cube):"
                    r"\s+(\S+) ms \(\s*(\S+) us/frame\)$")
PEAK = re.compile(r"^peak (simulate_cube|write_cube|read_cube):\s+(\S+)x "
                  r"the (\d+)-byte float32 cube$")


def run_script(args, cwd):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, SCRIPT] + args, capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)


def test_crop_times_cubes_and_their_round_trip(tmp_path):
    proc = run_script(["--scenario", "omega-fig3", "--crop", "10",
                       "--repeats", "2"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    head, threads, *lines = proc.stdout.splitlines()
    assert head == "scenario omega-fig3: 100 px x 100 frames, best of 2"
    # 100-px frames are filled serially
    assert threads == "frame threads: 1"
    timings = [TIMING.match(line) for line in lines[:4]]
    assert all(timings), proc.stdout
    assert [m.group(1) for m in timings] == [
        "noiseless cube", "noisy cube", "write cube", "read cube"]
    for m in timings:
        ms, us = float(m.group(2)), float(m.group(3))
        assert ms > 0
        # ms is printed to 3 decimals, us/frame to 1
        assert us == pytest.approx(ms * 1e3 / 100, abs=0.1)
    peaks = [PEAK.match(line) for line in lines[4:]]
    assert len(peaks) == 3 and all(peaks), proc.stdout
    assert [m.group(1) for m in peaks] == [
        "simulate_cube", "write_cube", "read_cube"]
    for m in peaks:
        assert float(m.group(2)) >= 0
        assert int(m.group(3)) == 100 * 100 * 4
    # reading holds at least the frames it returns
    assert float(peaks[2].group(2)) >= 1.0


def test_frames_of_cube_chunk_pixels_use_the_frame_pool(tmp_path):
    # a 91 x 91 crop holds CUBE_CHUNK pixels or more; its 100 frames make
    # at most 100 // JOB_FRAMES jobs
    assert 91 * 91 >= CUBE_CHUNK
    proc = run_script(["--scenario", "omega-fig3", "--crop", "91",
                       "--repeats", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    head, threads, *lines = proc.stdout.splitlines()
    assert head == "scenario omega-fig3: 8281 px x 100 frames, best of 1"
    assert threads == f"frame threads: {min(usable_cpus(), 100 // JOB_FRAMES)}"
    assert len(lines) == 7, proc.stdout


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
