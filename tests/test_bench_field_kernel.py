"""Smoke tests of benchmarks/bench_field_kernel.py.

It runs as README shows it, from a checkout that is not installed: no
PYTHONPATH and a working directory outside the checkout.
"""

import os
import re
import subprocess
import sys

from nvscope.cli import load_scenario
from nvscope.currents import model_from_spec

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "benchmarks", "bench_field_kernel.py")

TIMING = re.compile(r"^(field map|field kernel):\s+(\S+) ms \(\s*(\S+) Mpair/s\)$")


def run_script(args, cwd):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, SCRIPT] + args, capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)


def test_scenario_mode_times_the_map_with_all_layer_heights(tmp_path):
    proc = run_script(["--scenario", "pulse-train-fig5", "--repeats", "1"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    head, timing = proc.stdout.splitlines()
    cfg = load_scenario("pulse-train-fig5")
    n_seg = model_from_spec(cfg.device_doc).starts.shape[0]
    n_px = cfg.grid.nx * cfg.grid.ny
    n_h = len(cfg.layer.heights())
    assert n_h > 1
    assert head.startswith(f"scenario pulse-train-fig5: {n_seg} segments x "
                           f"{n_px} px x {n_h} heights "
                           f"({n_seg * n_px * n_h:.2e} pairs)")
    m = TIMING.match(timing)
    assert m and m.group(1) == "field map", proc.stdout
    assert float(m.group(2)) > 0 and float(m.group(3)) > 0


def test_raw_mode_times_the_kernel(tmp_path):
    proc = run_script(["--segments", "4", "--points", "50", "--repeats", "1"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    head, timing = proc.stdout.splitlines()
    assert head.startswith("workload: 4 segments x 50 points (2.00e+02 pairs)")
    m = TIMING.match(timing)
    assert m and m.group(1) == "field kernel", proc.stdout


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
