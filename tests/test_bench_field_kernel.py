"""Smoke tests of benchmarks/bench_field_kernel.py.

It runs as README shows it, from a checkout that is not installed: no
PYTHONPATH and a working directory outside the checkout.
"""

import os
import re
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "benchmarks", "bench_field_kernel.py")

TIMING = re.compile(r"^field kernel:\s+\S+ ms \(\s*\S+ Mpair/s\)$")


def run_script(args, cwd):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, SCRIPT] + args, capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=300)


def test_raw_mode_times_the_kernel(tmp_path):
    proc = run_script(["--segments", "4", "--points", "50", "--repeats", "1"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    head, timing = proc.stdout.splitlines()
    assert head.startswith("workload: 4 segments x 50 points (2.00e+02 pairs)")
    assert TIMING.match(timing), proc.stdout
