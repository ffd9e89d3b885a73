"""Smoke tests of the benchmark scripts under benchmarks/.

Both run as README shows them, from a checkout that is not installed:
no PYTHONPATH and a working directory outside the checkout.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

LINE = re.compile(r"stride\s+20 \(\s*(\d+) px\)\s+(\S+): .* converged "
                  r"(\d+)/(\d+), n_budget_exhausted (\d+), "
                  r"n_omega_out_of_bounds (\d+)$")
KEPT = re.compile(r"kept doubles (\d+), converged")


def run_script(name, args, cwd):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", name)] + args,
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300)


def test_bench_fit_prints_both_envelopes_with_consistent_counts(tmp_path):
    proc = run_script("bench_fit.py", ["--strides", "20", "--repeats", "1"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [LINE.search(line) for line in proc.stdout.splitlines()
            if line.startswith("stride")]
    assert all(rows), proc.stdout
    assert [m.group(2) for m in rows] == ["double-exp", "single-exp"]
    # the single envelope never keeps a double-exp fit
    kept = [int(KEPT.search(m.string).group(1)) for m in rows]
    assert kept[1] == 0
    for m in rows:
        n_px, n_conv, total, n_exhausted, n_out = (
            int(m.group(k)) for k in (1, 3, 4, 5, 6))
        assert total == n_px > 0
        assert n_conv + n_exhausted + n_out <= n_px


def test_bench_field_kernel_runs_from_an_uninstalled_checkout(tmp_path):
    proc = run_script("bench_field_kernel.py",
                      ["--segments", "4", "--points", "50", "--repeats", "1"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Mpair/s" in proc.stdout
