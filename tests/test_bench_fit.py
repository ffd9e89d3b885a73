"""Smoke test of benchmarks/bench_fit.py, the fit benchmark script."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

LINE = re.compile(r"stride\s+20 \(\s*(\d+) px\)\s+(\S+): .* converged "
                  r"(\d+)/(\d+), n_budget_exhausted (\d+), "
                  r"n_omega_out_of_bounds (\d+)$")


def test_bench_fit_prints_both_envelopes_with_consistent_counts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "bench_fit.py"),
         "--strides", "20", "--repeats", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [LINE.search(line) for line in proc.stdout.splitlines()
            if line.startswith("stride")]
    assert all(rows), proc.stdout
    assert [m.group(2) for m in rows] == ["double-exp", "single-exp"]
    for m in rows:
        n_px, n_conv, total, n_exhausted, n_out = (
            int(m.group(k)) for k in (1, 3, 4, 5, 6))
        assert total == n_px > 0
        assert n_conv + n_exhausted + n_out <= n_px
