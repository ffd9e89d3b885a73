#!/usr/bin/env python3
"""Timing of the batched Rabi fit on cpw-fig2 pixel samples.

The cube is the one the perfbench rabi-fit workload builds (seeded
noisy cpw-fig2, the workload's own set-up). Each --strides entry fits
the sample of every stride-th pixel with fit_cube (one worker) under
each envelope mode. Stride 10 is the rabi-fit unit (200 px, a block
smaller than FIT_BLOCK_PX); stride 3 (2211 px) is mostly full-size
blocks, as in a map fit; stride 1 is the whole map. Reports the best
of --repeats runs in ms/px, the mean LM residual evaluations per
fitted pixel, the gate's open share (the fitted pixels whose double-exp
solve ran; 0 under the single envelope), the kept double-exp fits
(amp_slow != 0) and the outcome counts that `*.fit.json` reports:
converged, budget exhausted and omega out of bounds.

    python3 benchmarks/bench_fit.py --strides 10 3 --seed 1 --repeats 3
"""

import argparse
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
# the checkout's sources come first, so that an uninstalled checkout runs
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from nvscope import analysis  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def make_cube(seed):
    workload = workloads.RabiFit(seed, None, Tracer(False))
    workload.set_up()
    return workload.cube, workload.truth


def run(cube, mode, repeats):
    cfg = analysis.FitConfig(envelope_mode=mode)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, results = analysis.fit_cube(cube, cfg, n_workers=1)
        best = min(best, time.perf_counter() - t0)
    fitted = results[~results.below_threshold]
    split = analysis.fit_outcome_counts(results)
    counts = (int((results.amp_slow != 0.0).sum()), split["n_converged"],
              split["n_budget_exhausted"], split["n_omega_out_of_bounds"])
    if not fitted.size:
        return (best, 0.0, 0.0) + counts
    return (best, float(fitted.evaluations.mean()),
            float(fitted.double_solved.mean())) + counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strides", type=int, nargs="+", default=[10, 3])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    cube, truth = make_cube(args.seed)
    print(f"cpw-fig2 cube, {cube.n_frames} frames, seed {args.seed}, "
          f"FIT_BLOCK_PX {analysis.FIT_BLOCK_PX}, best of {args.repeats}")
    for stride in args.strides:
        sub, _ = workloads._subsample(cube, truth, stride, 1, 1)
        n_px = sub.grid.nx * sub.grid.ny
        for mode in (analysis.DOUBLE_EXP, analysis.SINGLE_EXP):
            t, evals, opened, n_kept, n_conv, n_exhausted, n_out = run(
                sub, mode, args.repeats)
            print(f"stride {stride:2d} ({n_px:5d} px) {mode:>10}: "
                  f"{t * 1e3 / n_px:7.3f} ms/px {evals:7.1f} LM "
                  f"evaluations/px, gate open {opened:.3f}, kept doubles "
                  f"{n_kept}, converged {n_conv}/{n_px}, n_budget_exhausted "
                  f"{n_exhausted}, n_omega_out_of_bounds {n_out}")


if __name__ == "__main__":
    main()
