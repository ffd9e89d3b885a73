#!/usr/bin/env python3
"""Timing of the Biot-Savart field accumulation kernel.

The kernel runs on one batch of random points against a random filament
bundle. Reports the best of --repeats runs in ms and Mpair/s
(segment-point pairs per second of wall time, over the worker processes
kernels.field_workers gives: one per usable CPU from
kernels.SPLIT_PAIRS pairs on). A map's own number comes from its
simulate manifest: pairs on the phasor map's entry over
timings_s.field.

    python3 benchmarks/bench_field_kernel.py --segments 96 --points 20000
"""

import argparse
import os
import sys
import time

import numpy as np

# the checkout's sources come first, so that an uninstalled checkout runs
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
from nvscope.kernels import field_accumulate, field_workers  # noqa: E402


def make_workload(n_segments, n_points, seed=0):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-1e-3, 1e-3, (n_segments, 3))
    ends = starts + rng.uniform(-5e-4, 5e-4, (n_segments, 3))
    cur_re = rng.normal(size=n_segments) * 0.05
    cur_im = rng.normal(size=n_segments) * 0.01
    points = rng.uniform(-1e-3, 1e-3, (n_points, 3))
    points[:, 2] = np.abs(points[:, 2]) + 1e-5  # stay off the wires
    return starts, ends, cur_re + 1j * cur_im, points


def run(workload, repeats):
    starts, ends, currents, points = workload
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, _, hit = field_accumulate(starts, ends, currents, points, 1e-9)
        best = min(best, time.perf_counter() - t0)
        if hit is not None:
            raise RuntimeError(
                f"kernel reported (offset, segment, point) {hit} within r_min")
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--segments", type=int, default=96)
    parser.add_argument("--points", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    pairs = args.segments * args.points
    t = run(make_workload(args.segments, args.points), args.repeats)
    print(f"workload: {args.segments} segments x {args.points} points "
          f"({pairs:.2e} pairs) on {field_workers(pairs, args.points)} "
          f"worker process(es), best of {args.repeats}")
    print(f"field kernel: {t * 1e3:9.2f} ms ({pairs / t / 1e6:8.1f} Mpair/s)")


if __name__ == "__main__":
    main()
