#!/usr/bin/env python3
"""Timing of the Biot-Savart field accumulation kernel.

By default the kernel runs on one batch of random points against a
random filament bundle. --scenario instead times evaluate_phasor_map on
a bundled scenario with all of its layer heights, the path a forward
map takes. Reports the best of --repeats runs in ms and Mpair/s
(segment-point pairs per second; a map has one pair per segment, pixel
and layer height).

    python3 benchmarks/bench_field_kernel.py --segments 96 --points 20000
    python3 benchmarks/bench_field_kernel.py --scenario cpw-fig2
"""

import argparse
import os
import sys
import time

import numpy as np

# the checkout's sources come first, so that an uninstalled checkout runs
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
from nvscope.kernels import field_accumulate  # noqa: E402


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


def run_scenario(cfg, model, repeats):
    """(best map time, pairs, description) of a loaded scenario and its
    device model."""
    from nvscope.nearfield import evaluate_phasor_map

    n_seg = model.starts.shape[0]
    n_px = cfg.grid.nx * cfg.grid.ny
    n_h = len(cfg.layer.heights())
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        evaluate_phasor_map(model, cfg.grid, cfg.layer)
        best = min(best, time.perf_counter() - t0)
    what = f"scenario {cfg.name}: {n_seg} segments x {n_px} px x {n_h} heights"
    return best, n_seg * n_px * n_h, what


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--segments", type=int, default=96)
    parser.add_argument("--points", type=int, default=20000)
    parser.add_argument("--scenario", metavar="NAME",
                        help="time evaluate_phasor_map on a bundled scenario "
                             "(--segments and --points unused)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    if args.scenario:
        from nvscope.cli import load_scenario
        from nvscope.currents import model_from_spec
        try:
            cfg = load_scenario(args.scenario)
            model = model_from_spec(cfg.device_doc)
        except ValueError as err:  # a ConfigError or a malformed device
            parser.error(str(err))
        t, pairs, what = run_scenario(cfg, model, args.repeats)
        label = "field map"
    else:
        workload = make_workload(args.segments, args.points)
        pairs = args.segments * args.points
        t = run(workload, args.repeats)
        what = f"workload: {args.segments} segments x {args.points} points"
        label = "field kernel"
    print(f"{what} ({pairs:.2e} pairs), best of {args.repeats}")
    print(f"{label}: {t * 1e3:9.2f} ms ({pairs / t / 1e6:8.1f} Mpair/s)")


if __name__ == "__main__":
    main()
