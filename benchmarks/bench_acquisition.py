#!/usr/bin/env python3
"""Timing of contrast-cube acquisition on a bundled scenario.

Builds the scenario's polarized field map once, then times
simulate_cube over the scenario's pulse-duration scan, noiseless
(seed None) and with shot noise (the scenario's seed, or 1 when it has
none), and the RCUB1 round trip of the noisy cube: write_cube and
read_cube in a temporary directory. --crop N times an N x N pixel
window at the grid's centre in place of the whole map; `--scenario
omega-fig3 --crop 10` is the size of one cube of the perfbench
scenario-cli unit. Prints the number of threads simulate_cube fills
the frames with (1 for frames under CUBE_CHUNK pixels), then the best
of --repeats runs in ms per cube and us per frame. A separate, untimed
pass then prints the tracemalloc peak of each step (noisy
simulate_cube, write_cube, read_cube) as a multiple of the cube's
stored float32 bytes.

    python3 benchmarks/bench_acquisition.py --scenario cpw-fig2
    python3 benchmarks/bench_acquisition.py --scenario omega-fig3 --crop 10
"""

import argparse
import dataclasses
import functools
import os
import sys
import tempfile
import time
import tracemalloc

# the checkout's sources come first, so that an uninstalled checkout runs
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
from nvscope.acquisition import frame_threads, simulate_cube  # noqa: E402
from nvscope.formats import read_cube, write_cube  # noqa: E402


def crop_grid(grid, n):
    """The n x n pixel window at the centre of grid."""
    i0, j0 = (grid.nx - n) // 2, (grid.ny - n) // 2
    origin = grid.origin + grid.pitch * (i0 * grid.axes[0]
                                         + j0 * grid.axes[1])
    return dataclasses.replace(grid, origin=origin, nx=n, ny=n)


def field_map(cfg, model):
    from nvscope.nearfield import evaluate_phasor_map, project_polarization

    phasor = evaluate_phasor_map(model, cfg.grid, cfg.layer)
    return project_polarization(phasor, cfg.nv_frame, cfg.transition)


def best_time(call, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def traced_peak(call):
    """Peak bytes tracemalloc sees during call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", metavar="NAME", required=True)
    parser.add_argument("--crop", type=int, metavar="N",
                        help="time an N x N pixel window at the grid centre")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    from nvscope.cli import load_scenario
    from nvscope.currents import model_from_spec
    try:
        cfg = load_scenario(args.scenario)
        model = model_from_spec(cfg.device_doc)
    except ValueError as err:  # a ConfigError or a malformed device
        parser.error(str(err))
    if cfg.dt_ns is None:
        parser.error(f"scenario {cfg.name} has no scan section")
    if args.crop is not None:
        if not 1 <= args.crop <= min(cfg.grid.nx, cfg.grid.ny):
            parser.error(f"--crop must be in 1..{min(cfg.grid.nx, cfg.grid.ny)}")
        cfg = dataclasses.replace(cfg, grid=crop_grid(cfg.grid, args.crop))
    bmap = field_map(cfg, model)
    n_px = cfg.grid.nx * cfg.grid.ny
    n_frames = len(cfg.dt_ns)
    seed = cfg.seed if cfg.seed is not None else 1
    simulate = functools.partial(simulate_cube, bmap, cfg.dt_ns, cfg.pulse,
                                 decay=cfg.decay)
    cube = simulate(seed=seed)
    print(f"scenario {cfg.name}: {n_px} px x {n_frames} frames, "
          f"best of {args.repeats}")
    print(f"frame threads: {frame_threads(cube.frames.shape)}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cube.rcub")
        steps = {"noiseless cube": lambda: simulate(seed=None),
                 "noisy cube": lambda: simulate(seed=seed),
                 "write cube": lambda: write_cube(path, cube),
                 "read cube": lambda: read_cube(path)}
        for label, call in steps.items():
            t = best_time(call, args.repeats)
            print(f"{label + ':':16s}{t * 1e3:9.3f} ms "
                  f"({t / n_frames * 1e6:8.1f} us/frame)")
        # untimed: tracemalloc slows every allocation
        n_bytes = n_frames * n_px * 4
        for name, label in (("simulate_cube", "noisy cube"),
                            ("write_cube", "write cube"),
                            ("read_cube", "read cube")):
            peak = traced_peak(steps[label])
            print(f"{'peak ' + name + ':':20s}{peak / n_bytes:6.2f}x "
                  f"the {n_bytes}-byte float32 cube")


if __name__ == "__main__":
    main()
