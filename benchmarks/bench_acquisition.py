#!/usr/bin/env python3
"""Timing of contrast-cube acquisition on a bundled scenario.

Builds the scenario's polarized field map once, then times
simulate_cube over the scenario's pulse-duration scan, noiseless
(seed None) and with shot noise (the scenario's seed, or 1 when it has
none). --crop N times an N x N pixel window at the grid's centre in
place of the whole map; `--scenario omega-fig3 --crop 10` is the size
of one cube of the perfbench scenario-cli unit. Reports the best of
--repeats runs in ms per cube and us per frame.

    python3 benchmarks/bench_acquisition.py --scenario cpw-fig2
    python3 benchmarks/bench_acquisition.py --scenario omega-fig3 --crop 10
"""

import argparse
import dataclasses
import os
import sys
import time

# the checkout's sources come first, so that an uninstalled checkout runs
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
from nvscope.acquisition import simulate_cube  # noqa: E402


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


def run(bmap, cfg, seed, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate_cube(bmap, cfg.dt_ns, cfg.pulse, decay=cfg.decay, seed=seed)
        best = min(best, time.perf_counter() - t0)
    return best


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
    print(f"scenario {cfg.name}: {n_px} px x {n_frames} frames, "
          f"best of {args.repeats}")
    for label, s in (("noiseless", None), ("noisy", seed)):
        t = run(bmap, cfg, s, args.repeats)
        print(f"{label + ' cube:':16s}{t * 1e3:9.3f} ms "
              f"({t / n_frames * 1e6:8.1f} us/frame)")


if __name__ == "__main__":
    main()
