"""Acceptance gate: ten numbered pass/fail checks over the whole stack.

One test function per criterion, so `pytest -v` prints exactly one
PASSED/FAILED line for each. Stated tolerances and runtime budgets are
asserted inside the tests; the end-to-end round trip (criterion 3) is
the long pole at roughly half a minute on one core.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from nvscope import cli, formats
from nvscope.acquisition import (CameraTiming, DecayParams, PulseParams,
                                 camera_timing_from_points, contrast_at,
                                 frame_time_ms, simulate_contrast_image,
                                 simulate_cube, simulate_stream)
from nvscope.analysis import (FitConfig, amplitude_sensitivity,
                              characterize_trap, dynamic_range_db,
                              extract_contours, fit_cube, fit_pixel,
                              insertion_loss_db, omega_to_field, stitch)
from nvscope.cli import load_scenario
from nvscope.currents import CurrentModel, model_from_spec, superpose
from nvscope.fieldcore import (GAMMA_NV, SensingLayer, decompose_polarization,
                               flip_axis, layer_average, nv_frame_from_tilt)
from nvscope.nearfield import (GridSpec, PolarizedFieldMap, evaluate_at_points,
                               evaluate_phasor_map, project_polarization)

NO_DECAY = DecayParams(tau_fast_ns=math.inf, tau_slow_ns=math.inf,
                       weight_fast=0.5)


def plane_grid(nx, ny, pitch=4e-6):
    return GridSpec(origin=np.zeros(3),
                    axes=(np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0])),
                    nx=nx, ny=ny, pitch=pitch)


# --------------------------------------------------------------- criterion 1

def test_criterion_01_cpw_power_bookkeeping():
    # 50 mA into 50 ohm is 20.97 dBm; drive at 22.6 dBm loses 1.6-1.7 dB
    t0 = time.perf_counter()
    p_sim, loss = insertion_loss_db(22.6, 0.05, 50.0)
    assert p_sim == pytest.approx(20.97, abs=0.1)
    assert 1.63 <= loss <= 1.70
    assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------------- criterion 2

@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    # leggauss(501) costs about a second; the oracle needs it once
    return np.polynomial.legendre.leggauss(n)


def brute_segment_field(start, end, current, p, n=501):
    # Gauss-Legendre line integration of dl x r / r^3 along the segment
    nodes, weights = _gauss_legendre(n)
    t = 0.5 * (nodes + 1.0)
    d = end - start
    s = start[None, :] + t[:, None] * d[None, :]
    r = p[None, :] - s
    r3 = np.sum(r * r, axis=1) ** 1.5
    integrand = np.cross(np.broadcast_to(d, r.shape), r) / r3[:, None]
    return 1e-7 * current * 0.5 * (weights @ integrand)


def segment_field_at(start, end, current, p):
    # the field kernel on a one-segment model at one point
    model = CurrentModel([start], [end], [current])
    return evaluate_at_points(model, np.asarray(p, dtype=float)[None, :])[0]


def _point_to_line_distance(start, end, p):
    d = end - start
    t = np.dot(p - start, d) / np.dot(d, d)
    return np.linalg.norm(p - (start + t * d))


def test_criterion_02_biot_savart_matches_line_integration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 100:
        start = rng.uniform(-1e-3, 1e-3, 3)
        end = rng.uniform(-1e-3, 1e-3, 3)
        length = np.linalg.norm(end - start)
        if length < 1e-4:
            continue
        p = rng.uniform(-2e-3, 2e-3, 3)
        if _point_to_line_distance(start, end, p) < 0.2 * length:
            continue
        current = complex(rng.normal(), rng.normal())
        if abs(current) < 1e-3:
            continue
        b_fast = segment_field_at(start, end, current, p)
        b_ref = brute_segment_field(start, end, current, p)
        assert np.linalg.norm(b_fast - b_ref) <= (
            1e-9 * np.linalg.norm(b_ref))
        checked += 1

    # long-segment limit: length/distance = 100 approaches mu0 I/(2 pi r)
    b = segment_field_at([-0.5, 0.0, 0.0], [0.5, 0.0, 0.0], 1.0,
                         [0.0, 0.01, 0.0])
    b_wire = 2e-7 * 1.0 / 0.01
    assert abs(np.linalg.norm(b) - b_wire) / b_wire < 1e-3
    assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------- criterion 3

def test_criterion_03_end_to_end_round_trip():
    # forward model -> noiseless 100-step cube -> pixel-wise refit
    t0 = time.perf_counter()
    cfg = load_scenario("cpw-fig2")
    assert cfg.grid.nx * cfg.grid.ny >= 200 * 100
    assert cfg.layer.h == pytest.approx(12e-6)
    assert cfg.layer.d == pytest.approx(14e-6)
    model = model_from_spec(cfg.device_doc)
    fmap = evaluate_phasor_map(model, cfg.grid, cfg.layer)
    bmap = project_polarization(fmap, cfg.nv_frame, "sigma-")
    cube = simulate_cube(bmap, cfg.dt_ns, cfg.pulse, decay=cfg.decay,
                         seed=None)
    span = float(cfg.dt_ns[-1] - cfg.dt_ns[0])
    step = float(np.min(np.diff(cfg.dt_ns)))
    fit_cfg = FitConfig(envelope_mode="single-exp",
                        omega_bounds=(2.0 * math.pi / span, math.pi / step))
    fitted, results = fit_cube(cube, fit_cfg)
    good = results.converged & ~results.below_threshold
    assert good.mean() > 0.5  # sub-cycle pixels sit below the floor
    rel = (fitted.values[good] - bmap.values[good]) / bmap.values[good]
    rms = math.sqrt(float(np.mean(rel ** 2)))
    assert rms <= 0.01
    assert time.perf_counter() - t0 < 300.0


# --------------------------------------------------------------- criterion 4

def test_criterion_04_calibration_identity():
    # 2.8 MHz Rabi frequency is exactly 100 uT at 28 kHz/uT
    omega = 2.0 * math.pi * 2.8e-3  # rad/ns
    assert omega_to_field(omega) == pytest.approx(1e-4, rel=1e-9)
    t = np.arange(8.0, 4000.1, 8.0)
    y = contrast_at(1e-4, t, decay=NO_DECAY, c0=0.05)
    r = fit_pixel(t, y)
    assert r.converged
    assert omega_to_field(r.omega) == pytest.approx(1e-4, rel=1e-9)


# --------------------------------------------------------------- criterion 5

def test_criterion_05_camera_timing_and_stream():
    pulse = PulseParams(n_shots=50)
    timing = camera_timing_from_points((200, 2.2), (50, 0.7), pulse, 30.0)
    assert frame_time_ms(timing, 200, pulse, 30.0) == pytest.approx(2.2,
                                                                    rel=0.05)
    assert frame_time_ms(timing, 50, pulse, 30.0) == pytest.approx(0.7,
                                                                   rel=0.05)

    # the bundled pulse train: two 5 ms on/off cycles, then a 0.5 ms blip
    cfg = load_scenario("pulse-train-fig5")
    model = model_from_spec(cfg.device_doc)
    fmap = evaluate_phasor_map(model, cfg.grid, cfg.layer)
    bmap = project_polarization(fmap, cfg.nv_frame, cfg.transition)
    st = cfg.stream
    frames = simulate_stream(bmap, st["dt_mw_ns"], cfg.pulse,
                             [tuple(e) for e in st["schedule"]],
                             timing=CameraTiming(st["row_time_us"],
                                                 st["overhead_us"]),
                             rows=int(st["rows"]), seed=None,
                             decay=cfg.decay)
    means = np.array([frame.mean() for _, frame in frames])
    on = means > 0.5 * means.max()
    runs = []
    k = 0
    while k < len(on):
        if on[k]:
            j = k
            while j < len(on) and on[j]:
                j += 1
            runs.append(j - k)
            k = j
        else:
            k += 1
    assert len(runs) == 3
    assert runs[0] >= 2 and runs[1] >= 2  # 2.5 ms half-cycles resolved
    assert runs[2] == 1                   # 0.5 ms pulse lands in one frame


# --------------------------------------------------------------- criterion 6

def test_criterion_06_iso_b_contour_calibration():
    # radial profile b(r) = b1 * r1/r puts the m-th odd ridge at r1/m
    dt_ns, r1 = 30.0, 30.0
    b1 = 1.0 / (2.0 * GAMMA_NV * dt_ns * 1e-9)
    nx = ny = 101
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    r = np.hypot(i - 50, j - 50)
    b = np.minimum(np.where(r > 0, b1 * r1 / np.maximum(r, 1e-9), 6 * b1),
                   6 * b1)
    image = contrast_at(b, dt_ns, decay=NO_DECAY, c0=0.05)
    cs = extract_contours(image, dt_mw_ns=dt_ns, min_pixels=12)
    first = cs.ridges[0]
    assert first.order_m == 1
    assert abs(first.b_label - 595.2e-6) / 595.2e-6 <= 1e-3
    radii = np.hypot(first.pixels[:, 0] - 50, first.pixels[:, 1] - 50)
    assert abs(np.median(radii) - r1) <= 1.0


# --------------------------------------------------------------- criterion 7

def test_criterion_07_trap_characterization():
    # synthetic cone: one-sided gradients equal the construction slope
    grad = 2.0  # T/m
    nx, ny, c = 61, 41, (30, 20)
    grid = plane_grid(nx, ny)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cone = PolarizedFieldMap(grid=grid, component="sigma-",
                             values=5e-5 + grad * grid.pitch *
                             np.hypot(i - c[0], j - c[1]))
    rep = characterize_trap(cone, arm=5)
    assert rep.position_px == c
    for side in ("axis0_minus", "axis0_plus", "axis1_minus", "axis1_plus"):
        assert rep.gradients[side] == pytest.approx(grad, rel=0.02)

    # two-ring forward model: reported minimum is the exact argmin
    cfg = load_scenario("trap-fig4-xz")
    model = model_from_spec(cfg.device_doc)
    fmap = evaluate_phasor_map(model, cfg.grid, cfg.layer)
    pmap = project_polarization(fmap, cfg.nv_frame, cfg.transition)
    region = tuple(tuple(r) for r in cfg.trap["search_region_px"])
    rep = characterize_trap(pmap, search_region=region,
                            arm=int(cfg.trap["arm_px"]))
    (i0, i1), (j0, j1) = region
    sub = pmap.values[i0:i1, j0:j1]
    bi, bj = np.unravel_index(np.argmin(sub), sub.shape)
    assert rep.position_px == (bi + i0, bj + j0)
    assert all(g > 0 for g in rep.gradients.values())


# --------------------------------------------------------------- criterion 8

def test_criterion_08_noise_statistics():
    # two Poisson counters at N counts give contrast sigma ~ sqrt(2/N)
    bmap = PolarizedFieldMap(grid=plane_grid(100, 100), component="sigma-",
                             values=np.zeros((100, 100)))
    pulse = PulseParams(counts_ref=1e4)
    frame = simulate_contrast_image(bmap, 100.0, pulse, NO_DECAY,
                                    noise_seed=8, frame_index=0)
    assert frame.size >= 10_000
    assert float(frame.std()) == pytest.approx(1.41e-2, rel=0.10)

    # quadrupled photon budget halves the amplitude sensitivity
    def repeats(counts_ref, seed0):
        small = PolarizedFieldMap(grid=plane_grid(6, 4),
                                  component="sigma-",
                                  values=np.full((6, 4), 3e-4))
        dt = np.arange(10.0, 601.0, 10.0)
        return [simulate_cube(small, dt,
                              PulseParams(counts_ref=counts_ref),
                              decay=NO_DECAY, seed=seed0 + k)
                for k in range(10)]

    eta1 = amplitude_sensitivity(repeats(1e5, 100))
    eta4 = amplitude_sensitivity(repeats(4e5, 900))
    assert eta1 / eta4 == pytest.approx(2.0, rel=0.2)

    assert abs(dynamic_range_db(1e-6, 251.2e-6) - 48.0) <= 0.01


# --------------------------------------------------------------- criterion 9

def test_criterion_09_bundled_scenario_determinism(tmp_path):
    def run_once(outdir):
        assert cli.main(["simulate", "--config", "omega-fig3",
                         "-o", str(outdir)]) == 0
        assert cli.main(["acquire", "--config", "omega-fig3",
                         "-o", str(outdir)]) == 0
        hashes = {}
        for command in ("simulate", "acquire"):
            with open(outdir / f"omega-fig3.{command}.manifest.json") as fh:
                for out in json.load(fh)["outputs"]:
                    hashes[out["path"]] = out["sha256"]
        return hashes

    first = run_once(tmp_path / "a")
    second = run_once(tmp_path / "b")
    binary = [p for p in first if p.endswith((".fmap", ".rcub"))]
    assert any(p.endswith(".rcub") for p in binary)
    assert len([p for p in binary if p.endswith(".fmap")]) == 3
    for path in binary:
        assert first[path] == second[path], path


# -------------------------------------------------------------- criterion 10

def test_criterion_10_randomized_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    cases = 0

    # polarization completeness and axis-flip involution
    for _ in range(400):
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        b *= 10.0 ** rng.uniform(-6, -3)
        frame = nv_frame_from_tilt(rng.uniform(0.0, 89.0),
                                   tilt_plane=rng.choice(["xz", "yz"]))
        par, bp, bm = decompose_polarization(b, frame)
        total = par ** 2 + 2.0 * (bp ** 2 + bm ** 2)
        assert total == pytest.approx(float(np.sum(np.abs(b) ** 2)),
                                      rel=1e-12)
        par_f, bp_f, bm_f = decompose_polarization(b, flip_axis(frame))
        assert par_f == pytest.approx(par, rel=1e-12, abs=1e-30)
        assert bp_f == pytest.approx(bm, rel=1e-12, abs=1e-30)
        assert bm_f == pytest.approx(bp, rel=1e-12, abs=1e-30)
        cases += 1

    # superposition and current scaling of the summed field
    def random_model(n):
        starts, ends, currents = [], [], []
        while len(starts) < n:
            s, e = rng.uniform(-1e-3, 1e-3, 3), rng.uniform(-1e-3, 1e-3, 3)
            if np.linalg.norm(e - s) > 1e-5:
                starts.append(s)
                ends.append(e)
                currents.append(complex(rng.normal(), rng.normal()))
        return CurrentModel(starts, ends, currents)

    for _ in range(200):
        m1 = random_model(rng.integers(1, 4))
        m2 = random_model(rng.integers(1, 4))
        pts = rng.uniform(2e-3, 4e-3, (3, 3))
        b1 = evaluate_at_points(m1, pts)
        b2 = evaluate_at_points(m2, pts)
        both = evaluate_at_points(superpose([m1, m2]), pts)
        assert np.allclose(both, b1 + b2, rtol=1e-12, atol=0.0)
        cases += 1
        alpha = rng.uniform(0.1, 10.0)
        scaled = CurrentModel(m1.starts, m1.ends, alpha * m1.currents)
        assert np.allclose(evaluate_at_points(scaled, pts),
                           alpha * b1, rtol=1e-12, atol=0.0)
        cases += 1

    # fitted Rabi frequency is invariant under trace amplitude scaling
    t = np.arange(8.0, 1200.1, 8.0)
    fit_cfg = FitConfig(envelope_mode="single-exp")
    for _ in range(60):
        f_mhz = rng.uniform(2.0, 40.0)
        y = contrast_at(f_mhz * 1e6 / GAMMA_NV, t, decay=NO_DECAY, c0=0.05)
        alpha = rng.uniform(0.3, 5.0)
        r1 = fit_pixel(t, y, fit_cfg)
        r2 = fit_pixel(t, alpha * y, fit_cfg)
        assert r1.converged and r2.converged
        assert r2.omega == pytest.approx(r1.omega, rel=1e-7)
        cases += 1

    # stitching overlapping cuts reassembles the map exactly
    for _ in range(40):
        nx = int(rng.integers(18, 40))
        ny = int(rng.integers(12, 30))
        values = rng.uniform(1e-5, 1e-3, (nx, ny))
        full = PolarizedFieldMap(grid=plane_grid(nx, ny), values=values,
                                 component="sigma-")
        i0 = int(rng.integers(3, nx - 8))
        i1 = int(rng.integers(i0 + 4, nx - 2))
        g2 = GridSpec(origin=full.grid.origin
                      + i0 * full.grid.pitch * full.grid.axes[0],
                      axes=full.grid.axes, nx=nx - i0, ny=ny,
                      pitch=full.grid.pitch)
        g1 = GridSpec(origin=full.grid.origin, axes=full.grid.axes,
                      nx=i1, ny=ny, pitch=full.grid.pitch)
        t1 = PolarizedFieldMap(grid=g1, component="sigma-",
                               values=values[:i1].copy())
        t2 = PolarizedFieldMap(grid=g2, component="sigma-",
                               values=values[i0:].copy())
        out = stitch([(t1, (0, 0)), (t2, (i0, 0))])
        assert out.values.shape == (nx, ny)
        assert np.array_equal(out.values, values)
        cases += 1

    # slab averaging converges at least at second order in the node count
    for _ in range(100):
        a = rng.uniform(0.5, 3.0)
        h = rng.uniform(1.0, 2.0)
        d = rng.uniform(0.5, 1.5)
        z0, z1 = h - d / 2.0, h + d / 2.0
        exact = math.log((z1 + a) / (z0 + a)) / d
        err = {n: abs(layer_average(lambda x, y, z: 1.0 / (z + a),
                                    SensingLayer(h=h, d=d, n_samples=n),
                                    0.0, 0.0) - exact)
               for n in (4, 16)}
        assert err[16] <= err[4] / 8.0
        cases += 1

    assert cases >= 1000
    assert time.perf_counter() - t0 < 120.0
