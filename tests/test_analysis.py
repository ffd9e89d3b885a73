"""Tests for trace fitting, contour labeling, stitching and map metrics.

The contrast generator doubles as the fit oracle: traces synthesized at
a known field must fit back to the same frequency. With envelope decay
the generator's decaying baseline is absorbed by the constant offset
term, which biases slow oscillations; the consistency sweeps below use
either no decay (exact match) or frequencies fast enough that the bias
stays under 0.1%.
"""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from nvscope import analysis as ana
from nvscope.acquisition import (DecayParams, PulseParams, contrast_at,
                                 simulate_contrast_image, simulate_cube)
from nvscope.analysis import (FitConfig, TrapNotFound, amplitude_sensitivity,
                              characterize_trap, dynamic_range_db,
                              extract_contours, fit_cube, fit_pixel,
                              insertion_loss_db, omega_to_field, stitch)
from nvscope.cli import load_scenario
from nvscope.currents import model_from_spec
from nvscope.fieldcore import GAMMA_NV
from nvscope.nearfield import (GridSpec, PolarizedFieldMap,
                               evaluate_phasor_map, project_polarization)

NO_DECAY = DecayParams(tau_fast_ns=math.inf, tau_slow_ns=math.inf,
                       weight_fast=0.5)
STD_DECAY = DecayParams(tau_fast_ns=300.0, tau_slow_ns=3000.0,
                        weight_fast=0.5)
DT_4US = np.arange(8.0, 4000.1, 8.0)


def plane_grid(nx, ny, pitch=4e-6, origin=(0.0, 0.0, 0.0)):
    return GridSpec(origin=np.array(origin, dtype=float),
                    axes=(np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0])),
                    nx=nx, ny=ny, pitch=pitch)


def uniform_field_map(nx, ny, b, **kw):
    grid = plane_grid(nx, ny, **kw)
    return PolarizedFieldMap(grid=grid, component="sigma-",
                             values=np.full((nx, ny), b))


# ---------------------------------------------------------------- calibration

def test_omega_to_field_calibration_point():
    # 2.8 MHz Rabi frequency maps to 100 uT
    omega = 2.0 * math.pi * 2.8e-3
    assert omega_to_field(omega) == pytest.approx(1e-4, rel=1e-9)


def test_omega_to_field_linear():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = rng.uniform(1e-4, 1.0)
        k = rng.uniform(0.1, 10.0)
        assert omega_to_field(k * w) == pytest.approx(
            k * omega_to_field(w), rel=1e-12)


# -------------------------------------------------------------- single traces

def test_fit_exact_model_roundtrip():
    # data generated from the fit model itself must come back exactly
    t = DT_4US
    a, b, c = 0.024, 0.011, 0.013
    tf, ts = 410.0, 2600.0
    w, phi = 2.0 * math.pi * 7.3e-3, 1.1
    y = a - (b * np.exp(-t / tf) + c * np.exp(-t / ts)) * np.sin(w * t + phi)
    r = fit_pixel(t, y)
    assert r.converged
    assert r.omega == pytest.approx(w, rel=1e-9)
    assert r.offset == pytest.approx(a, rel=1e-7)
    assert r.amp_fast == pytest.approx(b, rel=1e-5)
    assert r.amp_slow == pytest.approx(c, rel=1e-5)
    assert r.tau_fast_ns == pytest.approx(tf, rel=1e-4)
    assert r.tau_slow_ns == pytest.approx(ts, rel=1e-4)
    assert r.phase == pytest.approx(phi, rel=1e-6)
    assert r.residual_rms < 1e-10


def test_fit_consistency_no_decay_sweep():
    for f_mhz in np.geomspace(0.5, 50, 20):
        b = f_mhz * 1e6 / GAMMA_NV
        y = contrast_at(b, DT_4US, decay=NO_DECAY, c0=0.05)
        r = fit_pixel(DT_4US, y)
        w_true = 2.0 * math.pi * f_mhz * 1e-3
        assert r.converged
        assert abs(r.omega - w_true) / w_true < 1e-6


def test_fit_consistency_with_decay_sweep():
    # decaying-baseline bias measured < 5e-4 over this range
    for f_mhz in np.geomspace(12, 50, 20):
        b = f_mhz * 1e6 / GAMMA_NV
        y = contrast_at(b, DT_4US, decay=STD_DECAY, c0=0.05)
        r = fit_pixel(DT_4US, y)
        w_true = 2.0 * math.pi * f_mhz * 1e-3
        assert r.converged
        assert abs(r.omega - w_true) / w_true < 1e-3


def test_fit_scale_invariance():
    b = 5.2e6 / GAMMA_NV
    y = contrast_at(b, DT_4US, decay=STD_DECAY, c0=0.05)
    r1 = fit_pixel(DT_4US, y)
    r2 = fit_pixel(DT_4US, 3.7 * y)
    assert r1.converged and r2.converged
    assert r2.omega == pytest.approx(r1.omega, rel=1e-6)
    assert r2.amp_fast == pytest.approx(3.7 * r1.amp_fast, rel=1e-4)
    assert r2.offset == pytest.approx(3.7 * r1.offset, rel=1e-4)


def test_fit_single_exp_mode():
    t = DT_4US
    w = 2.0 * math.pi * 6.0e-3
    y = 0.02 - 0.015 * np.exp(-t / 700.0) * np.sin(w * t + 0.4)
    r = fit_pixel(t, y, FitConfig(envelope_mode="single-exp"))
    assert r.amp_slow == 0.0
    assert r.tau_slow_ns == r.tau_fast_ns
    assert r.omega == pytest.approx(w, rel=1e-9)
    assert r.tau_fast_ns == pytest.approx(700.0, rel=1e-6)


def test_fit_degenerate_envelope_falls_back_to_single():
    # single-exponential data under the default double envelope
    t = DT_4US
    w = 2.0 * math.pi * 6.0e-3
    y = 0.02 - 0.015 * np.exp(-t / 700.0) * np.sin(w * t + 0.4)
    r = fit_pixel(t, y)
    assert r.amp_slow == 0.0
    assert r.tau_slow_ns == r.tau_fast_ns
    assert r.omega == pytest.approx(w, rel=1e-8)
    assert r.residual_rms < 1e-8


def test_fit_tau_ordering_and_sign_invariants():
    rng = np.random.default_rng(21)
    t = np.arange(10.0, 2500.0, 10.0)
    checked = 0
    for _ in range(60):
        f_mhz = rng.uniform(2.0, 40.0)
        b = f_mhz * 1e6 / GAMMA_NV
        decay = DecayParams(tau_fast_ns=rng.uniform(150, 900),
                            tau_slow_ns=rng.uniform(1500, 9000),
                            weight_fast=rng.uniform(0.2, 0.8))
        y = contrast_at(b, t, decay=decay, c0=rng.uniform(0.01, 0.1))
        y = y + rng.normal(0.0, 2e-4, len(t))
        r = fit_pixel(t, y)
        if r.below_threshold or r.exhausted:
            continue
        assert r.tau_fast_ns <= r.tau_slow_ns
        assert r.omega >= 0.0
        assert -math.pi < r.phase <= math.pi + 1e-12
        checked += 1
    assert checked > 40


def test_fit_flat_trace_flagged():
    t = np.arange(10.0, 1000.0, 10.0)
    assert fit_pixel(t, np.zeros(len(t))).below_threshold


def test_fit_pure_noise_flagged():
    rng = np.random.default_rng(17)
    t = np.arange(20.0, 2001.0, 20.0)
    y = rng.normal(0.0, 1.41e-2, len(t))
    assert fit_pixel(t, y).below_threshold
    _, snr = ana._periodogram_peaks(t, y[None, :])
    assert snr[0] < ana.MIN_SNR


def test_fit_snr_threshold_configurable(monkeypatch):
    rng = np.random.default_rng(17)
    t = np.arange(20.0, 2001.0, 20.0)
    y = rng.normal(0.0, 1.41e-2, len(t))
    monkeypatch.setattr(ana, "MIN_SNR", 0.0)
    monkeypatch.setattr(ana, "MAX_EVALS", 2000)
    r = fit_pixel(t, y)
    assert r.dtype == ana.FIT_DTYPE
    assert not r.below_threshold and not r.exhausted


def test_fit_omega_outside_bounds_marked_not_converged():
    b = 5e6 / GAMMA_NV
    y = contrast_at(b, DT_4US, decay=NO_DECAY, c0=0.05)
    w_true = 2.0 * math.pi * 5e-3
    cfg = FitConfig(omega_bounds=(2.0 * w_true, 4.0 * w_true))
    r = fit_pixel(DT_4US, y, cfg)
    assert not r.converged
    assert not r.exhausted and not r.below_threshold


def test_fit_iteration_budget_exhaustion_flagged(monkeypatch):
    b = 8e6 / GAMMA_NV
    y = contrast_at(b, DT_4US, decay=STD_DECAY, c0=0.05)
    monkeypatch.setattr(ana, "MAX_EVALS", 2)
    r = fit_pixel(DT_4US, y)
    assert r.exhausted and not r.converged


def test_fit_input_validation():
    t = np.arange(10.0, 80.0, 10.0)  # 7 samples
    with pytest.raises(ValueError, match="at least 8"):
        fit_pixel(t, np.zeros(len(t)))
    t = np.array([10.0, 20.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_pixel(t, np.zeros(len(t)))
    with pytest.raises(ValueError, match="match"):
        fit_pixel(np.arange(10.0, 110.0, 10.0), np.zeros(5))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(omega_bounds=(1.0, 0.5))
    with pytest.raises(ValueError):
        FitConfig(envelope_mode="triple")


# -------------------------------------------------------------------- cubes

def graded_field_map(nx=6, ny=5):
    grid = plane_grid(nx, ny)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    values = 2e-4 + 1.5e-5 * i + 0.7e-5 * j
    return PolarizedFieldMap(grid=grid, component="sigma-", values=values)


def test_fit_cube_recovers_field_map():
    bmap = graded_field_map()
    dt = np.arange(10.0, 601.0, 10.0)
    cube = simulate_cube(bmap, dt, pulse=PulseParams(), decay=NO_DECAY)
    fmap, results = fit_cube(cube)
    assert fmap.component == "sigma-"
    assert all(r.converged for r in results.ravel())
    assert np.max(np.abs(fmap.values - bmap.values) / bmap.values) < 1e-6


def test_fit_cube_calibration_linearity():
    bmap = graded_field_map()
    dt = np.arange(10.0, 601.0, 10.0)
    alpha = 1.35
    scaled = PolarizedFieldMap(grid=bmap.grid, component=bmap.component,
                               values=alpha * bmap.values)
    fit1, _ = fit_cube(simulate_cube(bmap, dt, pulse=PulseParams(),
                                     decay=NO_DECAY))
    fit2, _ = fit_cube(simulate_cube(scaled, dt, pulse=PulseParams(),
                                     decay=NO_DECAY))
    assert np.max(np.abs(fit2.values - alpha * fit1.values)
                  / (alpha * fit1.values)) < 1e-6


def test_fit_cube_flags_dead_pixels():
    grid = plane_grid(4, 3)
    values = np.full((4, 3), 2.5e-4)
    values[1, 1] = 0.0
    values[3, 0] = 0.0
    bmap = PolarizedFieldMap(grid=grid, component="sigma-", values=values)
    dt = np.arange(10.0, 601.0, 10.0)
    cube = simulate_cube(bmap, dt, pulse=PulseParams(), decay=NO_DECAY)
    fmap, results = fit_cube(cube)
    for (i, j) in [(1, 1), (3, 0)]:
        assert results[i, j].below_threshold
        assert not results[i, j].converged
        assert fmap.values[i, j] == 0.0
    assert results[0, 0].converged
    assert fmap.values[0, 0] == pytest.approx(2.5e-4, rel=1e-6)


def assert_same_result(r1, r2, ignore=()):
    # every field but those ignored, bit for bit
    names = [k for k in ana.FIT_DTYPE.names if k not in ignore]
    assert ([r1[k].tobytes() for k in names]
            == [r2[k].tobytes() for k in names]), (r1, r2)


def below_threshold_record(trace):
    # what the fitter reports for a trace without a detectable oscillation
    return np.array((np.mean(trace), 0.0, 0.0, math.inf, math.inf, 0.0, 0.0,
                     np.std(trace), False, True, 0, False, False),
                    dtype=ana.FIT_DTYPE)[()]


def test_fit_cube_worker_count_invariant():
    bmap = graded_field_map(4, 3)
    dt = np.arange(10.0, 601.0, 10.0)
    cube = simulate_cube(bmap, dt, pulse=PulseParams(), decay=NO_DECAY,
                         seed=99)
    map1, res1 = fit_cube(cube, n_workers=1)
    map2, res2 = fit_cube(cube, n_workers=2)
    assert np.array_equal(map1.values, map2.values)
    for r1, r2 in zip(res1.ravel(), res2.ravel()):
        assert_same_result(r1, r2)


@pytest.mark.parametrize("cpus, requested, pool_size", [
    (3, 5000, 3), (3, 2, 2), (1, 4, None), (3, 1, None), (3, 0, None)])
def test_fit_cube_pool_never_exceeds_cpus(monkeypatch, cpus, requested,
                                          pool_size):
    sizes = []

    class SerialPool:
        # records the pool size and maps in this process; starts nothing
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(ana, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(ana.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    cube = simulate_cube(graded_field_map(4, 3), np.arange(10.0, 601.0, 10.0),
                         pulse=PulseParams(), decay=NO_DECAY, seed=99)
    fmap, results = fit_cube(cube, n_workers=requested)
    assert sizes == ([] if pool_size is None else [pool_size])
    ref_map, ref = fit_cube(cube, n_workers=1)
    assert fmap.values.tobytes() == ref_map.values.tobytes()
    assert results.tobytes() == ref.tobytes()


def test_fit_outcome_counts_split_the_pixels():
    records = np.zeros(6, dtype=ana.FIT_DTYPE).view(np.recarray)
    records.converged = [True, True, False, False, False, False]
    records.below_threshold = [False, False, True, False, False, False]
    records.exhausted = [False, False, False, True, False, False]
    records.double_solved = [False, True, False, True, True, False]
    # single envelope: amp_slow 0 and equal taus; the below-threshold
    # pixel has both too but is not a fit
    records.amp_slow = [0.0, 0.1, 0.0, 0.0, 0.1, 0.0]
    records.tau_fast_ns = [100.0, 100.0, math.inf, 100.0, 100.0, 100.0]
    records.tau_slow_ns = [100.0, 300.0, math.inf, 100.0, 300.0, 100.0]
    assert ana.fit_outcome_counts(records.reshape(2, 3)) == {
        "n_pixels": 6, "n_converged": 2, "n_below_threshold": 1,
        "n_single_envelope": 3, "n_double_solves": 3,
        "n_budget_exhausted": 1, "n_omega_out_of_bounds": 2}


def test_fit_cube_pixels_equal_solo_fits(monkeypatch):
    # a pixel's result must not depend on the other pixels of its block;
    # the short budget makes some solves run out of evaluations
    grid = plane_grid(8, 6)
    i, j = np.meshgrid(np.arange(8), np.arange(6), indexing="ij")
    values = 1.5e-4 + 2.5e-5 * i + 1.2e-5 * j
    values[2, 3] = values[5, 0] = 0.0  # no oscillation
    bmap = PolarizedFieldMap(grid=grid, component="sigma-", values=values)
    dt = np.arange(10.0, 1001.0, 10.0)
    cube = simulate_cube(bmap, dt, pulse=PulseParams(counts_ref=2e4),
                         decay=STD_DECAY, seed=5)
    outcomes = set()
    for budget in (ana.MAX_EVALS, 10):
        monkeypatch.setattr(ana, "MAX_EVALS", budget)
        _, results = fit_cube(cube)
        for (i, j), r in np.ndenumerate(results):
            trace = cube.frames[:, i, j]
            solo = fit_pixel(dt, trace)
            assert_same_result(r, solo)
            if solo.below_threshold:
                assert_same_result(solo, below_threshold_record(trace))
                outcomes.add("below threshold")
            elif solo.exhausted:
                outcomes.add("not converged")
            else:
                outcomes.add("single" if solo.amp_slow == 0.0 else "double")
    assert outcomes == {"single", "double", "below threshold",
                        "not converged"}


def test_double_mode_single_pixels_equal_single_envelope_fits(monkeypatch):
    # a pixel that the double envelope reports single-exp carries C = 0
    # exactly and is its single-envelope fit; every other pixel is a
    # kept double fit
    grid = plane_grid(8, 6)
    i, j = np.meshgrid(np.arange(8), np.arange(6), indexing="ij")
    bmap = PolarizedFieldMap(grid=grid, component="sigma-",
                             values=1.5e-4 + 2.5e-5 * i + 1.2e-5 * j)
    dt = np.arange(10.0, 1001.0, 10.0)
    cube = simulate_cube(bmap, dt, pulse=PulseParams(counts_ref=2e4),
                         decay=STD_DECAY, seed=5)
    seen = set()
    for budget in (400, 10):
        monkeypatch.setattr(ana, "MAX_EVALS", budget)
        _, double = fit_cube(cube)
        _, single = fit_cube(cube, FitConfig(envelope_mode=ana.SINGLE_EXP))
        for d, s in zip(double.ravel(), single.ravel()):
            if d.amp_slow == 0.0 or d.tau_slow_ns == d.tau_fast_ns:
                seen.add("single exhausted" if d.exhausted else "single")
                assert d.amp_slow == 0.0
                assert d.tau_slow_ns == d.tau_fast_ns
                # the same solve: only the evaluation count, which adds
                # the discarded double solve's, and the record of that
                # solve differ
                assert_same_result(d, s, ignore=("evaluations",
                                                 "double_solved"))
            else:
                seen.add("double")
                assert d.converged and d.residual_rms < s.residual_rms
    assert seen == {"single", "single exhausted", "double"}


def test_double_gate_skips_only_discarded_double_solves(monkeypatch):
    # reference: both envelopes solved on every row, then the BIC rule;
    # the gated fit must equal it in every field but the evaluation
    # count and the record of which solves ran. A stride-10 sample of
    # the cpw-fig2 map with its decay and noise, so that some doubles are
    # kept and most solves are skipped
    cfg = load_scenario("cpw-fig2")
    g = cfg.grid
    grid = GridSpec(origin=g.origin, axes=g.axes, nx=g.nx // 10,
                    ny=g.ny // 10, pitch=10 * g.pitch)
    phasor = evaluate_phasor_map(model_from_spec(cfg.device_doc), grid,
                                 cfg.layer)
    bmap = project_polarization(phasor, cfg.nv_frame, cfg.transition)
    cube = simulate_cube(bmap, cfg.dt_ns, cfg.pulse, decay=cfg.decay,
                         seed=cfg.seed)
    fit_cfg = FitConfig()
    _, results = fit_cube(cube, fit_cfg)

    t = cube.dt_ns
    n = len(t)
    y = np.ascontiguousarray(cube.frames.reshape(n, -1).T)
    freq, snr = ana._periodogram_peaks(t, y)
    fit = np.flatnonzero(snr >= ana.MIN_SNR)
    yf = y[fit]
    x0, x0_d = ana._seed_rows(t, yf, freq[fit])
    lo, hi = ana._default_omega_bounds(t)
    x, ssq, _, conv = ana._levenberg_marquardt(t, yf.copy(), x0, 1,
                                               (lo, hi))
    x_d, ssq_d, _, conv_d = ana._levenberg_marquardt(t, yf.copy(), x0_d, 2)
    floor = n * (1e-10 * np.maximum(np.max(np.abs(yf), axis=1),
                                    1e-30)) ** 2
    dbic = (n * np.log((0.5 * ssq + floor) / (0.5 * ssq_d + floor))
            - 2.0 * math.log(n))
    omega_d = np.abs(x_d[:, -2])
    keep = conv_d & (dbic >= ana.BIC_MARGIN) & (lo < omega_d) & (omega_d < hi)

    # the fitter itself with the gate open on every row
    monkeypatch.setattr(ana, "DOUBLE_GATE", 0.0)
    _, ref = fit_cube(cube, fit_cfg)

    flat, ref_flat = results.ravel(), ref.ravel()
    for k in np.flatnonzero(snr < ana.MIN_SNR):
        assert_same_result(flat[k], below_threshold_record(y[k]))
    for row, k in enumerate(fit):
        assert ref_flat[k].double_solved
        assert_same_result(flat[k], ref_flat[k],
                           ignore=("evaluations", "double_solved"))
        # the kept solve is the one the rule above picks
        if keep[row]:
            params, rss, ok = x_d[row], ssq_d[row], True
        else:
            params, rss, ok = x[row], ssq[row], conv[row]
        omega = abs(params[-2])
        assert (flat[k].amp_slow != 0.0) == keep[row]
        assert flat[k].offset == params[0]
        assert flat[k].omega == omega
        assert flat[k].residual_rms == math.sqrt(rss / n)
        assert flat[k].converged == (ok and lo < omega < hi)
        assert flat[k].exhausted == (not ok)
    assert keep.any()
    assert not all(flat[k].double_solved for k in fit)


def test_omega_exit_changes_only_rows_that_left_the_bounds(monkeypatch):
    # reference: the single solve with the exit disabled (bounds (0, inf)),
    # then the gate and the BIC rule as usual. On a stride-10 sample of
    # the cpw-fig2 map a row that left the omega bounds stops early and
    # is reported out of bounds; no other pixel and no field changes
    cfg = load_scenario("cpw-fig2")
    g = cfg.grid
    grid = GridSpec(origin=g.origin, axes=g.axes, nx=g.nx // 10,
                    ny=g.ny // 10, pitch=10 * g.pitch)
    phasor = evaluate_phasor_map(model_from_spec(cfg.device_doc), grid,
                                 cfg.layer)
    bmap = project_polarization(phasor, cfg.nv_frame, cfg.transition)
    cube = simulate_cube(bmap, cfg.dt_ns, cfg.pulse, decay=cfg.decay,
                         seed=cfg.seed)
    solver = ana._levenberg_marquardt
    single_evals = []

    def recorded(t, y, x, k, omega_bounds=None, ssq_single=None):
        out = solver(t, y, x, k, omega_bounds, ssq_single)
        if k == 1:
            single_evals.append(out[2])
        return out

    def no_exit(t, y, x, k, omega_bounds=None, ssq_single=None):
        if omega_bounds is not None:
            omega_bounds = (0.0, math.inf)
        return recorded(t, y, x, k, omega_bounds, ssq_single)

    monkeypatch.setattr(ana, "_levenberg_marquardt", recorded)
    fmap, results = fit_cube(cube)
    monkeypatch.setattr(ana, "_levenberg_marquardt", no_exit)
    ref_map, ref = fit_cube(cube)

    assert fmap.values.tobytes() == ref_map.values.tobytes()
    flat, ref_flat = results.ravel(), ref.ravel()
    fitted = [k for k, r in enumerate(ref_flat) if not r.below_threshold]
    evals, ref_evals = single_evals
    exited = evals != ref_evals
    assert exited.any()
    for row, k in enumerate(fitted):
        if exited[row]:
            assert evals[row] < ref_evals[row]
            assert not flat[k].converged and not flat[k].exhausted
        else:
            assert_same_result(flat[k], ref_flat[k],
                               ignore=("evaluations",))
    for k in set(range(len(flat))) - set(fitted):
        assert_same_result(flat[k], ref_flat[k])


def test_fit_pixel_sub_cycle_trace_leaves_bounds_early():
    # a fifth of a Rabi cycle in the scan: the single solve drifts below
    # the omega bounds and stops instead of using its whole budget
    t = np.arange(20.0, 2000.1, 20.0)
    b = 0.2 / (2e-6 * GAMMA_NV)
    decay = DecayParams(tau_fast_ns=2e4, tau_slow_ns=1e5, weight_fast=0.5)
    y = (contrast_at(b, t, decay=decay, c0=0.05)
         + np.random.default_rng(0).normal(0.0, 2e-3, len(t)))
    cfg = FitConfig(envelope_mode=ana.SINGLE_EXP)
    r = fit_pixel(t, y, cfg)
    assert not r.converged and not r.exhausted
    assert ana.OMEGA_EXIT_EVALS <= r.evaluations < ana.MAX_EVALS
    assert r.omega <= ana._default_omega_bounds(t)[0]


@lru_cache(maxsize=None)
def cpw_fig2_stride10_cube(oi, oj):
    # pixels (oi::10, oj::10) of the cpw-fig2 map, with its decay and noise
    cfg = load_scenario("cpw-fig2")
    g = cfg.grid
    grid = GridSpec(origin=g.origin + g.pitch * (oi * g.axes[0]
                                                 + oj * g.axes[1]),
                    axes=g.axes, nx=g.nx // 10, ny=g.ny // 10,
                    pitch=10 * g.pitch)
    phasor = evaluate_phasor_map(model_from_spec(cfg.device_doc), grid,
                                 cfg.layer)
    bmap = project_polarization(phasor, cfg.nv_frame, cfg.transition)
    return simulate_cube(bmap, cfg.dt_ns, cfg.pulse, decay=cfg.decay,
                         seed=cfg.seed)


# of the 100 stride-10 samples of cpw-fig2, this one holds the kept double
# that reaches the BIC margin latest, at evaluation 13; so a double exit
# before that evaluation changes its map
LATE_DOUBLE_SAMPLE = (3, 5)


def test_double_exit_changes_only_discarded_double_solves(monkeypatch):
    # reference: the double solve with its BIC exit disabled. A double row
    # that leaves early is one the BIC rule discards, so no field but the
    # evaluation count changes, and that only on the rows that left
    cube = cpw_fig2_stride10_cube(*LATE_DOUBLE_SAMPLE)
    solver = ana._levenberg_marquardt
    double_evals = []

    def recorded(t, y, x, k, omega_bounds=None, ssq_single=None):
        out = solver(t, y, x, k, omega_bounds, ssq_single)
        if k == 2:
            double_evals.append(out[2])
        return out

    def no_exit(t, y, x, k, omega_bounds=None, ssq_single=None):
        return recorded(t, y, x, k, omega_bounds)

    monkeypatch.setattr(ana, "_levenberg_marquardt", recorded)
    fmap, results = fit_cube(cube)
    monkeypatch.setattr(ana, "_levenberg_marquardt", no_exit)
    ref_map, ref = fit_cube(cube)

    assert fmap.values.tobytes() == ref_map.values.tobytes()
    for r, q in zip(results.ravel(), ref.ravel()):
        assert_same_result(r, q, ignore=("evaluations",))
    evals, ref_evals = double_evals
    exited = evals != ref_evals
    assert exited.any()
    assert (evals[exited] >= ana.OMEGA_EXIT_EVALS).all()
    assert (evals[exited] < ref_evals[exited]).all()
    saved = ref.evaluations - results.evaluations
    assert sorted(saved[saved != 0]) == sorted(ref_evals[exited]
                                               - evals[exited])
    assert (results.amp_slow != 0.0).any()


# no kept double of the 100 stride-10 samples of cpw-fig2 has its |omega|
# outside the bounds at any evaluation; this sample holds the most double
# rows (5) that the omega exit stops
MOST_DOUBLE_EXITS_SAMPLE = (5, 0)


def test_double_omega_exit_changes_only_rows_that_left_the_bounds(
        monkeypatch):
    # reference: the double solve with its omega exit disabled (bounds
    # (0, inf) in its loop), then the BIC rule, which never keeps a double
    # outside the bounds. A double row that leaves early is one the rule
    # discards, so no field but the evaluation count changes
    cube = cpw_fig2_stride10_cube(*MOST_DOUBLE_EXITS_SAMPLE)
    solver = ana._levenberg_marquardt
    double_evals = []

    def recorded(t, y, x, k, omega_bounds=None, ssq_single=None):
        out = solver(t, y, x, k, omega_bounds, ssq_single)
        if k == 2:
            double_evals.append(out[2])
        return out

    def no_exit(t, y, x, k, omega_bounds=None, ssq_single=None):
        if k == 2:
            omega_bounds = (0.0, math.inf)
        return recorded(t, y, x, k, omega_bounds, ssq_single)

    monkeypatch.setattr(ana, "_levenberg_marquardt", recorded)
    fmap, results = fit_cube(cube)
    monkeypatch.setattr(ana, "_levenberg_marquardt", no_exit)
    ref_map, ref = fit_cube(cube)

    assert fmap.values.tobytes() == ref_map.values.tobytes()
    for r, q in zip(results.ravel(), ref.ravel()):
        assert_same_result(r, q, ignore=("evaluations",))
    evals, ref_evals = double_evals
    exited = evals != ref_evals
    assert exited.any()
    assert (evals[exited] >= ana.OMEGA_EXIT_EVALS).all()
    assert (evals[exited] < ref_evals[exited]).all()
    assert (results.amp_slow != 0.0).any()


@pytest.mark.parametrize("sample", [(0, 0), LATE_DOUBLE_SAMPLE])
def test_kept_doubles_reach_the_bic_margin_by_half_the_exit(sample,
                                                           monkeypatch):
    # the double exit discards a row still short of BIC_MARGIN after
    # OMEGA_EXIT_EVALS evaluations. Every double the fit keeps is past the
    # margin after half of them already, so the exit keeps a margin of 2x
    cube = cpw_fig2_stride10_cube(*sample)
    fit_cfg = FitConfig()
    _, results = fit_cube(cube, fit_cfg)
    t = cube.dt_ns
    y = np.ascontiguousarray(cube.frames.reshape(len(t), -1).T)
    freq, snr = ana._periodogram_peaks(t, y)
    fit = np.flatnonzero(snr >= ana.MIN_SNR)
    yf = y[fit]
    x0, x0_d = ana._seed_rows(t, yf, freq[fit])
    _, ssq, _, _ = ana._levenberg_marquardt(t, yf.copy(), x0, 1,
                                            ana._default_omega_bounds(t))
    kept = results.ravel()[fit].amp_slow != 0.0
    assert kept.any()
    monkeypatch.setattr(ana, "MAX_EVALS", ana.OMEGA_EXIT_EVALS // 2)
    _, ssq_d, _, _ = ana._levenberg_marquardt(t, yf[kept], x0_d[kept], 2)
    gain = ana._bic_gain(ssq[kept], ssq_d, ana._rss_floor(yf[kept]), len(t))
    assert (gain >= ana.BIC_MARGIN).all()


def test_fit_records_describe_the_solver_curves(monkeypatch):
    # a record describes the curve of the solve it keeps, folded to
    # omega >= 0, B + C >= 0, tau_fast <= tau_slow and |phase| <= pi.
    # The solver is replaced by fixed solutions that need every fold;
    # rows 1 and 3 keep a converged double over an exhausted single,
    # row 4 keeps its single, whose |omega| sits on the lower bound, and
    # row 5 keeps its converged single over a converged double whose
    # |omega| is below the lower bound
    t = DT_4US
    lo, hi = ana._default_omega_bounds(t)
    w = 0.0377
    l3, l7, l25 = math.log(300.0), math.log(700.0), math.log(2500.0)
    single = np.array([[0.02, 0.015, l7, w, 0.4],
                       [0.02, -0.015, l7, w, 0.4],
                       [0.02, 0.015, l7, -w, 7.0],
                       [0.02, -0.015, l7, -w, -9.5],
                       [0.02, 0.015, l7, -lo, 0.4],
                       [0.02, 0.015, l7, w, 0.4]])
    double = np.array([[0.02, 0.010, 0.005, l25, l3, w, 0.4],
                       [0.02, -0.010, 0.004, l3, l25, -w, 3.0],
                       [0.02, 0.002, -0.010, l25, l3, w, -4.0],
                       [0.02, -0.010, -0.004, l3, l25, -w, 12.0],
                       [0.02, 0.010, 0.005, l3, l25, w, 0.4],
                       [0.02, 0.010, 0.005, l3, l25, lo / 2, 0.4]])
    conv = {1: np.array([True, False, True, False, True, True]),
            2: np.array([True, True, True, True, False, True])}

    def solver(t, y, x, k, omega_bounds=None, ssq_single=None):
        rows = single if k == 1 else double
        ssq = np.full(len(rows), 1e6 if k == 1 else 1e-12)
        return rows.copy(), ssq, np.ones(len(rows), dtype=int), conv[k]

    def curve(a, b, c, tau_f, tau_s, omega, phase):
        return a - ((b * np.exp(-t / tau_f) + c * np.exp(-t / tau_s))
                    * np.sin(omega * t + phase))

    monkeypatch.setattr(ana, "_levenberg_marquardt", solver)
    y = np.tile(0.02 - 0.015 * np.exp(-t / 700.0) * np.sin(w * t + 0.4),
                (6, 1))
    for mode in (ana.DOUBLE_EXP, ana.SINGLE_EXP):
        results = ana._fit_rows(t, y, FitConfig(envelope_mode=mode))
        kept_double = (np.array([True] * 4 + [False] * 2)
                       & (mode == ana.DOUBLE_EXP))
        for r, s, d, s_ok, keep in zip(results, single, double, conv[1],
                                       kept_double):
            if keep:
                raw = (*d[:3], *np.exp(d[3:5]), *d[5:])
            else:
                raw = (s[0], s[1], 0.0, math.exp(s[2]), math.exp(s[2]),
                       *s[3:])
            np.testing.assert_allclose(
                curve(r.offset, r.amp_fast, r.amp_slow, r.tau_fast_ns,
                      r.tau_slow_ns, r.omega, r.phase), curve(*raw),
                rtol=0.0, atol=1e-12)
            assert r.omega >= 0.0 and r.amp_fast + r.amp_slow >= 0.0
            assert r.tau_fast_ns <= r.tau_slow_ns
            assert -math.pi <= r.phase <= math.pi
            assert r.exhausted == (not (keep or s_ok))
            assert r.converged == ((keep or s_ok) and lo < r.omega < hi)
        assert results.converged.tolist() == (
            [True] * 4 + [False, True] if mode == ana.DOUBLE_EXP
            else [True, False, True, False, False, True])


def test_wrap_phase_equals_math_remainder():
    # ties (odd multiples of pi) go to the even multiple of 2 pi
    phi = np.array([0.0, -0.0, 0.4, 7.0, -9.5, 1e3, math.pi, -math.pi,
                    3 * math.pi, -3 * math.pi, 5 * math.pi, 2 * math.pi,
                    -2 * math.pi, np.nextafter(math.pi, 4.0)])
    ref = np.array([math.remainder(v, 2.0 * math.pi) for v in phi])
    assert ana._wrap_phase(phi).tobytes() == ref.tobytes()


def test_fit_block_degenerate_neighbour_leaves_row_alone(monkeypatch):
    # a constant trace fitted at SNR threshold 0 stalls the solver; the
    # healthy trace next to it must fit exactly as it does alone
    t = DT_4US
    w = 2.0 * math.pi * 6.0e-3
    healthy = 0.02 - 0.015 * np.exp(-t / 700.0) * np.sin(w * t + 0.4)
    monkeypatch.setattr(ana, "MIN_SNR", 0.0)
    cfg = FitConfig()
    block = np.column_stack([np.full(len(t), 0.3), healthy,
                             np.zeros(len(t))])
    fitted = ana._fit_columns(t, [block], cfg)
    assert_same_result(fitted[1], fit_pixel(t, healthy, cfg))
    assert fitted[1].converged


def test_solve_rows_isolates_singular_and_nonfinite_systems():
    rng = np.random.default_rng(3)
    good = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    stack = np.stack([good, np.zeros((3, 3)), np.full((3, 3), np.nan), good])
    rhs = np.ones((4, 3))
    with np.errstate(invalid="ignore"):
        step = ana._solve_rows(stack, rhs)
    solo = ana._solve_rows(good[None], rhs[:1])[0]
    assert np.array_equal(step[0], solo) and np.array_equal(step[3], solo)
    assert np.isnan(step[1:3]).all()


# ------------------------------------------------------------------ contours

def ring_test_image(nx=101, ny=101, dt_ns=30.0, r1_px=30.0):
    # radial profile b(r) = b_1 * r1/r puts the m-th ridge at r1/m
    b1 = 1.0 / (2.0 * GAMMA_NV * dt_ns * 1e-9)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    r = np.hypot(i - (nx - 1) / 2, j - (ny - 1) / 2)
    with np.errstate(divide="ignore"):
        b = np.where(r > 0, b1 * r1_px / np.maximum(r, 1e-9), 6.0 * b1)
    b = np.minimum(b, 6.0 * b1)  # cap lands the core on a contrast zero
    return contrast_at(b, dt_ns, decay=NO_DECAY, c0=0.05), b1


def assert_labels_match_scipy(mask):
    expect, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    comps = ana._label_8connected(mask)
    assert len(comps) == n
    labels = np.zeros(mask.shape, dtype=expect.dtype)
    for k, (ii, jj) in enumerate(comps, start=1):
        flat = ii * mask.shape[1] + jj
        assert np.all(np.diff(flat) > 0)  # raster order, no repeats
        assert not labels[ii, jj].any()
        labels[ii, jj] = k
    assert np.array_equal(labels, expect)


@settings(max_examples=300, deadline=None)
@given(nx=st.integers(1, 40), ny=st.integers(1, 40),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_label_8connected_matches_scipy_on_random_masks(nx, ny, density,
                                                        seed):
    rng = np.random.default_rng(seed)
    assert_labels_match_scipy(rng.random((nx, ny)) < density)


def diagonal_cross(n):
    eye = np.eye(n, dtype=bool)
    return eye | eye[::-1]


def border_frame(nx, ny):
    mask = np.ones((nx, ny), dtype=bool)
    mask[1:-1, 1:-1] = False
    mask[nx // 2, ny // 2] = True  # an island inside the frame
    return mask


def checkerboard(nx, ny):
    i, j = np.indices((nx, ny))
    return (i + j) % 2 == 0


@pytest.mark.parametrize("mask", [
    diagonal_cross(15), diagonal_cross(16), np.eye(9, dtype=bool)[::-1],
    border_frame(7, 11), checkerboard(9, 6), checkerboard(1, 7),
    np.zeros((6, 5), dtype=bool), np.ones((6, 5), dtype=bool),
    np.zeros((1, 1), dtype=bool), np.ones((1, 1), dtype=bool),
    np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=bool),
    np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=bool).T,
    np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool)],
    ids=["x-odd", "x-even", "anti-diagonal", "border", "checker",
         "checker-row", "empty", "full", "empty-1x1", "full-1x1", "row",
         "column", "full-row", "full-column"])
def test_label_8connected_matches_scipy_on_edge_cases(mask):
    assert_labels_match_scipy(mask)


def test_extract_contours_ring_orders_and_labels():
    image, b1 = ring_test_image()
    cs = extract_contours(image, dt_mw_ns=30.0, min_pixels=12)
    assert cs.parity == "odd"
    assert len(cs.ridges) >= 3
    orders = [r.order_m for r in cs.ridges]
    assert orders[:3] == [1, 3, 5]
    assert cs.ridges[0].b_label == pytest.approx(b1, rel=1e-12)
    assert cs.ridges[0].b_label == pytest.approx(595.2e-6, rel=1e-3)
    assert cs.ridges[1].b_label == pytest.approx(3 * b1, rel=1e-12)


def test_extract_contours_ring_radii():
    image, _ = ring_test_image()
    cs = extract_contours(image, dt_mw_ns=30.0, min_pixels=12)
    center = np.array([50.0, 50.0])
    radii = [np.hypot(*(r.pixels - center).T) for r in cs.ridges[:3]]
    for expect, got in zip([30.0, 10.0, 6.0], radii):
        assert abs(np.median(got) - expect) <= 1.0
    # ridges shrink inward as the order climbs
    meds = [np.median(r) for r in radii]
    assert meds[0] > meds[1] > meds[2]


def test_extract_contours_flat_image_empty():
    cs = extract_contours(np.zeros((40, 40)), dt_mw_ns=30.0)
    assert cs.ridges == []


def test_extract_contours_rejects_specks():
    image = np.zeros((40, 40))
    image[20, 20] = 1.0
    cs = extract_contours(image, dt_mw_ns=30.0, min_pixels=8)
    assert cs.ridges == []


def test_extract_contours_validates_dt():
    with pytest.raises(ValueError):
        extract_contours(np.zeros((10, 10)), dt_mw_ns=0.0)


# ------------------------------------------------------------------- stitch

def wavy_map(nx=40, ny=30):
    grid = plane_grid(nx, ny)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    values = 2e-4 + 5e-5 * np.sin(0.31 * i) * np.cos(0.23 * j) + 1e-6 * i
    return PolarizedFieldMap(grid=grid, component="sigma-", values=values)


def cut_tile(fmap, i0, i1, j0, j1):
    g = fmap.grid
    origin = g.origin + i0 * g.pitch * g.axes[0] + j0 * g.pitch * g.axes[1]
    grid = GridSpec(origin=origin, axes=g.axes, nx=i1 - i0, ny=j1 - j0,
                    pitch=g.pitch)
    return PolarizedFieldMap(grid=grid, component=fmap.component,
                             values=fmap.values[i0:i1, j0:j1].copy())


def test_stitch_reassembles_exactly():
    full = wavy_map()
    t1 = cut_tile(full, 0, 25, 0, 30)
    t2 = cut_tile(full, 15, 40, 0, 30)
    out = stitch([(t1, (0, 0)), (t2, (15, 0))])
    assert out.values.shape == (40, 30)
    assert np.array_equal(out.values, full.values)
    assert np.allclose(out.grid.origin, full.grid.origin)
    assert out.grid.pitch == full.grid.pitch


def test_stitch_refine_recovers_perturbed_offsets():
    full = wavy_map()
    t1 = cut_tile(full, 0, 25, 0, 30)
    t2 = cut_tile(full, 15, 40, 0, 30)
    out = stitch([(t1, (0, 0)), (t2, (18, -2))], refine=True, search=4)
    assert out.values.shape == (40, 30)
    assert np.array_equal(out.values, full.values)


def test_stitch_three_tiles_with_refine():
    full = wavy_map(60, 30)
    tiles = [(cut_tile(full, 0, 25, 0, 30), (0, 0)),
             (cut_tile(full, 18, 45, 0, 30), (16, 1)),
             (cut_tile(full, 38, 60, 0, 30), (40, -2))]
    out = stitch(tiles, refine=True, search=4)
    assert out.values.shape == (60, 30)
    assert np.array_equal(out.values, full.values)


def test_stitch_validates_inputs():
    full = wavy_map()
    t1 = cut_tile(full, 0, 20, 0, 30)
    other = uniform_field_map(10, 10, 1e-4, pitch=5e-6)
    with pytest.raises(ValueError, match="pitch"):
        stitch([(t1, (0, 0)), (other, (5, 5))])
    sigma_plus = PolarizedFieldMap(grid=t1.grid, component="sigma+",
                                   values=t1.values)
    with pytest.raises(ValueError, match="component"):
        stitch([(t1, (0, 0)), (sigma_plus, (0, 0))])
    with pytest.raises(ValueError, match="at least one"):
        stitch([])


# --------------------------------------------------------------------- trap

def cone_map(nx=61, ny=41, center=(30, 20), b0=5e-5, grad=2.0,
             pitch=4e-6):
    grid = plane_grid(nx, ny, pitch=pitch)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    r = pitch * np.hypot(i - center[0], j - center[1])
    return PolarizedFieldMap(grid=grid, component="sigma-",
                             values=b0 + grad * r)


def test_trap_cone_position_value_and_gradients():
    grad = 2.0  # T/m
    pmap = cone_map(grad=grad)
    report = characterize_trap(pmap, arm=5)
    assert report.position_px == (30, 20)
    assert report.value == pytest.approx(5e-5, abs=0.0)
    assert np.allclose(report.position_m, pmap.grid.pixel_center(30, 20))
    for side in ("axis0_minus", "axis0_plus", "axis1_minus", "axis1_plus"):
        assert report.gradients[side] == pytest.approx(grad, rel=0.02)


@pytest.mark.parametrize("arm", [0, -5])
def test_trap_arm_below_one_pixel_raises(arm):
    # arm 0 fits a line through one point and -5 cuts the far end off
    # each side, so neither gives a gradient
    with pytest.raises(ValueError, match="arm must be at least 1"):
        characterize_trap(cone_map(), arm=arm)


def test_trap_matches_bruteforce_argmin():
    rng = np.random.default_rng(31)
    grid = plane_grid(30, 24)
    i, j = np.meshgrid(np.arange(30), np.arange(24), indexing="ij")
    values = (1e-4 * ((i - 11.0) ** 2 + (j - 15.0) ** 2) * 16e-12 / 1e-10
              + 1e-6 + 1e-7 * rng.random((30, 24)))
    pmap = PolarizedFieldMap(grid=grid, component="sigma-", values=values)
    report = characterize_trap(pmap)
    flat = np.argmin(pmap.values)
    assert report.position_px == tuple(np.unravel_index(flat, (30, 24)))


def test_trap_search_region_selects_local_minimum():
    grid = plane_grid(50, 20)
    i, j = np.meshgrid(np.arange(50), np.arange(20), indexing="ij")
    deep = np.hypot(i - 12, j - 10)
    shallow = np.hypot(i - 37, j - 10) + 3.0
    pmap = PolarizedFieldMap(grid=grid, component="sigma-",
                             values=1e-6 * np.minimum(deep, shallow))
    assert characterize_trap(pmap).position_px == (12, 10)
    region = ((25, 50), (0, 20))
    assert characterize_trap(pmap, search_region=region).position_px == \
        (37, 10)
    sub = pmap.values[25:50, :]
    flat = np.argmin(sub)
    bi, bj = np.unravel_index(flat, sub.shape)
    assert (bi + 25, bj) == (37, 10)


def test_trap_not_found_on_monotonic_map():
    grid = plane_grid(20, 20)
    i, j = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
    pmap = PolarizedFieldMap(grid=grid, component="sigma-",
                             values=1e-6 * (1.0 + i + 0.5 * j))
    with pytest.raises(TrapNotFound):
        characterize_trap(pmap)


def test_trap_region_validation():
    pmap = cone_map()
    with pytest.raises(ValueError):
        characterize_trap(pmap, search_region=((0, 999), (0, 10)))


# -------------------------------------------------- sensitivity and metrics

@lru_cache(maxsize=None)
def _sensitivity_cubes(counts_ref, seed0):
    bmap = uniform_field_map(6, 4, 3e-4)
    dt = np.arange(10.0, 601.0, 10.0)
    pulse = PulseParams(counts_ref=counts_ref)
    return tuple(simulate_cube(bmap, dt, pulse=pulse, decay=NO_DECAY,
                               seed=seed0 + k) for k in range(10))


def test_sensitivity_improves_with_sqrt_counts():
    eta1 = amplitude_sensitivity(_sensitivity_cubes(1e5, 100))
    eta4 = amplitude_sensitivity(_sensitivity_cubes(4e5, 900))
    assert eta1 > 0
    assert eta1 / eta4 == pytest.approx(2.0, rel=0.2)


def test_sensitivity_scales_with_sqrt_time():
    cubes = _sensitivity_cubes(1e5, 100)
    eta1 = amplitude_sensitivity(cubes, measurement_time_s=1.0)
    eta4 = amplitude_sensitivity(cubes, measurement_time_s=4.0)
    assert eta4 == pytest.approx(2.0 * eta1, rel=1e-12)


def test_sensitivity_batch_equals_per_cube_fits():
    cubes = _sensitivity_cubes(1e5, 100)
    maps, ok = [], True
    for cube in cubes:
        fmap, results = fit_cube(cube)
        maps.append(fmap.values)
        ok = ok & results.converged & ~results.below_threshold
    per_pixel = np.std(np.stack(maps)[:, ok], axis=0, ddof=1)
    expect = float(np.median(per_pixel)) * math.sqrt(2.0)
    assert amplitude_sensitivity(cubes, measurement_time_s=2.0) == expect
    other_dt = simulate_cube(uniform_field_map(6, 4, 3e-4),
                             np.arange(10.0, 611.0, 10.0), pulse=PulseParams(),
                             decay=NO_DECAY, seed=7)
    with pytest.raises(ValueError, match="dt_ns"):
        amplitude_sensitivity(cubes[:9] + (other_dt,))


@pytest.mark.parametrize("shape", [(4, 6), (6, 5)])
def test_sensitivity_requires_one_grid_shape(shape):
    # a repeat with the pixel count of the others but another shape, or
    # with another pixel count, would pair pixels across repeats wrongly
    cubes = _sensitivity_cubes(1e5, 100)
    other = simulate_cube(uniform_field_map(*shape, 3e-4), cubes[0].dt_ns,
                          pulse=PulseParams(counts_ref=1e5), decay=NO_DECAY,
                          seed=7)
    with pytest.raises(ValueError, match="grid"):
        amplitude_sensitivity(cubes[:9] + (other,))


def test_sensitivity_holds_each_repeat_once():
    # the repeats are fitted FIT_BLOCK_PX pixels at a time, gathered from
    # the cubes, so no copy of all of them is made beside the cubes. A
    # 2x2 patch oscillates; the other pixels stay below threshold, which
    # keeps the fit cheap
    values = np.zeros((64, 64))
    values[30:32, 30:32] = 3e-4
    bmap = PolarizedFieldMap(grid=plane_grid(64, 64), component="sigma-",
                             values=values)
    dt = np.arange(10.0, 601.0, 10.0)
    cubes = [simulate_cube(bmap, dt, pulse=PulseParams(), decay=NO_DECAY,
                           seed=40 + k) for k in range(10)]
    tracemalloc.start()
    try:
        assert amplitude_sensitivity(cubes) > 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * sum(c.frames.nbytes for c in cubes)


def test_sensitivity_requires_ten_repeats():
    cubes = _sensitivity_cubes(1e5, 100)
    with pytest.raises(ValueError, match="at least 10"):
        amplitude_sensitivity(cubes[:9])


def test_dynamic_range_reference_point():
    assert abs(dynamic_range_db(1e-6, 251.2e-6) - 48.0) <= 0.01


def test_dynamic_range_additivity_and_edges():
    assert dynamic_range_db(2e-6, 2e-6) == 0.0
    a, b, c = 1.5e-6, 4.2e-5, 8.8e-4
    assert dynamic_range_db(a, b) + dynamic_range_db(b, c) == pytest.approx(
        dynamic_range_db(a, c), abs=1e-12)
    with pytest.raises(ValueError):
        dynamic_range_db(0.0, 1e-5)
    with pytest.raises(ValueError):
        dynamic_range_db(1e-5, 1e-6)


def test_insertion_loss_reference_point():
    p_sim, loss = insertion_loss_db(22.6, 0.05, 50.0)
    assert p_sim == pytest.approx(20.9691, abs=1e-4)
    assert 1.63 <= loss <= 1.70


def test_insertion_loss_current_scaling():
    p1, _ = insertion_loss_db(20.0, 0.05, 50.0)
    p2, _ = insertion_loss_db(20.0, 0.10, 50.0)
    assert p2 - p1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        insertion_loss_db(20.0, 0.0, 50.0)
    with pytest.raises(ValueError):
        insertion_loss_db(20.0, 0.05, -1.0)
