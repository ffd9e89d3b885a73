"""Contrast generator, shot noise statistics, camera timing."""

import math
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

from nvscope import acquisition as acq
from nvscope import fieldcore as fc
from nvscope import nearfield as nf
from nvscope.cli import load_scenario

NO_DECAY = acq.DecayParams(tau_fast_ns=math.inf, tau_slow_ns=math.inf,
                           weight_fast=0.5)


def uniform_bmap(b, nx=10, ny=8, pitch=4e-6):
    grid = nf.GridSpec(origin=np.zeros(3),
                       axes=(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
                       nx=nx, ny=ny, pitch=pitch)
    return nf.PolarizedFieldMap(grid=grid, component="sigma-",
                                values=np.full((nx, ny), float(b)))


def field_for_half_period(dt_ns):
    """b such that Omega * dt = pi."""
    return 1.0 / (2.0 * fc.GAMMA_NV * dt_ns * 1e-9)


class TestContrastAt:
    def test_zero_field(self):
        dts = np.linspace(0, 2000, 40)
        c = acq.contrast_at(0.0, dts, acq.DecayParams(), c0=0.05)
        np.testing.assert_array_equal(c, 0.0)

    def test_half_period_full_transfer(self):
        dt = 100.0
        b = field_for_half_period(dt)
        c = acq.contrast_at(b, dt, NO_DECAY, c0=0.05)
        assert c == pytest.approx(0.05, rel=1e-12)

    def test_full_period_returns_bright(self):
        dt = 100.0
        b = 2.0 * field_for_half_period(dt)
        c = acq.contrast_at(b, dt, NO_DECAY, c0=0.05)
        assert c == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_c0(self):
        rng = np.random.default_rng(41)
        b = rng.uniform(0, 1e-3, 500)
        dt = rng.uniform(0, 3000, 500)
        c = acq.contrast_at(b, dt, acq.DecayParams(), c0=0.05)
        assert np.all(c >= 0) and np.all(c <= 0.05)

    def test_periodic_up_to_envelope(self):
        b = 2e-4
        omega = acq.rabi_omega(b)
        period = 2 * math.pi / omega
        decay = acq.DecayParams()
        dts = np.linspace(0, 4 * period, 64)
        c1 = acq.contrast_at(b, dts, decay, c0=0.05) / decay.envelope(dts)
        c2 = acq.contrast_at(b, dts + period, decay, c0=0.05) \
            / decay.envelope(dts + period)
        np.testing.assert_allclose(c2, c1, rtol=1e-9, atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            acq.contrast_at(-1e-4, 100.0, NO_DECAY, c0=0.05)
        with pytest.raises(ValueError):
            acq.contrast_at(1e-4, -5.0, NO_DECAY, c0=0.05)


class TestShotNoise:
    def test_noiseless_zero_field(self):
        bmap = uniform_bmap(0.0)
        img = acq.simulate_contrast_image(bmap, 100.0, acq.PulseParams(),
                                          acq.DecayParams())
        np.testing.assert_array_equal(img, 0.0)

    def test_uniform_half_period(self):
        dt = 100.0
        bmap = uniform_bmap(field_for_half_period(dt))
        img = acq.simulate_contrast_image(bmap, dt, acq.PulseParams(),
                                          NO_DECAY)
        np.testing.assert_allclose(img, 0.05, rtol=1e-12)

    def test_contrast_sigma_matches_poisson_propagation(self):
        # var(1 - D/R) ~ 2/counts_ref at zero contrast
        bmap = uniform_bmap(0.0, nx=120, ny=100)
        img = acq.simulate_contrast_image(bmap, 100.0, acq.PulseParams(),
                                          acq.DecayParams(), noise_seed=7)
        sigma = np.std(img)
        assert sigma == pytest.approx(math.sqrt(2) / 100.0, rel=0.10)

    def test_seeded_runs_identical(self):
        bmap = uniform_bmap(1e-4)
        a = acq.simulate_contrast_image(bmap, 300.0, acq.PulseParams(),
                                        acq.DecayParams(), noise_seed=5)
        b = acq.simulate_contrast_image(bmap, 300.0, acq.PulseParams(),
                                        acq.DecayParams(), noise_seed=5)
        np.testing.assert_array_equal(a, b)

    def test_frames_have_independent_streams(self):
        bmap = uniform_bmap(1e-4)
        a = acq.simulate_contrast_image(bmap, 300.0, acq.PulseParams(),
                                        acq.DecayParams(), noise_seed=5,
                                        frame_index=0)
        b = acq.simulate_contrast_image(bmap, 300.0, acq.PulseParams(),
                                        acq.DecayParams(), noise_seed=5,
                                        frame_index=1)
        assert not np.array_equal(a, b)

    def test_noise_averages_out(self):
        # mean of N frames approaches the ideal as 1/sqrt(N)
        bmap = uniform_bmap(2e-4, nx=40, ny=40)
        pulse = acq.PulseParams()
        decay = acq.DecayParams()
        ideal = acq.simulate_contrast_image(bmap, 250.0, pulse, decay)

        def rms_err(n):
            acc = np.zeros_like(ideal)
            for k in range(n):
                acc += acq.simulate_contrast_image(bmap, 250.0, pulse, decay,
                                                   noise_seed=11,
                                                   frame_index=k)
            return np.sqrt(np.mean((acc / n - ideal) ** 2))

        ratio = rms_err(4) / rms_err(64)
        assert ratio == pytest.approx(4.0, rel=0.20)


class TestSimulateCube:
    def test_zero_duration_frame(self):
        bmap = uniform_bmap(3e-4)
        cube = acq.simulate_cube(bmap, [0.0], acq.PulseParams(),
                                 acq.DecayParams())
        np.testing.assert_array_equal(cube.frames, 0.0)

    def test_uniform_field_uniform_traces(self):
        bmap = uniform_bmap(1.5e-4)
        dts = np.arange(100) * 20.0
        cube = acq.simulate_cube(bmap, dts, acq.PulseParams(),
                                 acq.DecayParams())
        assert cube.n_frames == 100
        ref = cube.trace(0, 0)
        for i in (0, 3, 9):
            for j in (0, 4, 7):
                np.testing.assert_array_equal(cube.trace(i, j), ref)

    def test_stronger_field_oscillates_faster(self):
        # spectral peak of the signal-line pixel sits above the gap pixel
        from nvscope import currents as cur
        model = cur.model_from_spec({"kind": "cpw", "params": {
            "signal_width": 120e-6, "gap": 54e-6, "ground_width": 200e-6,
            "length": 2e-3, "current": 0.05, "n_filaments": 16}})
        grid = nf.GridSpec(origin=np.array([-160e-6, -20e-6, 0.0]),
                           axes=(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
                           nx=16, ny=2, pitch=20e-6)
        fmap = nf.evaluate_phasor_map(model, grid,
                                      fc.SensingLayer(h=12e-6, d=0.0))
        frame = fc.nv_frame_from_tilt(29.5, "xz")
        bmap = nf.project_polarization(fmap, frame, "sigma-")
        dts = np.arange(1, 101) * 20.0
        cube = acq.simulate_cube(bmap, dts, acq.PulseParams(),
                                 acq.DecayParams())

        def peak_bin(i, j):
            y = cube.trace(i, j) - np.mean(cube.trace(i, j))
            return np.argmax(np.abs(np.fft.rfft(y, 8 * len(y))[1:]))

        i_signal = 8   # over the strip center
        i_gap = 4      # over the left gap
        assert bmap.values[i_signal, 0] > bmap.values[i_gap, 0]
        assert peak_bin(i_signal, 0) > peak_bin(i_gap, 0)

    def test_cube_determinism(self):
        bmap = uniform_bmap(1e-4)
        dts = np.arange(1, 30) * 50.0
        a = acq.simulate_cube(bmap, dts, acq.PulseParams(), acq.DecayParams(),
                              seed=77)
        b = acq.simulate_cube(bmap, dts, acq.PulseParams(), acq.DecayParams(),
                              seed=77)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_cube_validation(self):
        bmap = uniform_bmap(1e-4)
        with pytest.raises(ValueError, match="strictly increasing"):
            acq.ImageCube(grid=bmap.grid, dt_ns=[10.0, 10.0],
                          frames=np.zeros((2, 10, 8)))
        with pytest.raises(ValueError, match="shape"):
            acq.ImageCube(grid=bmap.grid, dt_ns=[10.0],
                          frames=np.zeros((1, 3, 3)))
        with pytest.raises(ValueError, match="component"):
            acq.ImageCube(grid=bmap.grid, dt_ns=[10.0],
                          frames=np.zeros((1, 10, 8)), component="pi")


def random_bmap(nx, ny, seed=5):
    bmap = uniform_bmap(0.0, nx, ny)
    bmap.values = np.random.default_rng(seed).uniform(0, 3e-4, (nx, ny))
    return bmap


def oracle_frame(ideal, counts_ref, seed, k):
    """Frame k as a fresh per-frame Philox(key=[seed, k]) draws it."""
    if seed is None:
        return ideal
    key = np.array([seed % 2 ** 64, k], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return acq._apply_shot_noise(ideal, counts_ref, rng)


SEEDS = [None, 0, 7, -3, 2 ** 64 + 5]
DECAYS = [acq.DecayParams(), NO_DECAY]


class TestStreamEquivalence:
    """The re-keyed generator draws the streams of one generator per frame."""

    @pytest.mark.parametrize("decay", DECAYS, ids=["damped", "undamped"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cube_frames(self, seed, decay):
        bmap = random_bmap(9, 7)
        pulse = acq.PulseParams()
        dts = np.arange(0, 12) * 37.0
        cube = acq.simulate_cube(bmap, dts, pulse, decay, seed=seed)
        for k, dt in enumerate(dts):
            ideal = acq.contrast_at(bmap.values, dt, decay, pulse.c0)
            # the cube stores each float64 frame rounded to float32
            np.testing.assert_array_equal(
                cube.frames[k], oracle_frame(ideal, pulse.counts_ref, seed,
                                             k).astype(np.float32))

    @pytest.mark.parametrize("decay", DECAYS, ids=["damped", "undamped"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_frames(self, seed, decay):
        bmap = random_bmap(9, 7)
        pulse = acq.PulseParams()
        ideal = acq.contrast_at(bmap.values, 211.0, decay, pulse.c0)
        for k in (0, 1, 5, 2 ** 64 - 1):
            img = acq.simulate_contrast_image(bmap, 211.0, pulse, decay,
                                              noise_seed=seed, frame_index=k)
            np.testing.assert_array_equal(
                img, oracle_frame(ideal, pulse.counts_ref, seed, k))

    @pytest.mark.parametrize("decay", DECAYS, ids=["damped", "undamped"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_on_and_off_frames(self, seed, decay):
        bmap = random_bmap(9, 7)
        pulse = acq.PulseParams(laser_ns=700.0, wait_ns=500.0, n_shots=50)
        timing = acq.CameraTiming()
        schedule = [(1.5, "on"), (2.0, "off"), (1.5, "on")]
        ideal_on = acq.contrast_at(bmap.values, 30.0, decay, pulse.c0)
        noiseless = acq.simulate_stream(bmap, 30.0, pulse, schedule, timing,
                                        rows=50, decay=decay)
        frames = acq.simulate_stream(bmap, 30.0, pulse, schedule, timing,
                                     rows=50, seed=seed, decay=decay)
        # the stream stores each float64 frame rounded to float32
        on = [np.array_equal(f, ideal_on.astype(np.float32))
              for _, f in noiseless]
        assert any(on) and not all(on)
        assert len(frames) == len(noiseless)
        for k, ((ts, frame), (ts0, stored)) in enumerate(zip(frames,
                                                             noiseless)):
            assert ts == ts0
            if not on[k]:
                np.testing.assert_array_equal(stored, 0.0)
            np.testing.assert_array_equal(
                frame, oracle_frame(ideal_on * on[k], pulse.counts_ref, seed,
                                    k).astype(np.float32))


@pytest.mark.parametrize("n_shots", [100.5, 100.0, True, "100"])
def test_pulse_n_shots_must_be_an_integer(n_shots):
    with pytest.raises(ValueError, match="n_shots must be an integer"):
        acq.PulseParams(n_shots=n_shots)


def test_cube_peak_memory_stays_near_the_cube():
    # the ideal contrast is computed in place and the noise per frame,
    # so no temporary as large as the cube is ever held
    bmap = random_bmap(100, 100)
    dts = np.arange(1, 51) * 20.0
    tracemalloc.start()
    try:
        cube = acq.simulate_cube(bmap, dts, acq.PulseParams(),
                                 acq.DecayParams(), seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * cube.frames.nbytes


class TestFrameTime:
    def timing(self):
        return acq.CameraTiming(row_time_us=10.0, overhead_us=200.0)

    def pulse(self):
        return acq.PulseParams(laser_ns=700.0, wait_ns=500.0, n_shots=50)

    def test_reference_points(self):
        # 200 rows -> 2.2 ms, 50 rows -> 0.7 ms at 50 shots of 1230 ns
        t = self.timing()
        p = self.pulse()
        assert acq.frame_time_ms(t, 200, p, 30.0) == pytest.approx(2.2, rel=1e-12)
        assert acq.frame_time_ms(t, 50, p, 30.0) == pytest.approx(0.7, rel=1e-12)

    def test_exposure_limited_branch(self):
        t = self.timing()
        p = acq.PulseParams(laser_ns=700.0, wait_ns=500.0, n_shots=100000)
        expect = (100000 * 1230.0 * 1e-3 + 200.0) * 1e-3
        assert acq.frame_time_ms(t, 1, p, 30.0) == pytest.approx(expect, rel=1e-12)

    def test_monotonicity(self):
        t = self.timing()
        p = self.pulse()
        base = acq.frame_time_ms(t, 100, p, 30.0)
        assert acq.frame_time_ms(t, 150, p, 30.0) >= base
        assert acq.frame_time_ms(t, 100, p, 5000.0) >= base
        bigger = acq.PulseParams(laser_ns=700.0, wait_ns=500.0, n_shots=500)
        assert acq.frame_time_ms(t, 100, bigger, 30.0) >= base

    def test_two_point_calibration(self):
        timing = acq.camera_timing_from_points((200, 2.2), (50, 0.7),
                                               self.pulse(), 30.0)
        assert timing.row_time_us == pytest.approx(10.0, rel=1e-9)
        assert timing.overhead_us == pytest.approx(200.0, rel=1e-9)

    def test_calibration_rejects_exposure_limited(self):
        p = acq.PulseParams(laser_ns=700.0, wait_ns=500.0, n_shots=5000)
        with pytest.raises(ValueError, match="exposure-limited"):
            acq.camera_timing_from_points((200, 2.2), (50, 0.7), p, 30.0)


class TestSimulateStream:
    def setup(self):
        self.timing = acq.CameraTiming()
        self.pulse = acq.PulseParams(laser_ns=700.0, wait_ns=500.0, n_shots=50)
        self.bmap = uniform_bmap(field_for_half_period(30.0))

    def test_all_off(self):
        self.setup()
        frames = acq.simulate_stream(self.bmap, 30.0, self.pulse,
                                     [(5.0, "off")], self.timing, rows=200,
                                     decay=acq.DecayParams())
        assert len(frames) > 0
        for _, img in frames:
            np.testing.assert_array_equal(img, 0.0)

    def test_5ms_cycle_resolved_at_2p2ms(self):
        self.setup()
        schedule = [(5.0, "on"), (5.0, "off"), (5.0, "on"), (5.0, "off")]
        frames = acq.simulate_stream(self.bmap, 30.0, self.pulse, schedule,
                                     self.timing, rows=200,
                                     decay=acq.DecayParams())
        # classify each frame, count frames per half-cycle
        for h in range(4):
            lo, hi = 5.0 * h, 5.0 * (h + 1)
            inside = [img for ts, img in frames if lo <= ts < hi]
            assert len(inside) >= 2
            want_on = h % 2 == 0
            for img in inside[:2]:
                assert (np.max(img) > 0.04) == want_on

    def test_0p5ms_pulse_in_at_most_one_frame_at_0p7ms(self):
        self.setup()
        schedule = [(3.3, "off"), (0.5, "on"), (3.2, "off")]
        frames = acq.simulate_stream(self.bmap, 30.0, self.pulse, schedule,
                                     self.timing, rows=50,
                                     decay=acq.DecayParams())
        on_frames = [ts for ts, img in frames if np.max(img) > 0.04]
        assert len(on_frames) <= 1

    def test_timestamps_are_frame_starts(self):
        self.setup()
        frames = acq.simulate_stream(self.bmap, 30.0, self.pulse,
                                     [(3.0, "on")], self.timing, rows=200,
                                     decay=acq.DecayParams())
        period = acq.frame_time_ms(self.timing, 200, self.pulse, 30.0)
        for k, (ts, _) in enumerate(frames):
            assert ts == pytest.approx(k * period, rel=1e-12)

    def test_stream_determinism(self):
        self.setup()
        a = acq.simulate_stream(self.bmap, 30.0, self.pulse, [(2.0, "on")],
                                self.timing, rows=200, seed=3,
                                decay=acq.DecayParams())
        b = acq.simulate_stream(self.bmap, 30.0, self.pulse, [(2.0, "on")],
                                self.timing, rows=200, seed=3,
                                decay=acq.DecayParams())
        for (ta, fa), (tb, fb) in zip(a, b):
            assert ta == tb
            np.testing.assert_array_equal(fa, fb)


# FORK_FRAMES frames of FORK_PX px are work for three fill workers, one
# per JOB_FRAMES frames; as many frames of SERIAL_PX px are less than two
# workers' FILL_SPLIT_PX frame pixels
FORK_PX = (91, 91)
SERIAL_PX = (32, 32)
FORK_FRAMES = 3 * acq.JOB_FRAMES


def fork_stream(bmap, seed):
    """A FORK_FRAMES-frame stream with on and off frames."""
    pulse = acq.PulseParams(laser_ns=700.0, wait_ns=500.0, n_shots=50)
    timing = acq.CameraTiming()
    period = acq.frame_time_ms(timing, 50, pulse, 30.0)
    third = FORK_FRAMES * period / 3
    return acq.simulate_stream(bmap, 30.0, pulse,
                               [(third, "on"), (third, "off"), (third, "on")],
                               timing, rows=50, seed=seed,
                               decay=acq.DecayParams())


class TestFrameWorkers:
    """Frames are filled by forked workers, at most one per FILL_SPLIT_PX
    frame pixels and one per JOB_FRAMES frames, whose bytes are those of
    the serial loop."""

    @pytest.mark.parametrize("n_cpus, n_frames, workers", [
        (1, FORK_FRAMES, 1), (3, FORK_FRAMES, 3), (4, FORK_FRAMES, 3),
        (3, 2 * acq.JOB_FRAMES + 1, 2), (3, 2 * acq.JOB_FRAMES - 1, 1),
        (3, 1, 1), (3, 0, 1)])
    def test_frame_workers(self, cpus, n_cpus, n_frames, workers):
        cpus(n_cpus)
        assert acq.frame_workers((n_frames,) + FORK_PX) == workers
        assert acq.frame_workers((n_frames,) + SERIAL_PX) == 1

    def test_one_fill_worker_per_fill_split_px(self, cpus):
        cpus(3)
        grain = acq.FILL_SPLIT_PX
        # 10 x 10 px frames, many more than JOB_FRAMES per worker: a
        # 100-frame cube stays serial, and its ten repeats of a sensitivity
        # estimate, 1000 frames, split in two
        assert acq.frame_workers((100, 10, 10)) == 1
        for workers in (1, 2, 3):
            n_frames = (workers + 1) * grain // 100
            assert acq.frame_workers((n_frames - 1, 10, 10)) == workers
            assert acq.frame_workers((n_frames, 10, 10)) == min(workers + 1,
                                                                3)

    @pytest.mark.parametrize("name, workers", [
        ("cpw-fig2", 2), ("omega-fig3", 2), ("trap-fig4-xz", 2),
        ("pulse-train-fig5", 1)])
    def test_bundled_fills_split_where_the_split_pays(self, cpus, name,
                                                      workers):
        # the bundled cubes split on two CPUs; the 21 frames of
        # pulse-train-fig5's stream are fewer than JOB_FRAMES
        cpus(2)
        cfg = load_scenario(name)
        shape = (None if cfg.dt_ns is None else len(cfg.dt_ns),
                 cfg.grid.nx, cfg.grid.ny)
        if cfg.stream is not None:
            shape = acq.simulate_stream(
                uniform_bmap(0.0, cfg.grid.nx, cfg.grid.ny),
                cfg.stream["dt_mw_ns"], cfg.pulse, cfg.stream["schedule"],
                cfg.timing, cfg.stream["rows"], cfg.decay)["frame"].shape
        assert acq.frame_workers(shape) == workers

    @pytest.mark.parametrize("seed", [None, 7])
    def test_cube_bytes_do_not_depend_on_the_workers(self, cpus, forks,
                                                     seed):
        bmap = random_bmap(*FORK_PX)
        pulse = acq.PulseParams()
        dts = np.arange(FORK_FRAMES) * 9.0
        cubes = []
        for n in (1, 3):
            cpus(n)
            cubes.append(acq.simulate_cube(bmap, dts, pulse,
                                           acq.DecayParams(), seed=seed))
        assert len(forks) == 2
        assert cubes[0].frames.tobytes() == cubes[1].frames.tobytes()
        # the first and last frame of each worker
        for k in (0, 31, 32, 63, 64, 95):
            ideal = acq.contrast_at(bmap.values, dts[k], acq.DecayParams(),
                                    pulse.c0)
            np.testing.assert_array_equal(
                cubes[1].frames[k], oracle_frame(ideal, pulse.counts_ref,
                                                 seed, k).astype(np.float32))

    @pytest.mark.parametrize("seed", [None, 7])
    def test_stream_bytes_do_not_depend_on_the_workers(self, cpus, forks,
                                                       seed):
        bmap = random_bmap(*FORK_PX)
        streams = []
        for n in (1, 3):
            cpus(n)
            streams.append(fork_stream(bmap, seed))
        assert len(streams[0]) == FORK_FRAMES
        assert len(forks) == 2
        assert streams[0].tobytes() == streams[1].tobytes()
        frames = streams[1]["frame"]
        ideal_on = acq.contrast_at(bmap.values, 30.0, acq.DecayParams(),
                                   acq.PulseParams().c0)
        on = [np.array_equal(f, ideal_on.astype(np.float32))
              for f in fork_stream(bmap, None)["frame"]]
        assert any(on) and not all(on)
        for k in (0, 31, 32, 63, 64, 95):
            np.testing.assert_array_equal(
                frames[k], oracle_frame(ideal_on * on[k],
                                        acq.PulseParams().counts_ref, seed,
                                        k).astype(np.float32))

    def test_a_negative_field_fails_before_any_fork(self, cpus, forks):
        # the field is checked once per cube, not in every worker
        bmap = random_bmap(*FORK_PX)
        bmap.values[-1, -1] = -1e-6
        cpus(3)
        with pytest.raises(ValueError,
                           match="field amplitudes must be non-negative"):
            acq.simulate_cube(bmap, np.arange(FORK_FRAMES) * 9.0,
                              acq.PulseParams(), acq.DecayParams(), seed=7)
        assert forks == []

    def test_a_negative_duration_fails_before_any_fork(self, cpus, forks):
        # a negative duration in the last worker's range raises the
        # serial loop's ValueError, never a worker's RuntimeError
        bmap = random_bmap(*FORK_PX)
        dts = np.append(np.arange(FORK_FRAMES - 1) * 9.0, -1.0)
        errors = []
        for n in (1, 3):
            cpus(n)
            with pytest.raises(ValueError) as err:
                acq.simulate_cube(bmap, dts, acq.PulseParams(),
                                  acq.DecayParams(), seed=7)
            errors.append(str(err.value))
        assert forks == []
        assert errors == [
            "dt_ns must be non-negative and strictly increasing"] * 2

    @pytest.mark.parametrize("dts, message", [
        (np.arange(FORK_FRAMES)[::-1] * 9.0,
         "dt_ns must be non-negative and strictly increasing"),
        (np.array([]), "dt_ns must be a non-empty 1D array")])
    def test_a_bad_scan_fails_before_any_fill(self, monkeypatch, cpus, forks,
                                              dts, message):
        # the scan is checked whole, as ImageCube checks it, before the
        # block is allocated: no frame is filled, no worker forked
        filled = []
        monkeypatch.setattr(acq, "_fill_frames",
                            lambda *args: filled.append(args))
        for n in (1, 3):
            cpus(n)
            with pytest.raises(ValueError, match=message):
                acq.simulate_cubes(random_bmap(*FORK_PX), dts,
                                   acq.PulseParams(), acq.DecayParams(),
                                   list(range(10)))
        assert forks == [] and filled == []

    def test_small_frames_never_fork(self, cpus, forks):
        cpus(3)
        bmap = random_bmap(*SERIAL_PX)
        dts = np.arange(FORK_FRAMES) * 9.0
        for seed in (None, 7):
            acq.simulate_cube(bmap, dts, acq.PulseParams(),
                              acq.DecayParams(), seed=seed)
            assert len(fork_stream(bmap, seed)) == FORK_FRAMES
        assert forks == []

    def test_no_worker_outlives_the_call(self, cpus, forks):
        cpus(3)
        before = threading.active_count()
        acq.simulate_cube(random_bmap(*FORK_PX), np.arange(FORK_FRAMES) * 9.0,
                          acq.PulseParams(), acq.DecayParams(), seed=7)
        assert len(forks) == 2
        assert threading.active_count() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_peak_memory_does_not_grow_with_the_cpus(self, cpus, forks):
        # each worker holds a few float64 frames, and there is at most one
        # worker per JOB_FRAMES frames. The cube is shared memory, which
        # tracemalloc does not see, and the workers are other processes:
        # the traced peak is the calling process's range, to which the
        # cube's bytes are added
        cpus(64)
        bmap = random_bmap(*FORK_PX)
        dts = np.arange(4 * acq.JOB_FRAMES) * 9.0
        tracemalloc.start()
        try:
            cube = acq.simulate_cube(bmap, dts, acq.PulseParams(),
                                     acq.DecayParams(), seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(forks) == 3
        assert peak + cube.frames.nbytes < 1.25 * cube.frames.nbytes


class TestCubeWorkers:
    """simulate_cubes fills several cubes, each keyed by its own seed, as
    one range of frames over forked workers, so that no worker forks
    again."""

    @pytest.mark.parametrize("n_cpus, n_cubes, px, workers", [
        (3, 10, SERIAL_PX, 3), (3, 2, SERIAL_PX, 3), (1, 10, SERIAL_PX, 1),
        (3, 1, SERIAL_PX, 1), (3, 0, SERIAL_PX, 1), (3, 1, FORK_PX, 3),
        (2, 10, FORK_PX, 2)])
    def test_cubes_split_as_one_range_of_frames(self, monkeypatch, cpus,
                                                n_cpus, n_cubes, px,
                                                workers):
        # the fill of n_cubes cubes forks frame_workers of all their
        # frames, less this process
        split = []
        monkeypatch.setattr(acq, "_fill_frames",
                            lambda frames, *args: split.append(args[-1]))
        cpus(n_cpus)
        acq.simulate_cubes(random_bmap(*px), np.arange(FORK_FRAMES) * 9.0,
                           acq.PulseParams(), acq.DecayParams(),
                           list(range(n_cubes)))
        assert split == [workers] == [
            acq.frame_workers((n_cubes * FORK_FRAMES,) + px)]

    @pytest.mark.parametrize("px, grain", [((6, 4), 1),
                                           (FORK_PX, acq.FILL_SPLIT_PX)])
    def test_cubes_equal_single_cubes(self, monkeypatch, cpus, forks, px,
                                      grain):
        # 4 cubes of 96 frames are 384 frames, which three processes fill
        # in ranges of 128 that cross the cubes' edges
        monkeypatch.setattr(acq, "FILL_SPLIT_PX", grain)
        cpus(3)
        bmap = random_bmap(*px)
        dts = np.arange(FORK_FRAMES) * 9.0
        seeds = [7, None, 2 ** 64 + 5, 8]
        cubes = acq.simulate_cubes(bmap, dts, acq.PulseParams(),
                                   acq.DecayParams(), seeds)
        assert len(forks) == 2
        cpus(1)
        for cube, seed in zip(cubes, seeds):
            one = acq.simulate_cube(bmap, dts, acq.PulseParams(),
                                    acq.DecayParams(), seed=seed)
            assert cube.frames.tobytes() == one.frames.tobytes()
            assert (cube.seed, cube.component) == (seed, one.component)
        assert len(forks) == 2
        # the cubes view one block, which the workers wrote
        assert all(c.frames.base is cubes[0].frames.base for c in cubes)
        for k in (0, 95):
            ideal = acq.contrast_at(bmap.values, dts[k], acq.DecayParams(),
                                    acq.PulseParams().c0)
            np.testing.assert_array_equal(
                cubes[2].frames[k], oracle_frame(
                    ideal, acq.PulseParams().counts_ref, seeds[2],
                    k).astype(np.float32))

    @pytest.mark.parametrize("failure", ["raise", "kill"])
    def test_a_failed_worker_fails_the_cubes(self, monkeypatch, cpus, forks,
                                             failure):
        parent = os.getpid()
        noise = acq._apply_shot_noise

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                if failure == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("worker failure")
            return noise(*args, **kwargs)

        cpus(3)
        monkeypatch.setattr(acq, "FILL_SPLIT_PX", 1)
        monkeypatch.setattr(acq, "_apply_shot_noise", failing)
        with pytest.raises(RuntimeError, match="forked workers exited"):
            acq.simulate_cubes(random_bmap(6, 4), np.arange(10) * 9.0,
                               acq.PulseParams(), acq.DecayParams(),
                               list(range(10)))
        assert len(forks) == 2
