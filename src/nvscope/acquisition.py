"""Synthetic widefield acquisition: Rabi contrast, shot noise, timing.

Each camera exposure accumulates n_shots repetitions of
laser pulse / wait / microwave pulse; the recorded quantity per pixel is
the contrast C = 1 - N_data/N_ref between exposures with and without
the microwave pulse. The noiseless generator is the resonant two-level
population transfer c0 * env(dt) * sin^2(Omega dt / 2), with a
double-exponential coherence envelope.

Randomness uses the counter-based Philox generator keyed by
(seed, frame index) with a fixed draw order inside each frame
(N_ref first, then N_data), so cubes are bit-reproducible no matter
how frames are scheduled or parallelized. A range of frames holds one
Philox and re-keys it for each frame: key (seed mod 2^64, k mod 2^64),
counter 0 and an empty buffer, the exact state of a fresh
Philox(key=[seed, k]). The streams are therefore the same as with a
fresh generator per frame, without one OS-entropy seeding per frame.

One producer, _fill_frames, makes every simulated frame: each frame is
the contrast at its own pulse duration, noisy or not. A cube's frames
are the durations of its scan, the repeats of a sensitivity estimate
(simulate_cubes) that scan once per seed, and a stream's frames
dt_mw_ns when the microwave is on and 0 when it is off. The frames are
filled by fieldcore.run_ranges over frame_workers processes, at most
one per FILL_SPLIT_PX frame pixels and one per JOB_FRAMES frames, each
with a contiguous range of frames, its own float64 buffer and its own
re-keyed Philox, writing straight into the float32 result, which a
split call allocates as shared memory. This process fills the first
range and forked workers the others, and the bytes are those of the
serial loop. Several cubes are filled as one range of frames, so that
no worker forks again. Every input is checked before anything is
allocated or forked, so an input error reaches the caller as the serial
loop raises it.
"""

import math
from dataclasses import dataclass

import numpy as np

from nvscope.fieldcore import (GAMMA_NV, SIGMA_MINUS, check_component,
                               is_number, lst, output_array, run_ranges,
                               workers_for)


@dataclass
class PulseParams:
    """Per-exposure pulse train and photon budget."""

    laser_ns: float = 700.0
    wait_ns: float = 1500.0
    n_shots: int = 100
    c0: float = 0.05
    counts_ref: float = 1e4

    def __post_init__(self):
        for name, t in (("laser_ns", self.laser_ns),
                        ("wait_ns", self.wait_ns)):
            if t < 0:
                raise ValueError(f"{name} must be non-negative, got {t!r}")
        n = self.n_shots
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or n < 1):
            raise ValueError(f"n_shots must be an integer >= 1, got {n!r}")
        if not 0 < self.c0 <= 1:
            raise ValueError("c0 must be in (0, 1]")
        if self.counts_ref <= 0:
            raise ValueError("counts_ref must be positive")

    def exposure_ns(self, dt_mw_ns):
        return self.n_shots * (self.laser_ns + self.wait_ns + dt_mw_ns)


@dataclass
class DecayParams:
    """Double-exponential Rabi envelope; taus in ns (inf allowed)."""

    tau_fast_ns: float = 300.0
    tau_slow_ns: float = 3000.0
    weight_fast: float = 0.5

    def __post_init__(self):
        for name, tau in (("tau_fast_ns", self.tau_fast_ns),
                          ("tau_slow_ns", self.tau_slow_ns)):
            if not tau > 0:
                raise ValueError(f"{name} must be positive, got {tau!r}")
        if self.tau_fast_ns > self.tau_slow_ns:
            raise ValueError("tau_fast must not exceed tau_slow")
        if not 0 <= self.weight_fast <= 1:
            raise ValueError("weight_fast must be in [0, 1]")

    def envelope(self, dt_ns):
        dt_ns = np.asarray(dt_ns, dtype=float)
        w = self.weight_fast
        return w * np.exp(-dt_ns / self.tau_fast_ns) \
            + (1.0 - w) * np.exp(-dt_ns / self.tau_slow_ns)


def rabi_omega(b_polarized):
    """Angular Rabi frequency (rad/ns) of non-negative fields in teslas."""
    b = np.asarray(b_polarized, dtype=float)
    if np.any(b < 0):
        raise ValueError("field amplitudes must be non-negative")
    return 2.0 * math.pi * GAMMA_NV * 1e-9 * b


def contrast_at(b_polarized, dt_mw_ns, decay, c0):
    """Noiseless contrast for field b (T) after a dt_mw pulse (ns);
    broadcasts over b and dt."""
    return _contrast(rabi_omega(b_polarized), _durations(dt_mw_ns), decay, c0)


def _durations(dt_ns):
    """dt_ns as a float array, if no pulse duration is negative; else
    ValueError."""
    dt = np.asarray(dt_ns, dtype=float)
    if np.any(dt < 0):
        raise ValueError("pulse durations must be non-negative")
    return dt


def _contrast(omega, dt, decay, c0, out=None):
    """contrast_at for the Rabi frequencies omega (rad/ns) of a field and
    the _durations dt (ns). With out, dt is a scan and frame k of out
    (shape dt.shape + omega.shape) receives the contrast at dt[k],
    computed in place with no temporary of out's size; out is returned.
    """
    if out is not None:
        dt = dt.reshape(dt.shape + (1,) * omega.ndim)
    # c0 * env(dt) * sin(omega dt / 2)^2, each step into out when given
    phase = np.divide(np.multiply(omega, dt, out=out), 2.0, out=out)
    sin2 = np.square(np.sin(phase, out=out), out=out)
    return np.multiply(c0 * decay.envelope(dt), sin2, out=out)


def _frame_rngs():
    """rng(seed, k) is the Generator of frame k of the run seeded `seed`.

    Every call re-keys one shared Philox to the state of a fresh
    Philox(key=[seed mod 2^64, k mod 2^64]) and returns its Generator,
    so a generator is valid only until the next call.
    """
    bitgen = np.random.Philox(0)  # keyed() sets the state before any draw
    rng = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)

    def keyed(seed, frame_index):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros,
                      "key": np.array([int(seed) % 2 ** 64,
                                       int(frame_index) % 2 ** 64],
                                      dtype=np.uint64)},
            "buffer": zeros, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return rng

    return keyed


def _apply_shot_noise(ideal, counts_ref, rng, out=None):
    """The contrast 1 - N_data/N_ref of one noisy exposure pair, computed
    into out when given (out may be ideal itself)."""
    mean_data = np.multiply(counts_ref, np.subtract(1.0, ideal, out=out),
                            out=out)
    # fixed draw order: reference exposure first, then data exposure
    n_ref = rng.poisson(counts_ref, size=ideal.shape)
    n_data = rng.poisson(mean_data)
    # the counts' quotient in float64, as n_data / n_ref computes it, in
    # the memory of mean_data: no casting buffers, no further frame
    ref = mean_data
    ref[...] = n_ref
    del n_ref
    np.maximum(ref, 1.0, out=ref)  # a dead reference pixel still divides
    contrast = np.divide(n_data, ref, out=ref)
    return np.subtract(1.0, contrast, out=contrast)


def check_dt_ns(dt_ns):
    """dt_ns as a float array, if it is a non-empty 1D scan of
    non-negative, strictly increasing pulse durations; else ValueError."""
    dt_ns = np.asarray(dt_ns, dtype=float)
    if dt_ns.ndim != 1 or len(dt_ns) == 0:
        raise ValueError("dt_ns must be a non-empty 1D array")
    if not (np.all(dt_ns >= 0) and np.all(np.diff(dt_ns) > 0)):
        raise ValueError("dt_ns must be non-negative and strictly increasing")
    return dt_ns


@dataclass
class ImageCube:
    """Contrast frames over a scan of microwave pulse durations, driven
    on one circular component of the field.

    Frames are always held as float32, the precision RCUB1 stores;
    fits compute in float64.
    """

    grid: object
    dt_ns: np.ndarray
    frames: np.ndarray
    pulse: PulseParams = None
    seed: int = None
    component: str = SIGMA_MINUS

    def __post_init__(self):
        check_component(self.component)
        self.dt_ns = check_dt_ns(self.dt_ns)
        self.frames = frames = np.asarray(self.frames, dtype=np.float32)
        expected = (len(self.dt_ns), self.grid.nx, self.grid.ny)
        if frames.shape != expected:
            raise ValueError(
                f"frames shape {frames.shape} does not match {expected}")
        # reductions, not elementwise masks, so that no temporary of the
        # cube's size is made: the float64 sum of float32 values cannot
        # overflow, so it is finite exactly when every value is
        if not math.isfinite(np.sum(frames, dtype=float)):
            raise ValueError("cube contains non-finite contrast values")
        if frames.max() > 1.0:
            raise ValueError("contrast cannot exceed 1")

    @property
    def n_frames(self):
        return len(self.dt_ns)

    def trace(self, i, j):
        return self.frames[:, i, j]


# Float64 contrast values per _contrast call in _fill_frames, the batch
# of cube and stream frames alike. The contrast and the noise are
# computed in float64 and each frame is stored once into the float32
# result, so the float64 values are held a few frames at a time per
# worker, never for a whole cube or stream; a frame of more pixels than
# this is computed alone.
CUBE_CHUNK = 8192

# Frame pixels per fill worker, at least (frame_workers). Timed on a
# 2-vCPU Xeon, noisy cubes of 10 x 10 px frames, serial against two
# workers: 40 k frame pixels took 10.9 ms serial, 11.6 ms split; 80 k
# 20.9 and 19.8 ms; 100 k 25.9 and 22.9 ms; with 80 MB more resident,
# 60 k took 17.9 and 14.7 ms but 40 k 10.6 and 10.9 ms.
FILL_SPLIT_PX = 50_000

# Frames per worker, at least. A worker holds three float64 frames at a
# time (its contrast buffer, N_ref and N_data), the size of six float32
# frames, so each worker holds under a fifth of its range's frames.
JOB_FRAMES = 32


def frame_workers(shape):
    """The processes that fill frames of shape, frames first
    (fieldcore.workers_for): at most one per FILL_SPLIT_PX frame pixels
    and one per JOB_FRAMES frames."""
    return workers_for(math.prod(shape), FILL_SPLIT_PX,
                       shape[0] // JOB_FRAMES)


def _fill_frames(frames, omega, durations, pulse, decay, seeds, workers):
    """Store every frame of frames (float32, frames first), which holds
    one run of n = len(durations) frames per seed, one run after another:
    flat frame f is frame k = f % n of run f // n. Each is the float64
    contrast of the Rabi frequencies omega after a pulse of durations[k]
    ns with its run's seed None, else its shot-noise draw from the
    (seed, k) stream.

    The frames run through fieldcore.run_ranges over `workers`
    processes, so above 1 frames must be output_array memory. Each
    range computes its contrast CUBE_CHUNK values at a time into one
    buffer of its own and keys its own Philox, so the bytes are those of
    one serial range.
    """
    n = len(durations)
    step = max(1, CUBE_CHUNK // omega.size)

    def run(f0, f1):
        rng = _frame_rngs()
        buffer = np.empty((min(step, f1 - f0),) + omega.shape)
        for g in range(f0, f1, step):
            ideal = buffer[:min(step, f1 - g)]
            _contrast(omega, durations[np.arange(g, g + len(ideal)) % n],
                      decay, pulse.c0, out=ideal)
            for f, frame in enumerate(ideal, g):
                seed = seeds[f // n]
                frames[f] = (frame if seed is None else _apply_shot_noise(
                    frame, pulse.counts_ref, rng(seed, f % n), out=frame))

    run_ranges(len(frames), workers, run)


def simulate_cube(bmap, dt_list_ns, pulse, decay, seed=None):
    """Scan dt_mw and stack contrast frames; independent noise per frame.

    Contrast and noise are computed in float64; the cube holds them
    rounded to float32.
    """
    return simulate_cubes(bmap, dt_list_ns, pulse, decay, [seed])[0]


def simulate_cubes(bmap, dt_list_ns, pulse, decay, seeds):
    """simulate_cube(bmap, dt_list_ns, pulse, decay, seed) for each of
    the seeds, bit for bit; the cubes view one float32 block.

    The block's frames are filled as one range of frames over
    frame_workers processes: frame k of cube j is flat frame
    j * n_frames + k, keyed (seeds[j], k).
    """
    # checked and computed once, before anything is allocated or forked
    omega = rabi_omega(bmap.values)
    dt_list_ns = check_dt_ns(dt_list_ns)
    flat = (len(seeds) * len(dt_list_ns),) + omega.shape
    workers = frame_workers(flat)
    block = output_array(flat, np.float32, workers)
    _fill_frames(block, omega, dt_list_ns, pulse, decay, seeds, workers)
    cubes = block.reshape((len(seeds), len(dt_list_ns)) + omega.shape)
    return [ImageCube(grid=bmap.grid, dt_ns=dt_list_ns, frames=frames,
                      pulse=pulse, seed=seed, component=bmap.component)
            for frames, seed in zip(cubes, seeds)]


@dataclass
class CameraTiming:
    """Rolling readout budget: frame time = max(readout, exposure) + overhead."""

    row_time_us: float = 10.0
    overhead_us: float = 200.0

    def __post_init__(self):
        if self.row_time_us <= 0:
            raise ValueError("row_time_us must be positive")
        if self.overhead_us < 0:
            raise ValueError("overhead_us must be non-negative")


def frame_time_ms(timing, rows, pulse, dt_mw_ns):
    """Time per frame in ms for a given readout height and pulse train."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    readout_us = rows * timing.row_time_us
    exposure_us = pulse.exposure_ns(dt_mw_ns) * 1e-3
    return (max(readout_us, exposure_us) + timing.overhead_us) * 1e-3


def camera_timing_from_points(point_a, point_b, pulse, dt_mw_ns):
    """Calibrate (row_time, overhead) from two (rows, frame_ms) pairs.

    Both points must be readout-limited, i.e. exposure below readout,
    or the linear model does not apply.
    """
    (rows_a, ms_a), (rows_b, ms_b) = point_a, point_b
    if rows_a == rows_b:
        raise ValueError("calibration points need distinct row counts")
    row_time_us = (ms_a - ms_b) * 1e3 / (rows_a - rows_b)
    overhead_us = ms_a * 1e3 - rows_a * row_time_us
    timing = CameraTiming(row_time_us=row_time_us, overhead_us=overhead_us)
    exposure_us = pulse.exposure_ns(dt_mw_ns) * 1e-3
    for rows in (rows_a, rows_b):
        if exposure_us > rows * timing.row_time_us:
            raise ValueError(
                f"calibration point at {rows} rows is exposure-limited; "
                "the readout-linear model does not apply")
    return timing


ON = "on"
OFF = "off"


def check_schedule(value):
    """value, if it is a non-empty list of [duration_ms > 0, on|off]
    entries, each a list (as JSON gives) or a tuple; else ValueError."""
    if not lst(value):
        raise ValueError("must hold at least one [duration_ms, on|off] entry")
    for item in value:
        if not (isinstance(item, (list, tuple)) and len(item) == 2
                and is_number(item[0]) and item[0] > 0
                and item[1] in (ON, OFF)):
            raise ValueError("entries must be [duration_ms > 0, on|off], "
                             f"got {item!r}")
    return value


def stream_dtype(shape):
    """One stream frame as RSTR1 stores it: t, the frame start in ms, and
    the contrast frame of the given shape in float32."""
    return np.dtype([("t", "<f8"), ("frame", "<f4", shape)])


def simulate_stream(bmap, dt_mw_ns, pulse, on_off_schedule, timing, rows,
                    decay, seed=None):
    """Frames of a microwave on/off pulse train at the camera frame rate.

    on_off_schedule is a check_schedule list of (duration_ms, "on"|"off")
    entries. Frame k starts at k * period and runs while its start is
    inside the schedule; its microwave state is the schedule state at the
    exposure midpoint, "off" at or past the schedule's end. An "on"
    frame is the contrast after a dt_mw_ns pulse, an "off" frame the
    contrast after none, which is zero. Returns a record array of
    stream_dtype; contrast and noise are computed in float64 and stored
    rounded to float32.
    """
    check_schedule(on_off_schedule)
    edges = np.cumsum([float(duration) for duration, _ in on_off_schedule])
    total_ms = edges[-1]
    period_ms = frame_time_ms(timing, rows, pulse, dt_mw_ns)
    starts = np.arange(math.ceil(total_ms / period_ms) + 1) * period_ms
    starts = starts[starts < total_ms]
    half_exposure_ms = pulse.exposure_ns(dt_mw_ns) * 1e-6 / 2.0
    # one more state, "off", for midpoints at or past the last edge
    states_on = np.array([state == ON for _, state in on_off_schedule]
                         + [False])
    frames_on = states_on[np.searchsorted(edges, starts + half_exposure_ms,
                                          side="right")]

    omega = rabi_omega(bmap.values)
    durations = np.where(frames_on, _durations(dt_mw_ns), 0.0)
    workers = frame_workers(durations.shape + omega.shape)
    stream = output_array(durations.shape, stream_dtype(omega.shape),
                          workers)
    stream["t"] = starts
    _fill_frames(stream["frame"], omega, durations, pulse, decay, [seed],
                 workers)
    return stream
