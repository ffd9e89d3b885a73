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
how frames are scheduled or parallelized. A run holds one Philox and
re-keys it for each frame: key (seed mod 2^64, k mod 2^64), counter 0
and an empty buffer, the exact state of a fresh Philox(key=[seed, k]).
The streams are therefore the same as with a fresh generator per
frame, without one OS-entropy seeding per frame.

Cubes and camera streams whose frames hold at least CUBE_CHUNK pixels
are filled by fieldcore.run_ranges: one process per usable CPU, at most
one per JOB_FRAMES frames (frame_workers), each with a contiguous range
of frames, its own float64 buffer and its own re-keyed Philox, writing
straight into the float32 result, which such a call allocates as shared
memory. This process fills the first range and forked workers the
others, and the bytes are those of the serial loop. Smaller frames keep
the serial loop, where forking would cost more than it saves; several
such cubes (simulate_cubes, the repeats of a sensitivity estimate) are
split whole over the processes instead (cube_workers). Every input is
checked before the first fork, so an input error reaches the caller as
the serial loop raises it.
"""

import math
from dataclasses import dataclass

import numpy as np

from nvscope.fieldcore import (GAMMA_NV, SIGMA_MINUS, check_component,
                               is_number, lst, output_array, run_ranges,
                               usable_cpus, worker_count)


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


def contrast_at(b_polarized, dt_mw_ns, decay, c0, out=None):
    """Noiseless contrast for field b (T) after a dt_mw pulse (ns).

    Broadcasts over b and dt. With out, dt is a scan and frame k of out
    (shape dt.shape + b.shape) receives the contrast at dt[k], computed
    in place with no temporary of out's size; out is returned.
    """
    return _contrast(rabi_omega(b_polarized), _durations(dt_mw_ns), decay,
                     c0, out)


def _durations(dt_ns):
    """dt_ns as a float array, if no pulse duration is negative; else
    ValueError."""
    dt = np.asarray(dt_ns, dtype=float)
    if np.any(dt < 0):
        raise ValueError("pulse durations must be non-negative")
    return dt


def _contrast(omega, dt, decay, c0, out=None):
    """contrast_at for the Rabi frequencies omega (rad/ns) of a field and
    the _durations dt (ns)."""
    if out is not None:
        dt = dt.reshape(dt.shape + (1,) * omega.ndim)
    # c0 * env(dt) * sin(omega dt / 2)^2, each step into out when given
    phase = np.divide(np.multiply(omega, dt, out=out), 2.0, out=out)
    sin2 = np.square(np.sin(phase, out=out), out=out)
    return np.multiply(c0 * decay.envelope(dt), sin2, out=out)


def _frame_rngs(seed):
    """rng(k) is the Generator of frame k for a seeded run.

    Every call re-keys one shared Philox to the state of a fresh
    Philox(key=[seed mod 2^64, k mod 2^64]) and returns its Generator,
    so a generator is valid only until the next call.
    """
    seed = int(seed) % 2 ** 64
    bitgen = np.random.Philox(0)  # keyed() sets the state before any draw
    rng = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)

    def keyed(frame_index):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros,
                      "key": np.array([seed, int(frame_index) % 2 ** 64],
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


def simulate_contrast_image(bmap, dt_mw_ns, pulse, decay, noise_seed=None,
                            frame_index=0):
    """One contrast frame for a polarized field map.

    noise_seed None returns the ideal (noiseless) contrast; otherwise
    Poisson photon noise is applied with the (seed, frame_index) stream.
    """
    ideal = contrast_at(bmap.values, dt_mw_ns, decay, pulse.c0)
    if noise_seed is None:
        return ideal
    rng = _frame_rngs(noise_seed)(frame_index)
    return _apply_shot_noise(ideal, pulse.counts_ref, rng)


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


# Float64 contrast values per _contrast call while a cube is filled,
# and the frame size from which frames are filled by forked workers.
# The ideal contrast and the noise are computed in float64 and each frame
# is stored once into the float32 result, so the float64 values are held
# a few frames at a time per worker, never for the whole cube; a frame of
# more pixels than this is computed alone. Frames of fewer pixels are
# filled serially: their numpy calls are too short to pay for a fork.
CUBE_CHUNK = 8192

# Frames per worker, at least. A worker holds three float64 frames at a
# time (its contrast buffer, N_ref and N_data), the size of six float32
# frames, so each worker holds under a fifth of its range's frames.
JOB_FRAMES = 32


def frame_workers(shape):
    """The processes that fill a cube or stream of shape (frames first):
    one per usable CPU and at most one per JOB_FRAMES frames
    (fieldcore.worker_count), or 1, the serial loop, for frames of fewer
    than CUBE_CHUNK pixels."""
    n_frames, frame_px = shape[0], math.prod(shape[1:])
    if frame_px < CUBE_CHUNK:
        return 1
    return worker_count(usable_cpus(), n_frames // JOB_FRAMES)


def _fill_frames(frames, ideals, counts_ref, seed, workers):
    """Store every frame k of frames (float32, frames first): the float64
    ideal contrast, with seed None, else its shot-noise draw from the
    (seed, k) stream. ideals(k0, k1) yields the ideal frames k0..k1-1,
    each in a buffer of the caller's range that the noise overwrites.

    The frames run through fieldcore.run_ranges over `workers`
    processes, so above 1 frames must be output_array memory. Each
    range calls ideals and keys its own Philox, so the bytes are those
    of one serial range.
    """
    def run(k0, k1):
        rng = None if seed is None else _frame_rngs(seed)
        for k, ideal in enumerate(ideals(k0, k1), k0):
            frames[k] = (ideal if rng is None else _apply_shot_noise(
                ideal, counts_ref, rng(k), out=ideal))

    run_ranges(len(frames), workers, run)


def cube_workers(shape, n_cubes):
    """The processes that fill n_cubes cubes of shape (frames first):
    frame_workers(shape) where that splits each cube's frames, else one
    per usable CPU and at most one per cube, each filling whole cubes
    serially, so that no worker forks again."""
    workers = frame_workers(shape)
    if workers > 1:
        return workers
    return worker_count(usable_cpus(), n_cubes)


def simulate_cube(bmap, dt_list_ns, pulse, decay, seed=None):
    """Scan dt_mw and stack contrast frames; independent noise per frame.

    Contrast and noise are computed in float64; the cube holds them
    rounded to float32.
    """
    return simulate_cubes(bmap, dt_list_ns, pulse, decay, [seed])[0]


def simulate_cubes(bmap, dt_list_ns, pulse, decay, seeds):
    """simulate_cube(bmap, dt_list_ns, pulse, decay, seed) for each of
    the seeds, bit for bit; the cubes view one float32 block.

    Cubes whose frames frame_workers splits are filled one after
    another, each over its own workers. Smaller cubes are split over
    cube_workers processes through fieldcore.run_ranges, each filling a
    contiguous range of whole cubes into the block, which such a call
    allocates as shared memory. Each cube keys its own seed's Philox.
    """
    # checked and computed once, before any worker is forked
    omega = rabi_omega(bmap.values)
    dt_list_ns = _durations(dt_list_ns)
    shape = bmap.values.shape
    cube_shape = (len(dt_list_ns),) + shape
    frame_split = frame_workers(cube_shape)
    workers = cube_workers(cube_shape, len(seeds))
    cubes = output_array((len(seeds),) + cube_shape, np.float32, workers)
    step = max(1, CUBE_CHUNK // bmap.values.size)

    def ideals(k0, k1):
        # one float64 buffer per range, filled step frames at a time
        ideal = np.empty((min(step, k1 - k0),) + shape)
        for k in range(k0, k1, step):
            dts = dt_list_ns[k:min(k + step, k1)]
            yield from _contrast(omega, dts, decay, pulse.c0,
                                 out=ideal[:len(dts)])

    def fill(j0, j1):
        for j in range(j0, j1):
            _fill_frames(cubes[j], ideals, pulse.counts_ref, seeds[j],
                         frame_split)

    run_ranges(len(seeds), 1 if frame_split > 1 else workers, fill)
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
    exposure midpoint, "off" at or past the schedule's end, and "off"
    frames have zero ideal contrast. Returns a record array of
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

    ideal_on = contrast_at(bmap.values, dt_mw_ns, decay, pulse.c0)

    def ideals(k0, k1):
        ideal = np.empty_like(ideal_on)  # one buffer per range
        for on in frames_on[k0:k1]:
            ideal[...] = ideal_on if on else 0.0
            yield ideal

    workers = frame_workers((len(starts),) + ideal_on.shape)
    stream = output_array((len(starts),), stream_dtype(ideal_on.shape),
                          workers)
    stream["t"] = starts
    _fill_frames(stream["frame"], ideals, pulse.counts_ref, seed, workers)
    return stream
