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
"""

import math
from dataclasses import dataclass

import numpy as np

from nvscope.fieldcore import (GAMMA_NV, SIGMA_MINUS, check_component,
                               is_number, lst)


@dataclass
class PulseParams:
    """Per-exposure pulse train and photon budget."""

    laser_ns: float = 700.0
    wait_ns: float = 1500.0
    n_shots: int = 100
    c0: float = 0.05
    counts_ref: float = 1e4

    def __post_init__(self):
        if self.laser_ns < 0 or self.wait_ns < 0:
            raise ValueError("pulse durations must be non-negative")
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
        if not (self.tau_fast_ns > 0 and self.tau_slow_ns > 0):
            raise ValueError("decay times must be positive")
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
    """Angular Rabi frequency in rad/ns for a field amplitude in teslas."""
    return 2.0 * math.pi * GAMMA_NV * 1e-9 * np.asarray(b_polarized, dtype=float)


def contrast_at(b_polarized, dt_mw_ns, decay, c0, out=None):
    """Noiseless contrast for field b (T) after a dt_mw pulse (ns).

    Broadcasts over b and dt. With out, dt is a scan and frame k of out
    (shape dt.shape + b.shape) receives the contrast at dt[k], computed
    in place with no temporary of out's size; out is returned.
    """
    b = np.asarray(b_polarized, dtype=float)
    dt = np.asarray(dt_mw_ns, dtype=float)
    if np.any(b < 0):
        raise ValueError("field amplitudes must be non-negative")
    if np.any(dt < 0):
        raise ValueError("pulse durations must be non-negative")
    if out is not None:
        dt = dt.reshape(dt.shape + (1,) * b.ndim)
    omega = rabi_omega(b)
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


def _apply_shot_noise(ideal, counts_ref, rng):
    # fixed draw order: reference exposure first, then data exposure
    n_ref = rng.poisson(counts_ref, size=ideal.shape)
    n_data = rng.poisson(counts_ref * (1.0 - ideal), size=ideal.shape)
    n_ref = np.maximum(n_ref, 1)  # a dead reference pixel still divides
    return 1.0 - n_data / n_ref


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


# Float64 contrast values per contrast_at call while a cube is filled.
# The ideal contrast and the noise are computed in float64 and each frame
# is stored once into the float32 cube, so the float64 values are held a
# few frames at a time, never for the whole cube; a frame of more pixels
# than this is computed alone.
CUBE_CHUNK = 8192


def simulate_cube(bmap, dt_list_ns, pulse, decay, seed=None):
    """Scan dt_mw and stack contrast frames; independent noise per frame.

    Contrast and noise are computed in float64; the cube holds them
    rounded to float32.
    """
    dt_list_ns = np.asarray(dt_list_ns, dtype=float)
    shape = bmap.values.shape
    frames = np.empty((len(dt_list_ns),) + shape, dtype=np.float32)
    step = max(1, CUBE_CHUNK // bmap.values.size)
    ideal = np.empty((min(step, len(dt_list_ns)),) + shape)
    rng = None if seed is None else _frame_rngs(seed)
    for k0 in range(0, len(dt_list_ns), step):
        dts = dt_list_ns[k0:k0 + step]
        chunk = contrast_at(bmap.values, dts, decay, pulse.c0,
                            out=ideal[:len(dts)])
        if rng is None:
            frames[k0:k0 + len(dts)] = chunk
            continue
        for k, ideal_k in enumerate(chunk, k0):
            frames[k] = _apply_shot_noise(ideal_k, pulse.counts_ref, rng(k))
    return ImageCube(grid=bmap.grid, dt_ns=dt_list_ns, frames=frames,
                     pulse=pulse, seed=seed, component=bmap.component)


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
    zeros = np.zeros_like(ideal_on)
    rng = None if seed is None else _frame_rngs(seed)
    stream = np.empty(len(starts), dtype=stream_dtype(ideal_on.shape))
    stream["t"] = starts
    frames = stream["frame"]
    for k, on in enumerate(frames_on):
        ideal = ideal_on if on else zeros
        frames[k] = (ideal if rng is None else
                     _apply_shot_noise(ideal, pulse.counts_ref, rng(k)))
    return stream
