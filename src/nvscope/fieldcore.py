"""Coordinate frames, NV geometry, polarization, the document reader and
the fork-and-join runner that splits a loop over processes.

Conventions used throughout the package:

* positions in meters, magnetic fields in teslas, frequencies in Hz,
  pulse durations in nanoseconds;
* a microwave field is a complex phasor ``B(r)``, the physical field
  being ``Re[B exp(-i w t)]``;
* the circular components about an NV axis with transverse frame
  (e1, e2) are ``b_plus = |u - i v| / 2`` and ``b_minus = |u + i v| / 2``
  where ``u = b . e1`` and ``v = b . e2``. A linear transverse field of
  amplitude beta splits as beta/2 + beta/2, and reversing the axis
  swaps the two components.
"""

import math
import mmap
import os
import sys
import traceback
from dataclasses import dataclass

import numpy as np

# mu0 kept at its defined (pre-2019) value so closed-form wire fields
# round-trip exactly in tests.
MU0 = 4.0e-7 * math.pi

# NV gyromagnetic ratio, 28 kHz/uT in SI (Hz per tesla).
GAMMA_NV = 2.8e10

# Ground-state zero-field splitting (Hz).
D_ZFS = 2.87e9

ORTHO_TOL = 1e-12


def _as_vec3(v, name="vector"):
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} components must be finite")
    return a


# -------------------- document reader: scenarios and container headers

class ConfigError(ValueError):
    """Configuration problem; the message carries the field path."""


# Converters for param and field: each returns a JSON value as the
# program uses it, or raises ValueError saying what it "must be". A number
# is a finite JSON int or float, never a bool; an integer is a JSON int.

def converter(what, test, cast=None):
    """Converter passing values for which test holds, through cast."""
    def convert(value):
        if not test(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return cast(value) if cast else value
    return convert


def is_number(value):
    # compared exactly, so that an int beyond float range is no number
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def numbers(n=None):
    """Converter for a list of numbers, n of them if given, as floats."""
    return converter(f"{n} numbers" if n else "a list of numbers", lambda v: (
        isinstance(v, (list, tuple)) and (n is None or len(v) == n)
        and all(map(is_number, v))), lambda v: [float(x) for x in v])


def one_of(options):
    """Converter passing the values in options."""
    return converter(f"one of {options}", lambda v: v in options)


def nullable(convert):
    """Converter passing None, and any other value through convert."""
    return lambda value: None if value is None else convert(value)


number = converter("a number", is_number, float)
integer = converter("an integer", lambda v: (
    isinstance(v, int) and not isinstance(v, bool)))
string = converter("a string", lambda v: isinstance(v, str))
boolean = converter("true or false", lambda v: isinstance(v, bool))
obj = converter("an object", lambda v: isinstance(v, dict))
lst = converter("a list", lambda v: isinstance(v, list))
vec3 = numbers(3)
vec3_pair = converter("two vectors", lambda v: (
    isinstance(v, list) and len(v) == 2), lambda v: tuple(map(vec3, v)))


def within(convert, what, test):
    """convert(value), which checks the type first, if test holds for it."""
    in_range = converter(what, test)
    return lambda value: in_range(convert(value))


def at_least(k):
    """Converter passing a JSON integer of at least k."""
    return within(integer, f"an integer >= {k}", lambda v: v >= k)


positive = within(number, "positive", lambda v: v > 0)
non_negative = within(number, "non-negative", lambda v: v >= 0)


_REQUIRED = object()


def field(value, where, convert=number):
    """convert(value); its TypeError or ValueError becomes a ConfigError
    naming the field `where`."""
    try:
        return convert(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where} {err}") from None


def param(doc, path, key, convert=number, default=_REQUIRED):
    """doc[key] through convert, or default when the key is absent, which
    is an error without one. Errors name the field path.key, or key alone
    at the top of a document (empty path)."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"{where} is required")
        return default
    return field(doc[key], where, convert)


def given(doc, path, **fields):
    """{name: value} for each name=(key, convert) whose key doc sets, read
    through convert; the callee keeps its own defaults for the others."""
    return {name: param(doc, path, key, convert)
            for name, (key, convert) in fields.items() if key in doc}


def number_fields(doc, path, integers=()):
    """doc, each value checked a JSON number (integer for the keys in
    integers) and passed on as written: 700 stays an int in headers."""
    for key in doc:
        param(doc, path, key, integer if key in integers else number)
    return doc


def build(make, path, **kwargs):
    """make(**kwargs), its errors naming the section path."""
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from None


# unit-suffixed keys convert to SI and lose the suffix; longest first so
# current_ma does not match _a and f_mw_ghz does not match _hz
_UNIT_SUFFIXES = (("_ghz", 1e9), ("_mhz", 1e6), ("_khz", 1e3), ("_hz", 1.0),
                  ("_um", 1e-6), ("_mm", 1e-3), ("_ma", 1e-3), ("_ut", 1e-6),
                  ("_mt", 1e-3), ("_m", 1.0), ("_a", 1.0), ("_t", 1.0))


def _scale_numbers(value, factor, path):
    if isinstance(value, bool):
        raise ConfigError(f"{path}: unit-suffixed key holds a boolean")
    if isinstance(value, (int, float)):
        # a value that is no number stays as written, for its reader
        return value * factor if is_number(value) else value
    if isinstance(value, list):
        return [_scale_numbers(v, factor, path) for v in value]
    raise ConfigError(f"{path}: unit-suffixed key holds non-numeric data")


def convert_units(doc, path=""):
    """Strip unit suffixes from keys, scaling their values to SI."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            here = f"{path}.{key}" if path else key
            for suffix, factor in _UNIT_SUFFIXES:
                if key.endswith(suffix) and len(key) > len(suffix):
                    out[key[:-len(suffix)]] = _scale_numbers(
                        value, factor, here)
                    break
            else:
                out[key] = convert_units(value, here)
        return out
    if isinstance(doc, list):
        return [convert_units(v, f"{path}[{i}]") for i, v in enumerate(doc)]
    return doc


@dataclass
class NvFrame:
    """Right-handed orthonormal frame attached to the NV symmetry axis.

    axis is the NV direction; (e1, e2) span the transverse plane with
    e1 x e2 = axis.
    """

    axis: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        self.axis = _as_vec3(self.axis, "axis")
        self.e1 = _as_vec3(self.e1, "e1")
        self.e2 = _as_vec3(self.e2, "e2")
        for name, v in (("axis", self.axis), ("e1", self.e1), ("e2", self.e2)):
            if abs(np.dot(v, v) - 1.0) > ORTHO_TOL:
                raise ValueError(f"{name} is not unit length")
        if (abs(np.dot(self.axis, self.e1)) > ORTHO_TOL
                or abs(np.dot(self.axis, self.e2)) > ORTHO_TOL
                or abs(np.dot(self.e1, self.e2)) > ORTHO_TOL):
            raise ValueError("frame vectors are not mutually orthogonal")
        if np.max(np.abs(np.cross(self.e1, self.e2) - self.axis)) > ORTHO_TOL:
            raise ValueError("frame is not right-handed (e1 x e2 != axis)")
        for v in (self.axis, self.e1, self.e2):
            v.setflags(write=False)


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def nv_frame_from_tilt(tilt_deg, tilt_plane="xz"):
    """Frame whose axis is tilted from +z toward a lab axis.

    tilt_plane is a two-letter tag naming the plane containing the axis;
    it must contain z (e.g. "xz" tilts the axis from z toward x). e1 is
    chosen in the tilt plane, e2 along the remaining lab axis, so that
    (e1, e2, axis) is right-handed.
    """
    if not 0.0 <= tilt_deg <= 90.0:
        raise ValueError(f"tilt angle must be in [0, 90] degrees, got {tilt_deg}")
    plane = tilt_plane.lower()
    if len(plane) != 2 or plane[0] not in _AXIS_INDEX or plane[1] not in _AXIS_INDEX:
        raise ValueError(f"tilt_plane must name two lab axes, got {tilt_plane!r}")
    if plane[0] == plane[1]:
        raise ValueError("tilt_plane must name two distinct axes")
    if "z" not in plane:
        raise ValueError("tilt_plane must contain the z axis")
    toward = plane[0] if plane[1] == "z" else plane[1]
    i = _AXIS_INDEX[toward]

    t = math.radians(tilt_deg)
    axis = np.zeros(3)
    axis[i] = math.sin(t)
    axis[2] = math.cos(t)
    # e1 in the tilt plane, perpendicular to axis, tipping away from z
    e1 = np.zeros(3)
    e1[i] = math.cos(t)
    e1[2] = -math.sin(t)
    e2 = np.cross(axis, e1)
    return NvFrame(axis=axis, e1=e1, e2=e2)


def flip_axis(frame):
    """Frame with the NV axis reversed (e2 negated to stay right-handed).

    Under the flipped frame decompose_polarization swaps b_plus and
    b_minus for every input; applying it twice restores the original.
    """
    return NvFrame(axis=-frame.axis, e1=frame.e1.copy(), e2=-frame.e2)


def decompose_polarization(b, frame):
    """Split a complex field phasor into axial and circular parts.

    b is a complex (3,) phasor in teslas. Returns (b_par, b_plus,
    b_minus): the axial magnitude and the two rotating transverse
    amplitudes about the frame axis.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (3,):
        raise ValueError(f"phasor must have shape (3,), got {b.shape}")
    u = b @ frame.e1
    v = b @ frame.e2
    b_par = abs(b @ frame.axis)
    b_plus = abs(u - 1j * v) / 2.0
    b_minus = abs(u + 1j * v) / 2.0
    return b_par, b_plus, b_minus


SIGMA_PLUS = "sigma+"
SIGMA_MINUS = "sigma-"

TRANSITIONS = (SIGMA_PLUS, SIGMA_MINUS)


def check_component(component):
    """component, if it is one of TRANSITIONS; otherwise ValueError."""
    return field(component, "component", one_of(TRANSITIONS))


def bias_field_for_frequency(f_mw, transition):
    """Static field magnitude (T) tuning the chosen transition to f_mw.

    Solves f_mw = D_ZFS + GAMMA_NV * B for sigma+ and
    f_mw = D_ZFS - GAMMA_NV * B for sigma-, requiring B >= 0. Asking for
    a frequency on the wrong side of D_ZFS raises with the transition
    that can reach it.
    """
    if f_mw <= 0:
        raise ValueError("drive frequency must be positive")
    if transition not in TRANSITIONS:
        raise ValueError(f"transition must be one of {TRANSITIONS}, got {transition!r}")
    detuning = f_mw - D_ZFS
    if transition == SIGMA_PLUS:
        b = detuning / GAMMA_NV
        other = SIGMA_MINUS
    else:
        b = -detuning / GAMMA_NV
        other = SIGMA_PLUS
    if b < 0:
        raise ValueError(
            f"{transition} cannot reach {f_mw:.6g} Hz with a non-negative "
            f"bias field; use {other}")
    return b


# Gauss-Legendre nodes across a sensing layer: the fewest whose phasor
# map is within 1e-6 per-pixel |dB|/|B| of a 48-node reference on every
# bundled scenario (6 nodes reach 3.4e-6, 7 nodes 3.5e-7).
LAYER_NODES = 7


def _legendre(n, x):
    """P_n(x) and its derivative by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre(n):
    """n-node Gauss-Legendre rule for the mean over [-1, 1].

    Returns ascending nodes and weights summing to 1, exact for
    polynomials of degree up to 2n - 1. The nodes are Newton's roots of
    P_n from Chebyshev-like starts; nodes and weights are then made
    exactly symmetric about 0.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    dp = _legendre(n, x)[1]
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


@dataclass
class SensingLayer:
    """NV-doped slab at mean height h with thickness d above the device.

    Fields are averaged across the slab by n_samples-node Gauss-Legendre
    quadrature; a zero-thickness layer has one height, of weight 1.
    """

    h: float
    d: float = 0.0
    n_samples: int = LAYER_NODES

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("layer thickness must be non-negative")
        if self.h - self.d / 2.0 < 0:
            raise ValueError("layer must not extend below the device plane")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def _rule(self):
        # a zero thickness takes the one-node rule: node 0, weight 1
        return gauss_legendre(self.n_samples if self.d > 0 else 1)

    def heights(self):
        """Quadrature heights on [h - d/2, h + d/2], ascending."""
        return self.h + (self.d / 2.0) * self._rule()[0]

    def weights(self):
        """Quadrature weights of heights(), summing to 1."""
        return self._rule()[1]


def layer_average(f, layer, x, y):
    """Mean of f(x, y, z) over the layer thickness at fixed (x, y).

    f is any callable of three scalars; the weighted sum over
    layer.heights() and layer.weights(), added in ascending height order.
    Exact for zero thickness.
    """
    total = 0.0
    for z, w in zip(layer.heights(), layer.weights()):
        total += w * f(x, y, z)
    return total


def usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ------------------------------------------- fork-and-join over ranges

def workers_for(work, grain, most=None):
    """The processes of a run_ranges call over `work` units, each worker
    given at least `grain` of them: one per usable CPU, at most
    work // grain and `most` (no cap when None), and at least 1; or 1,
    the serial call, where os.fork does not exist. nvscope reads the CPU
    count nowhere else."""
    if not hasattr(os, "fork"):
        return 1
    caps = (usable_cpus(), work // grain) + (() if most is None else (most,))
    return max(1, min(caps))


def output_array(shape, dtype, workers):
    """A zeroed array of the shape tuple for a run_ranges call of
    `workers` processes to fill: on this process's heap for one, else
    in an anonymous shared mmap, where forked workers' writes reach
    this process."""
    if workers == 1:
        return np.zeros(shape, dtype)
    shared = mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize)
    return np.frombuffer(shared, dtype).reshape(shape)


def run_ranges(n, workers, run):
    """run(k0, k1) on contiguous ranges that cover range(n) once, in
    order: one range per worker, at most one per k and at least one.

    This process runs the first range; forked workers run the others,
    each writing its results into output_array memory. A worker leaves
    through os._exit, so it runs no exit handler and flushes no buffer
    of the parent's. Every worker is reaped before this returns or
    raises; an error of this process's range propagates as it is, and a
    worker that failed, or was killed, raises RuntimeError.
    """
    workers = max(1, min(workers, n))
    edges = [n * j // workers for j in range(workers + 1)]
    pids = []
    try:
        for k0, k1 in zip(edges[1:-1], edges[2:]):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    run(k0, k1)
                    code = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            pids.append(pid)
        run(edges[0], edges[1])
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    if any(codes):
        raise RuntimeError(f"forked workers exited with {codes}")
