"""Microwave devices as discretized complex current distributions.

Devices are reduced to straight wire segments carrying phasor currents.
Strips become bundles of parallel filaments across the width, either
uniformly weighted or with the quasi-static edge-singular profile
1/sqrt(1 - (2x/w)^2); loops are chorded into short segments. These
filament models stand in for a full-wave current solve, which is out of
scope.

All dimensions are SI meters and all currents are complex amperes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from nvscope.fieldcore import (ConfigError, _as_vec3, at_least, field, lst,
                               number, numbers, obj, one_of, param, positive,
                               vec3)

_pair = numbers(2)


def _as_current(value):
    """A complex scalar, a number or an [re, im] pair of numbers."""
    if isinstance(value, complex):
        return value
    if isinstance(value, (list, tuple)):
        return complex(*_pair(value))
    return complex(number(value))


@dataclass
class CurrentModel:
    """Straight current segments, held as the arrays the field kernel reads.

    starts/ends are (n, 3) meters, currents (n,) complex amperes.
    Segment order is significant: field evaluation accumulates in array
    order, which keeps outputs bit-reproducible.
    """

    starts: np.ndarray
    ends: np.ndarray
    currents: np.ndarray

    def __post_init__(self):
        self.starts = np.ascontiguousarray(self.starts, dtype=float)
        self.ends = np.ascontiguousarray(self.ends, dtype=float)
        self.currents = np.ascontiguousarray(self.currents, dtype=complex)
        if self.starts.ndim != 2 or self.starts.shape[1] != 3:
            raise ValueError("starts must have shape (n, 3)")
        if self.ends.shape != self.starts.shape:
            raise ValueError("ends must match starts in shape")
        if self.currents.shape != (self.starts.shape[0],):
            raise ValueError("currents must have shape (n,)")
        if not (np.all(np.isfinite(self.starts)) and np.all(np.isfinite(self.ends))
                and np.all(np.isfinite(self.currents))):
            raise ValueError("model contains non-finite values")
        if np.any(np.all(self.starts == self.ends, axis=1)):
            raise ValueError("model contains zero-length segments")

    @property
    def n_segments(self):
        return self.starts.shape[0]


def superpose(models):
    """Concatenate current models; the field of the result is the sum.

    Segment order is the concatenation order, so superpose([m]) carries
    m's segments unchanged.
    """
    models = list(models)
    if not models:
        raise ValueError("superpose needs at least one model")
    return CurrentModel(
        starts=np.concatenate([m.starts for m in models]),
        ends=np.concatenate([m.ends for m in models]),
        currents=np.concatenate([m.currents for m in models]))


UNIFORM = "uniform"
EDGE = "edge"
PROFILES = (UNIFORM, EDGE)


def offset_polyline(points, offset):
    """Shift a z-plane polyline sideways by a signed in-plane offset.

    The shift is along z x tangent; interior vertices use miter joins.
    Doubling back (180 degree turns) has no finite miter and is
    rejected.
    """
    points = np.asarray(points, dtype=float)
    deltas = np.diff(points, axis=0)
    tangents = deltas / np.linalg.norm(deltas, axis=1)[:, None]
    lefts = np.cross((0.0, 0.0, 1.0), tangents)
    lefts /= np.linalg.norm(lefts, axis=1)[:, None]
    out = np.empty_like(points)
    out[0] = points[0] + offset * lefts[0]
    out[-1] = points[-1] + offset * lefts[-1]
    for i in range(1, len(points) - 1):
        n_in, n_out = lefts[i - 1], lefts[i]
        denom = 1.0 + float(np.dot(n_in, n_out))
        if denom < 1e-9:
            raise ValueError(f"polyline doubles back at vertex {i}")
        out[i] = points[i] + offset * (n_in + n_out) / denom
    return out


def _filament_offsets(width, n):
    """Bin midpoints across the width, exactly symmetric about zero."""
    k = np.arange(n)
    mids = -width / 2.0 + (k + 0.5) * (width / n)
    return 0.5 * (mids - mids[::-1])


def _edge_bin_weights(n):
    """Fraction of an edge-crowded unit current in each of n equal bins.

    Integral of 1/(pi sqrt(1-s^2)) over bin k in s = 2x/w coordinates;
    closed form via arcsin. Weights sum to 1 by telescoping.
    """
    edges = -1.0 + 2.0 * np.arange(n + 1) / n
    edges = 0.5 * (edges - edges[::-1])  # force exact symmetry
    a = np.arcsin(edges)
    return (a[1:] - a[:-1]) / math.pi


def _filaments(centerline, width, current, profile, n_filaments):
    """A flat strip along a z-plane polyline as parallel filaments, one
    per equal-width transverse bin, at its midpoint and carrying the
    profile integrated over the bin: the total current is preserved
    whatever the profile. Segments run filament by filament."""
    if profile == UNIFORM:
        weights = np.full(n_filaments, 1.0 / n_filaments)
    else:
        weights = _edge_bin_weights(n_filaments)
    lines = np.array([offset_polyline(centerline, off)
                      for off in _filament_offsets(width, n_filaments)])
    return CurrentModel(lines[:, :-1].reshape(-1, 3),
                        lines[:, 1:].reshape(-1, 3),
                        np.repeat(current * weights, len(centerline) - 1))


def _centerline(value):
    """At least two 3D points in one z plane, none repeated next, as an
    (n, 3) array."""
    if len(lst(value)) < 2:
        raise ValueError(f"must list at least two 3D points, got {value!r}")
    points = np.array([vec3(point) for point in value])
    if np.any(points[:, 2] != points[0, 2]):
        raise ValueError(f"must lie in the first point's z plane, got "
                         f"{value!r}")
    if np.any(np.all(points[1:] == points[:-1], axis=1)):
        raise ValueError(f"must not repeat a point, got {value!r}")
    offset_polyline(points, 0.0)  # raises where the line doubles back
    return points


def _build_strip(params, path):
    read = functools.partial(param, params, path)
    return _filaments(read("centerline", _centerline),
                      read("width", positive), read("current", _as_current),
                      read("profile", one_of(PROFILES), default=UNIFORM),
                      read("n_filaments", at_least(1), default=32))


def _build_cpw(params, path):
    read = functools.partial(param, params, path)
    dims = ("signal_width", "gap", "ground_width", "length")
    signal_width, gap, ground_width, length = (read(k, positive) for k in dims)
    current = read("current", _as_current)
    left, right = read("ground_split", _pair, default=(0.5, 0.5))
    profile = read("profile", one_of(PROFILES), default=EDGE)
    n_filaments = read("n_filaments", at_least(1), default=32)
    if abs((left + right) - 1.0) > 1e-12:
        raise ConfigError(f"{path}.ground_split must sum to 1, got "
                          f"{[left, right]}")
    half_len = length / 2.0
    x_ground = signal_width / 2.0 + gap + ground_width / 2.0
    # (x, width, current) of the signal strip and the left and right ground
    strips = ((0.0, signal_width, current),
              (-x_ground, ground_width, -current * left),
              (x_ground, ground_width, -current * right))
    return superpose(
        _filaments(np.array([(x, -half_len, 0.0), (x, half_len, 0.0)]),
                   width, i, profile, n_filaments)
        for x, width, i in strips)


def _build_segments(params, path):
    entries = param(params, path, "segments", lst)
    if not entries:
        raise ConfigError(f"{path}.segments must list at least one segment")
    starts, ends, currents = [], [], []
    for i, entry in enumerate(entries):
        here = f"{path}.segments[{i}]"
        read = functools.partial(param, field(entry, here, obj), here)
        starts.append(read("start", vec3))
        ends.append(read("end", vec3))
        currents.append(read("current", _as_current))
        if starts[-1] == ends[-1]:
            raise ConfigError(f"{here} must have distinct start and end")
    return CurrentModel(starts, ends, currents)


def arc_points(center, radius, a_start, a_end, max_chord):
    """Points along a circular arc in the z plane of `center`.

    Chord length per step stays below max_chord.
    """
    center = _as_vec3(center, "center")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if max_chord <= 0:
        raise ValueError("max_chord must be positive")
    step = 2.0 * math.asin(min(1.0, max_chord / (2.0 * radius)))
    n = max(1, int(math.ceil(abs(a_end - a_start) / step)))
    ang = np.linspace(a_start, a_end, n + 1)
    pts = np.column_stack([center[0] + radius * np.cos(ang),
                           center[1] + radius * np.sin(ang),
                           np.full(n + 1, center[2])])
    return pts


def _build_omega_loop(params, path):
    read = functools.partial(param, params, path)
    r = read("radius", positive)
    gap = read("gap", positive)
    current = read("current", _as_current)
    lead = read("lead_length", positive, default=2.0 * r)
    center = read("center", vec3, default=np.zeros(3))
    max_chord = read("max_chord", positive, default=r / 16.0)
    if gap >= 2 * r:
        raise ConfigError(f"{path}.gap must be below 2 radius, got {gap}")
    # gap centered at the bottom of the circle; chord between the arc
    # endpoints equals the gap
    phi = math.asin(gap / (2.0 * r))
    arc = arc_points(center, r, -math.pi / 2 + phi, 3 * math.pi / 2 - phi,
                     max_chord)
    entry = arc[0] + np.array([0.0, -lead, 0.0])
    exit_ = arc[-1] + np.array([0.0, -lead, 0.0])
    pts = np.vstack([entry, arc, exit_])
    return CurrentModel(pts[:-1], pts[1:], np.full(len(pts) - 1, current))


def _build_meander(params, path):
    read = functools.partial(param, params, path)
    n = read("n_turns", at_least(1))
    leg = read("leg", positive)
    pitch = read("pitch", positive)
    current = read("current", _as_current)
    origin = read("origin", vec3, default=np.zeros(3))
    # n alternating legs with jogs between, half-pitch leads at both
    # ends: total length is exactly n * (leg + pitch)
    pts = [(0.0, 0.0), (pitch / 2.0, 0.0)]
    x, y = pitch / 2.0, 0.0
    for k in range(n):
        y = leg if k % 2 == 0 else 0.0
        pts.append((x, y))
        if k < n - 1:
            x += pitch
            pts.append((x, y))
    pts.append((x + pitch / 2.0, y))
    pts3 = np.array([(px, py, 0.0) for px, py in pts]) + origin
    return CurrentModel(pts3[:-1], pts3[1:], np.full(len(pts3) - 1, current))


def _build_interdigital(params, path):
    read = functools.partial(param, params, path)
    n = read("n_fingers", at_least(2))
    length = read("finger_length", positive)
    pitch = read("pitch", positive)
    gap = read("gap", positive)
    current = read("current", _as_current)
    origin = read("origin", vec3, default=np.zeros(3))
    if gap >= length:
        raise ConfigError(f"{path}.gap must be below finger_length, got {gap}")
    # Even fingers hang from the bottom bus (y=0), odd fingers from the
    # top bus (y = length + gap); conduction current runs +y through
    # every finger and the tips are open (the return closes as
    # displacement current, outside the model). Bus segment currents
    # taper so current is conserved at every junction.
    y_top = length + gap
    starts, ends, currents = [], [], []
    even, odd = range(0, n, 2), range(1, n, 2)
    i_even, i_odd = current / len(even), current / len(odd)

    def seg(x0, y0, x1, y1, i):
        starts.append(np.array([x0, y0, 0.0]) + origin)
        ends.append(np.array([x1, y1, 0.0]) + origin)
        currents.append(i)

    remaining = current
    prev_x = -pitch
    for k in even:
        x = k * pitch
        seg(prev_x, 0.0, x, 0.0, remaining)
        seg(x, 0.0, x, length, i_even)
        remaining -= i_even
        prev_x = x
    collected = 0.0 + 0.0j
    prev_x = odd[0] * pitch
    for k in odd:
        x = k * pitch
        if x != prev_x:
            seg(prev_x, y_top, x, y_top, collected)
        seg(x, gap, x, y_top, i_odd)
        collected += i_odd
        prev_x = x
    seg(prev_x, y_top, prev_x + pitch, y_top, collected)
    return CurrentModel(starts, ends, currents)


def _build_two_ring_trap(params, path):
    read = functools.partial(param, params, path)
    r_in = read("radius_inner", positive)
    r_out = read("radius_outer", positive)
    current = read("current", _as_current)
    center = read("center", vec3, default=np.zeros(3))
    max_chord = read("max_chord", positive, default=r_in / 16.0)
    if r_in >= r_out:
        raise ConfigError(f"{path}.radius_inner must be below radius_outer, "
                          f"got {r_in}")
    rings = []
    for r, i in ((r_in, current), (r_out, -current)):
        pts = arc_points(center, r, 0.0, 2.0 * math.pi, max_chord)
        pts[-1] = pts[0]  # close exactly
        rings.append(CurrentModel(pts[:-1], pts[1:], np.full(len(pts) - 1, i)))
    return superpose(rings)


_BUILDERS = {
    "strip": _build_strip,
    "cpw": _build_cpw,
    "segments": _build_segments,
    "omega-loop": _build_omega_loop,
    "meander": _build_meander,
    "interdigital": _build_interdigital,
    "two-ring-trap": _build_two_ring_trap,
}


def _devices(doc, path="device"):
    """(path, kind, params) of each device in a document, in order."""
    if "devices" not in field(doc, path, obj):
        yield path, doc.get("kind"), param(doc, path, "params", obj, {})
        return
    for i, sub in enumerate(param(doc, path, "devices", lst)):
        yield from _devices(sub, f"{path}.devices[{i}]")


def model_from_spec(doc):
    """Build a CurrentModel from a device specification document.

    The document is {"kind": ..., "params": {...}} with dimensions in
    meters and currents as [re, im] ampere pairs (bare reals accepted),
    or {"devices": [...]} to superpose several such entries. Values are
    JSON numbers, every dimension positive, and the counts n_filaments,
    n_turns (both >= 1) and n_fingers (>= 2) JSON integers. The kinds'
    params, optional ones in brackets with their defaults:

    - strip: centerline (z-plane points, none repeated next, not doubling
      back), width, current [, profile "uniform" (or "edge", crowded to
      the edges), n_filaments 32]
    - cpw: signal_width, gap, ground_width, length, current
      [, ground_split [0.5, 0.5], profile "edge", n_filaments 32]; the
      signal strip runs along y on x = 0, z = 0, between the grounds
      that return its current split left/right by ground_split (sum 1)
    - segments: segments, a list of {start, end, current}
    - omega-loop: radius, gap (below 2 radius), current [, lead_length
      2 radius, center [0, 0, 0], max_chord radius / 16]
    - meander: n_turns, leg, pitch, current [, origin [0, 0, 0]]
    - interdigital: n_fingers, finger_length, pitch, gap (below
      finger_length), current [, origin [0, 0, 0]]
    - two-ring-trap: radius_inner (below radius_outer), radius_outer,
      current [, center [0, 0, 0], max_chord radius_inner / 16];
      opposite ring currents

    A missing, ill-typed or out-of-range value raises ConfigError naming
    its field, as device.params.width or device.devices[1].params.radius.
    """
    models = []
    for path, kind, params in _devices(doc):
        if not isinstance(kind, str) or kind not in _BUILDERS:
            raise ConfigError(f"{path}.kind: unknown device kind {kind!r}; "
                              f"known kinds: {', '.join(sorted(_BUILDERS))}")
        models.append(_BUILDERS[kind](params, f"{path}.params"))
    return superpose(models)


def drive_current_a(doc):
    """Magnitude of the first current a device document names, or None."""
    for path, _, params in _devices(doc):
        if "current" in params:
            return abs(param(params, f"{path}.params", "current",
                             _as_current))
    return None
