"""On-disk containers for field maps, image cubes and camera streams.

All containers share one framing: an ASCII magic line, a single-line
JSON header, then a raw little-endian binary payload. Headers are
written with sorted keys and compact separators so identical inputs
produce identical bytes. Writes go through a temp file and os.replace,
so a crash never leaves a half-written artifact at the target path.

FMAP1  field map; payload row-major (pixel i is the slow index). kind
       "phasor" stores three complex64 values per pixel (x, y, z; each
       a float32 real part, then a float32 imaginary part); kind
       "polarized" one float32.
RCUB1  contrast image cube; float32 frames in acquisition order, each
       frame row-major. The header names the field component the cube
       was driven on.
RSTR1  camera stream; per frame a float64 timestamp in ms followed by
       one row-major float32 frame, the packed records of
       acquisition.stream_dtype.
PGM    plain 16-bit binary P5 (big-endian samples per the format),
       scaled so the map maximum hits 65535.

Headers are read by the readers of scenario sections, as strictly: a
bad field raises FormatError at the header's byte offset, naming it.
"""

import functools
import hashlib
import json
import math
import os
import re
from contextlib import contextmanager

import numpy as np

from nvscope.acquisition import (CameraTiming, ImageCube, PulseParams,
                                 check_dt_ns, check_schedule, stream_dtype)
from nvscope.fieldcore import (TRANSITIONS, build, convert_units, field,
                               given, integer, nullable, number,
                               number_fields, numbers, obj, one_of, param,
                               vec3, vec3_pair)
from nvscope.nearfield import FieldPhasorMap, GridSpec, PolarizedFieldMap

FMAP_MAGIC = b"FMAP1\n"
RCUB_MAGIC = b"RCUB1\n"
RSTR_MAGIC = b"RSTR1\n"


class FormatError(ValueError):
    """Malformed container; the message names the failing byte offset."""


def atomic_write_bytes(path, *parts):
    """Write the parts one after another to path via a same-directory
    temp file and os.replace. A part is bytes or a C-contiguous array,
    whose raw bytes are written without a copy. The file gets the mode
    open(path, "wb") gives a new file, 0o666 less the umask."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    # a random name as tempfile.mkstemp makes, but not its mode 0o600;
    # O_EXCL never opens a file that exists
    tmp = os.path.join(directory,
                       f".tmp-{os.urandom(8).hex()}{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                 | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _dump_header(doc):
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def _read_framing(fh, magic, path):
    """The JSON header of an open container, its keys converted to SI,
    and the grid it carries; fh is left at the payload."""
    if fh.read(len(magic)) != magic:
        raise FormatError(
            f"{path}: bad magic at byte 0, expected {magic!r}")
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FormatError(
            f"{path}: unterminated JSON header at byte {len(magic)}")
    try:
        doc = json.loads(line[:-1].decode())
    except ValueError as err:  # also undecodable bytes, overlong ints
        raise FormatError(
            f"{path}: invalid JSON header at byte {len(magic)}: {err}")
    with _blame(path, "header", len(magic)):
        doc = convert_units(field(doc, "header", obj))
        param(doc, "", "dtype", one_of(("float32",)))
        return doc, grid_from_doc(param(doc, "", "grid", obj), "grid")


@contextmanager
def _blame(path, part, offset):
    """Turn a missing, ill-typed or invalid value read in the block into
    a FormatError naming the part of the file it came from and that
    part's byte offset."""
    try:
        yield
    except ValueError as err:
        raise FormatError(
            f"{path}: bad {part} at byte {offset}: "
            f"{type(err).__name__}: {err}") from err


def _read_payload(fh, dtype, shape, path):
    """The rest of the open file fh, read straight into a new writable
    array of dtype and shape, if it holds exactly that many bytes."""
    start = fh.tell()
    n_bytes = np.dtype(dtype).itemsize * math.prod(shape)
    got = os.fstat(fh.fileno()).st_size - start
    if got != n_bytes:
        raise FormatError(
            f"{path}: payload at byte {start} expected {n_bytes} bytes, "
            f"got {got}")
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out) != n_bytes:
        raise FormatError(f"{path}: payload at byte {start} changed while "
                          "it was read")
    return out


def grid_to_doc(grid):
    return {"origin_m": [float(v) for v in grid.origin],
            "axes": [[float(v) for v in ax] for ax in grid.axes],
            "nx": grid.nx, "ny": grid.ny, "pitch_m": grid.pitch}


def pulse_to_doc(pulse):
    if pulse is None:
        return None
    return {"laser_ns": pulse.laser_ns, "wait_ns": pulse.wait_ns,
            "n_shots": pulse.n_shots, "c0": pulse.c0,
            "counts_ref": pulse.counts_ref}


# Readers of the sections that scenarios and headers share: each reads
# a section in SI units, its errors naming the field path.

def grid_from_doc(doc, path):
    g = functools.partial(param, doc, path)
    return build(GridSpec, path, origin=g("origin", vec3),
                 axes=g("axes", vec3_pair), nx=g("nx", integer),
                 ny=g("ny", integer), pitch=g("pitch"))


def pulse_from_doc(doc, path):
    return build(PulseParams, path,
                 **number_fields(doc, path, integers=("n_shots",)))


def timing_from_doc(doc, path):
    return build(CameraTiming, path, **given(
        doc, path, row_time_us=("row_time_us", number),
        overhead_us=("overhead_us", number)))


def _section(doc, key, read):
    """read(doc[key], key) for an object doc[key]; None when the key is
    null or absent."""
    section = param(doc, "", key, nullable(obj), None)
    return None if section is None else read(section, key)


# ----------------------------------------------------------------- FMAP1

def write_field_map(path, fmap):
    """Serialize a phasor or polarized field map to an FMAP1 file."""
    if isinstance(fmap, FieldPhasorMap):
        doc = {"format": "FMAP1", "kind": "phasor",
               "grid": grid_to_doc(fmap.grid),
               "dtype": "float32", "order": "row-major"}
        buf = np.ascontiguousarray(fmap.values, dtype="<c8")
    elif isinstance(fmap, PolarizedFieldMap):
        doc = {"format": "FMAP1", "kind": "polarized",
               "component": fmap.component,
               "grid": grid_to_doc(fmap.grid),
               "dtype": "float32", "order": "row-major"}
        buf = np.ascontiguousarray(fmap.values, dtype="<f4")
    else:
        raise TypeError("expected FieldPhasorMap or PolarizedFieldMap")
    atomic_write_bytes(path, FMAP_MAGIC, _dump_header(doc), buf)


def read_field_map(path):
    """Load an FMAP1 file; returns FieldPhasorMap or PolarizedFieldMap."""
    with open(path, "rb") as fh:
        doc, grid = _read_framing(fh, FMAP_MAGIC, path)
        with _blame(path, "header", len(FMAP_MAGIC)):
            kind = param(doc, "", "kind", one_of(("phasor", "polarized")))
            if kind == "polarized":
                component = param(doc, "", "component", one_of(TRANSITIONS))
        start = fh.tell()
        shape = (grid.nx, grid.ny) + ((3,) if kind == "phasor" else ())
        values = _read_payload(fh, "<c8" if kind == "phasor" else "<f4",
                               shape, path)
    with _blame(path, "payload", start):
        if kind == "phasor":
            return FieldPhasorMap(grid=grid, values=values)
        return PolarizedFieldMap(grid=grid, component=component, values=values)


# ----------------------------------------------------------------- RCUB1

def write_cube(path, cube):
    doc = {"format": "RCUB1",
           "grid": grid_to_doc(cube.grid),
           "dt_ns": [float(v) for v in cube.dt_ns],
           "pulse": pulse_to_doc(cube.pulse),
           "seed": cube.seed,
           "component": cube.component,
           "dtype": "float32", "order": "frame-major"}
    atomic_write_bytes(path, RCUB_MAGIC, _dump_header(doc),
                       np.ascontiguousarray(cube.frames, dtype="<f4"))


def read_cube(path):
    """Load an RCUB1 file; the cube's frames are the stored float32."""
    with open(path, "rb") as fh:
        doc, grid = _read_framing(fh, RCUB_MAGIC, path)
        with _blame(path, "header", len(RCUB_MAGIC)):
            read = functools.partial(param, doc, "")
            dt = check_dt_ns(read("dt_ns", numbers()))
            pulse = _section(doc, "pulse", pulse_from_doc)
            seed = read("seed", nullable(integer), None)
            component = read("component", one_of(TRANSITIONS))
        start = fh.tell()
        frames = _read_payload(fh, "<f4", (len(dt), grid.nx, grid.ny), path)
    with _blame(path, "payload", start):
        return ImageCube(grid=grid, dt_ns=dt, frames=frames, pulse=pulse,
                         seed=seed, component=component)


# ----------------------------------------------------------------- RSTR1

def write_stream(path, grid, dt_mw_ns, frames, timing=None, rows=None,
                 schedule=None, pulse=None, seed=None):
    """Serialize a timestamped frame sequence to an RSTR1 file.

    frames is a record array of acquisition.stream_dtype, as
    simulate_stream returns it, written as it is; a list of
    (timestamp_ms, array) pairs is packed into one first.
    """
    dtype = stream_dtype((grid.nx, grid.ny))
    # numpy casts records between subarray shapes without an error,
    # scrambling the frames, so other records are refused
    if isinstance(frames, np.ndarray) and frames.dtype != dtype:
        raise ValueError(f"stream records {frames.dtype} do not match the "
                         f"grid's {dtype}")
    doc = {"format": "RSTR1",
           "grid": grid_to_doc(grid),
           "dt_mw_ns": float(dt_mw_ns),
           "n_frames": len(frames),
           "timing": None if timing is None else
           {"row_time_us": timing.row_time_us,
            "overhead_us": timing.overhead_us},
           "rows": rows,
           "schedule": schedule,
           "pulse": pulse_to_doc(pulse),
           "seed": seed,
           "dtype": "float32", "order": "frame-major"}
    atomic_write_bytes(path, RSTR_MAGIC, _dump_header(doc),
                       np.asarray(frames, dtype=dtype))


def read_stream(path):
    """Load an RSTR1 file; returns (header doc, records): the doc's
    fields checked, its grid, timing and pulse read into GridSpec,
    CameraTiming and PulseParams (None where null), and the stored
    records of acquisition.stream_dtype."""
    with open(path, "rb") as fh:
        doc, grid = _read_framing(fh, RSTR_MAGIC, path)
        with _blame(path, "header", len(RSTR_MAGIC)):
            read = functools.partial(param, doc, "")
            doc = dict(doc, grid=grid, dt_mw_ns=read("dt_mw_ns"),
                       n_frames=read("n_frames", integer),
                       timing=_section(doc, "timing", timing_from_doc),
                       rows=read("rows", nullable(integer), None),
                       schedule=read("schedule", nullable(check_schedule),
                                     None),
                       pulse=_section(doc, "pulse", pulse_from_doc),
                       seed=read("seed", nullable(integer), None))
        return doc, _read_payload(fh, stream_dtype((grid.nx, grid.ny)),
                                  (doc["n_frames"],), path)


# ------------------------------------------------------------------- PGM

def write_pgm(path, values):
    """Render a nonnegative 2D array as a max-scaled 16-bit binary PGM.

    Returns the physical value mapped to 65535 (0.0 for an all-zero
    map). Rows of the array become raster rows.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise ValueError("PGM export needs a 2D array")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValueError("PGM export needs finite nonnegative values")
    top = float(a.max())
    if top > 0:
        pix = np.round(a / top * 65535.0).astype(">u2")
    else:
        pix = np.zeros(a.shape, dtype=">u2")
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n65535\n".encode()
    atomic_write_bytes(path, header, pix)
    return top


def read_pgm(path):
    """Load a 16-bit binary PGM written by write_pgm; returns uint16 array."""
    with open(path, "rb") as fh:
        if fh.read(3) != b"P5\n":
            raise FormatError(f"{path}: bad magic at byte 0, expected b'P5'")
        header = fh.readline() + fh.readline()
        if header.count(b"\n") < 2:
            raise FormatError(
                f"{path}: truncated header at byte {fh.tell()}, expected "
                f"size and maxval lines")
        fields = []
        for m in re.finditer(rb"\S+", header):
            if not m.group().isdigit():
                raise FormatError(
                    f"{path}: header field {m.group()!r} at byte "
                    f"{3 + m.start()} is not an unsigned integer")
            fields.append(int(m.group()))
        if len(fields) != 3:
            raise FormatError(
                f"{path}: header at byte 3 has {len(fields)} fields, "
                f"expected width, height and maxval")
        w, h, maxval = fields
        if maxval != 65535:
            raise FormatError(f"{path}: expected 16-bit maxval, got {maxval}")
        return _read_payload(fh, ">u2", (h, w), path)
