"""Round-trip and corruption tests for the on-disk containers."""

import hashlib
import json
import math
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from nvscope.acquisition import (CameraTiming, DecayParams, ImageCube,
                                 PulseParams, simulate_cube, stream_dtype)
from nvscope.analysis import fit_cube
from nvscope.formats import (FormatError, atomic_write_bytes, read_cube,
                             read_field_map, read_pgm, read_stream,
                             sha256_file, write_cube, write_field_map,
                             write_pgm, write_stream)
from nvscope.nearfield import FieldPhasorMap, GridSpec, PolarizedFieldMap


def make_grid(nx=7, ny=5, pitch=4e-6):
    return GridSpec(origin=np.array([-1e-4, 2e-5, 1.2e-5]),
                    axes=(np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0])),
                    nx=nx, ny=ny, pitch=pitch)


def make_phasor_map(seed=3):
    rng = np.random.default_rng(seed)
    grid = make_grid()
    # float32-exact values so round-trips compare bitwise
    re = rng.normal(0, 1e-4, (grid.nx, grid.ny, 3)).astype(np.float32)
    im = rng.normal(0, 1e-4, (grid.nx, grid.ny, 3)).astype(np.float32)
    values = re.astype(float) + 1j * im.astype(float)
    return FieldPhasorMap(grid=grid, values=values)


def make_polarized_map(seed=4):
    rng = np.random.default_rng(seed)
    grid = make_grid()
    values = rng.uniform(0, 1e-3, (grid.nx, grid.ny)).astype(
        np.float32).astype(float)
    return PolarizedFieldMap(grid=grid, component="sigma-", values=values)


def make_cube(seed=5):
    rng = np.random.default_rng(seed)
    grid = make_grid(4, 3)
    dt = np.arange(10.0, 210.0, 10.0)
    frames = rng.uniform(0, 0.05, (len(dt), 4, 3)).astype(
        np.float32).astype(float)
    return ImageCube(grid=grid, dt_ns=dt, frames=frames,
                     pulse=PulseParams(counts_ref=5e4), seed=42)


# ------------------------------------------------------------------ FMAP1

def test_phasor_map_roundtrip(tmp_path):
    fmap = make_phasor_map()
    path = tmp_path / "map.fmap"
    write_field_map(path, fmap)
    back = read_field_map(path)
    assert isinstance(back, FieldPhasorMap)
    assert np.array_equal(back.values, fmap.values)
    assert np.array_equal(back.grid.origin, fmap.grid.origin)
    assert back.grid.pitch == fmap.grid.pitch
    assert (back.grid.nx, back.grid.ny) == (fmap.grid.nx, fmap.grid.ny)


def test_polarized_map_roundtrip(tmp_path):
    pmap = make_polarized_map()
    path = tmp_path / "map.fmap"
    write_field_map(path, pmap)
    back = read_field_map(path)
    assert isinstance(back, PolarizedFieldMap)
    assert back.component == "sigma-"
    assert np.array_equal(back.values, pmap.values)


def test_field_map_write_is_deterministic(tmp_path):
    fmap = make_phasor_map()
    p1, p2 = tmp_path / "a.fmap", tmp_path / "b.fmap"
    write_field_map(p1, fmap)
    write_field_map(p2, fmap)
    assert p1.read_bytes() == p2.read_bytes()
    # write-read-write is byte stable
    write_field_map(p2, read_field_map(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_field_map_lossy_roundtrip_precision(tmp_path):
    grid = make_grid(3, 3)
    rng = np.random.default_rng(11)
    values = rng.normal(0, 1e-4, (3, 3, 3)) + 1j * rng.normal(0, 1e-4,
                                                              (3, 3, 3))
    fmap = FieldPhasorMap(grid=grid, values=values)
    path = tmp_path / "map.fmap"
    write_field_map(path, fmap)
    back = read_field_map(path)
    assert np.allclose(back.values, fmap.values, rtol=1e-6, atol=1e-12)


def test_field_map_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fmap"
    path.write_bytes(b"NOPE1\n{}\n")
    with pytest.raises(FormatError, match="byte 0"):
        read_field_map(path)


def test_field_map_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.fmap"
    path.write_bytes(b"FMAP1\n{not json}\n")
    with pytest.raises(FormatError, match="byte 6"):
        read_field_map(path)
    path.write_bytes(b"FMAP1\nno newline after header")
    with pytest.raises(FormatError, match="unterminated"):
        read_field_map(path)
    # a header that is not an object, or lacks or mistypes a key
    grid = (b'"grid":{"axes":[[1,0,0],[0,1,0]],"nx":1,"ny":1,'
            b'"pitch_m":1e-06}')
    for reader, raw in (
            (read_field_map, b"FMAP1\n[1,2]\n"),
            (read_field_map,
             b'FMAP1\n{"dtype":"float32",' + grid + b',"kind":"polarized"}\n'
             + b"\x00" * 4),
            (read_field_map,
             b'FMAP1\n{"dtype":"float32",' + grid[:-1]
             + b',"origin_m":[0,0,0]},"kind":"polarized"}\n' + b"\x00" * 4),
            (read_cube, b'RCUB1\n{"dtype":"float32"}\n'),
            (read_cube, b"RCUB1\n[1,2]\n"),
            (read_cube,
             b'RCUB1\n{"dtype":"float32",' + grid[:-1]
             + b',"origin_m":[0,0,0]},"dt_ns":"fast"}\n'),
            # a cube header that does not name a known component
            (read_cube,
             b'RCUB1\n{"dtype":"float32",' + grid[:-1]
             + b',"origin_m":[0,0,0]},"dt_ns":[1.0]}\n' + b"\x00" * 4),
            *((read_cube,
               b'RCUB1\n{"component":' + component + b',"dtype":"float32",'
               + grid[:-1] + b',"origin_m":[0,0,0]},"dt_ns":[1.0]}\n'
               + b"\x00" * 4)
              for component in (b'"pi"', b'"axial"')),
            # a polarized map of a field that drives neither transition
            (read_field_map,
             b'FMAP1\n{"component":"axial","dtype":"float32",' + grid[:-1]
             + b',"origin_m":[0,0,0]},"kind":"polarized"}\n' + b"\x00" * 4),
            # an empty or non-increasing scan
            (read_cube,
             b'RCUB1\n{"component":"sigma-","dtype":"float32",' + grid[:-1]
             + b',"origin_m":[0,0,0]},"dt_ns":[]}\n'),
            (read_cube,
             b'RCUB1\n{"component":"sigma-","dtype":"float32",' + grid[:-1]
             + b',"origin_m":[0,0,0]},"dt_ns":[2.0,1.0]}\n' + b"\x00" * 8),
            # a seed that is not a JSON integer or null
            *((read_cube,
               b'RCUB1\n{"component":"sigma-","dtype":"float32",' + grid[:-1]
               + b',"origin_m":[0,0,0]},"dt_ns":[1.0],"seed":' + seed
               + b"}\n" + b"\x00" * 4)
              for seed in (b"7.5", b'"7"', b"true")),
            (read_stream, b'RSTR1\n{"grid":null}\n'),
            (read_stream, b'RSTR1\n{"dtype":"float32","grid":null}\n'),
            # a well-formed stream whose header names another dtype
            (read_stream,
             b'RSTR1\n{"dtype":"float64",' + grid[:-1]
             + b',"origin_m":[0,0,0]},"n_frames":1}\n' + b"\x00" * 12)):
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="at byte 6"):
            reader(path)


def test_field_map_rejects_truncated_payload(tmp_path):
    fmap = make_polarized_map()
    path = tmp_path / "map.fmap"
    write_field_map(path, fmap)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="expected"):
        read_field_map(path)


def test_field_map_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.fmap"
    doc = (b'{"dtype":"float32","grid":{"axes":[[1,0,0],[0,1,0]],"nx":1,'
           b'"ny":1,"origin_m":[0,0,0],"pitch_m":1e-06},"kind":"mystery"}')
    path.write_bytes(b"FMAP1\n" + doc + b"\n" + b"\x00" * 4)
    with pytest.raises(FormatError, match="kind"):
        read_field_map(path)


def test_field_map_rejects_wrong_type():
    with pytest.raises(TypeError):
        write_field_map("/tmp/na", np.zeros((3, 3)))


# ------------------------------------------------------------------ RCUB1

def test_cube_roundtrip(tmp_path):
    cube = make_cube()
    path = tmp_path / "cube.rcub"
    write_cube(path, cube)
    back = read_cube(path)
    assert np.array_equal(back.frames, cube.frames)
    assert np.array_equal(back.dt_ns, cube.dt_ns)
    assert back.seed == 42
    assert back.pulse.counts_ref == 5e4
    assert back.pulse.n_shots == cube.pulse.n_shots
    assert back.grid.pitch == cube.grid.pitch


def test_cube_roundtrip_without_pulse_or_seed(tmp_path):
    cube = make_cube()
    bare = ImageCube(grid=cube.grid, dt_ns=cube.dt_ns, frames=cube.frames)
    path = tmp_path / "cube.rcub"
    write_cube(path, bare)
    back = read_cube(path)
    assert back.pulse is None
    assert back.seed is None


def test_cube_roundtrip_keeps_component(tmp_path):
    cube = make_cube()
    plus = ImageCube(grid=cube.grid, dt_ns=cube.dt_ns, frames=cube.frames,
                     component="sigma+")
    path = tmp_path / "cube.rcub"
    write_cube(path, plus)
    assert read_cube(path).component == "sigma+"


def test_cube_write_deterministic(tmp_path):
    cube = make_cube()
    p1, p2 = tmp_path / "a.rcub", tmp_path / "b.rcub"
    write_cube(p1, cube)
    write_cube(p2, cube)
    assert p1.read_bytes() == p2.read_bytes()


def test_cube_rejects_truncation(tmp_path):
    cube = make_cube()
    path = tmp_path / "cube.rcub"
    write_cube(path, cube)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(FormatError, match="payload"):
        read_cube(path)


@pytest.mark.parametrize("n_shots", [b"100.5", b"100.0", b"true", b'"100"'])
def test_cube_header_non_integer_n_shots_raises(tmp_path, n_shots):
    path = tmp_path / "cube.rcub"
    write_cube(path, make_cube())
    raw = path.read_bytes()
    assert raw.count(b'"n_shots":100,') == 1
    path.write_bytes(raw.replace(b'"n_shots":100,',
                                 b'"n_shots":' + n_shots + b",", 1))
    with pytest.raises(FormatError, match="n_shots must be an integer"):
        read_cube(path)


@pytest.mark.parametrize("make, value", [
    (make_cube, np.nan), (make_cube, 2.0), (make_phasor_map, np.nan),
    (make_polarized_map, np.nan)])
def test_invalid_payload_value_names_the_payload_offset(tmp_path, make,
                                                        value):
    # a NaN, or a contrast above 1, is a malformed file
    path = tmp_path / "file"
    obj = make()
    if isinstance(obj, ImageCube):
        write_cube(path, obj)
        reader = read_cube
    else:
        write_field_map(path, obj)
        reader = read_field_map
    raw = path.read_bytes()
    start = raw.index(b"\n", 6) + 1
    path.write_bytes(raw[:start] + np.array(value, dtype="<f4").tobytes()
                     + raw[start + 4:])
    with pytest.raises(FormatError, match=f"bad payload at byte {start}:"):
        reader(path)


def test_fit_of_a_simulated_cube_equals_fit_of_its_file(tmp_path):
    # the cube holds what RCUB1 stores, so fitting it in the process that
    # simulated it and fitting it from disk give the same records
    grid = make_grid(6, 5)
    i, j = np.meshgrid(np.arange(6), np.arange(5), indexing="ij")
    bmap = PolarizedFieldMap(grid=grid, component="sigma-",
                             values=1.2e-4 + 2e-5 * i + 1.5e-5 * j)
    cube = simulate_cube(bmap, np.arange(10.0, 801.0, 10.0),
                         PulseParams(counts_ref=2e4), DecayParams(), seed=3)
    path = tmp_path / "cube.rcub"
    write_cube(path, cube)
    fmap, results = fit_cube(cube)
    fmap_back, results_back = fit_cube(read_cube(path))
    assert results.converged.any()
    assert results.tobytes() == results_back.tobytes()
    assert fmap.values.tobytes() == fmap_back.values.tobytes()


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# The payload goes to and from disk without full-size copies, where a
# cast, a tobytes, a concatenation or a payload slice would each add a
# whole cube. In float32 cube bytes, writing measured 0.005x and reading
# 1.04x, the returned frames themselves.

def big_cube():
    rng = np.random.default_rng(8)
    dt = np.arange(1, 51) * 20.0
    frames = rng.uniform(-0.05, 0.1, (len(dt), 100, 100)).astype(np.float32)
    return ImageCube(grid=make_grid(100, 100), dt_ns=dt, frames=frames)


def test_cube_write_makes_no_payload_copy(tmp_path):
    cube = big_cube()
    _, peak = _traced_peak(lambda: write_cube(tmp_path / "cube.rcub", cube))
    assert peak < 0.1 * cube.frames.size * 4


def test_cube_read_holds_only_the_frames(tmp_path):
    cube = big_cube()
    path = tmp_path / "cube.rcub"
    write_cube(path, cube)
    back, peak = _traced_peak(lambda: read_cube(path))
    assert peak < 1.1 * cube.frames.size * 4
    assert back.frames.dtype == np.float32 and back.frames.flags.writeable
    assert np.array_equal(back.frames, cube.frames)


# ------------------------------------------------------------------ RSTR1

def test_stream_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    grid = make_grid(3, 4)
    frames = [(k * 2.2, rng.uniform(0, 0.05, (3, 4)).astype(
        np.float32).astype(float)) for k in range(5)]
    path = tmp_path / "run.rstr"
    timing = CameraTiming()
    schedule = [[3.0, "off"], [0.5, "on"], [3.0, "off"]]
    write_stream(path, grid, 30.0, frames, timing=timing, rows=50,
                 schedule=schedule, pulse=PulseParams(), seed=7)
    doc, back = read_stream(path)
    assert doc["dt_mw_ns"] == 30.0
    assert doc["rows"] == 50
    assert doc["schedule"] == schedule
    assert doc["seed"] == 7
    assert doc["timing"].row_time_us == timing.row_time_us
    assert len(back) == 5
    for (ts0, f0), (ts1, f1) in zip(frames, back):
        assert ts0 == ts1
        assert np.array_equal(f0, f1)


def test_stream_records_are_written_as_they_are(tmp_path):
    # the records read_stream returns write the bytes of the pairs they
    # came from, and read back as the same records
    rng = np.random.default_rng(3)
    pairs = [(k * 0.7, rng.uniform(0, 0.05, (3, 4))) for k in range(4)]
    write_stream(tmp_path / "pairs.rstr", make_grid(3, 4), 30.0, pairs)
    _, records = read_stream(tmp_path / "pairs.rstr")
    assert records.dtype == stream_dtype((3, 4))
    write_stream(tmp_path / "records.rstr", make_grid(3, 4), 30.0, records)
    assert ((tmp_path / "records.rstr").read_bytes()
            == (tmp_path / "pairs.rstr").read_bytes())
    _, back = read_stream(tmp_path / "records.rstr")
    assert np.array_equal(back, records)


@pytest.mark.parametrize("shape", [(4, 3), (2, 2), (3, 5)])
def test_stream_write_rejects_records_of_another_shape(tmp_path, shape):
    # a record array is written as it is, never recast to the grid
    records = np.zeros(2, dtype=stream_dtype(shape))
    with pytest.raises(ValueError, match="do not match the grid"):
        write_stream(tmp_path / "run.rstr", make_grid(3, 4), 30.0, records)
    assert not (tmp_path / "run.rstr").exists()


def test_stream_rejects_frame_loss(tmp_path):
    grid = make_grid(2, 2)
    frames = [(0.0, np.zeros((2, 2))), (1.0, np.zeros((2, 2)))]
    path = tmp_path / "run.rstr"
    write_stream(path, grid, 30.0, frames)
    raw = path.read_bytes()
    path.write_bytes(raw[:-12])
    with pytest.raises(FormatError, match="payload"):
        read_stream(path)


@pytest.mark.parametrize("make, key, digits", [
    (make_polarized_map, b'"pitch_m":4e-06', 400),
    (make_cube, b'"laser_ns":700.0', 400),
    (make_cube, b'"laser_ns":700.0', 5000)])
def test_header_int_beyond_float_range_is_a_format_error(tmp_path, make, key,
                                                         digits):
    # JSON integers have no size limit; one beyond float range is no
    # number, and one too long to parse is no JSON
    path = tmp_path / "file"
    obj = make()
    write, read = ((write_cube, read_cube) if isinstance(obj, ImageCube)
                   else (write_field_map, read_field_map))
    write(path, obj)
    raw = path.read_bytes()
    assert raw.count(key) == 1
    path.write_bytes(raw.replace(key, key.split(b":")[0] + b":1"
                                 + b"0" * digits))
    with pytest.raises(FormatError, match="at byte 6"):
        read(path)


# ------------------------------------------------- header wrong-type sweep

def write_container(path, name, full):
    """Write container `name` as its writer does, with every header field
    set (full) or with the optional ones left out; returns its reader.
    Inputs are floats except counts, seeds and sizes, so a written int
    marks an integer field."""
    cube = make_cube()
    if name == "rstr":
        extra = dict(timing=CameraTiming(), rows=50,
                     schedule=[[3.0, "off"], [0.5, "on"]],
                     pulse=PulseParams(), seed=7) if full else {}
        write_stream(path, make_grid(3, 4), 30.0,
                     [(k * 2.2, np.full((3, 4), 0.01)) for k in range(2)],
                     **extra)
        return read_stream
    if name == "rcub":
        write_cube(path, cube if full else ImageCube(
            grid=cube.grid, dt_ns=cube.dt_ns, frames=cube.frames))
        return read_cube
    write_field_map(path, {"fmap-phasor": make_phasor_map,
                           "fmap-polarized": make_polarized_map}[name]())
    return read_field_map


def split_header(path):
    """(magic, header doc, the newline and payload after the header)."""
    raw = path.read_bytes()
    end = raw.index(b"\n", 6)
    return raw[:6], json.loads(raw[6:end]), raw[end:]


def header_wrong_types(value, keys, nullable):
    """(keys, wrong value) for value and, recursively, for its entries
    and members: each JSON type it does not have (also a float for an
    integer and NaN for a number), null only where it is nullable."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        wrong = ["text", True, {}, [], None, math.nan]
        if isinstance(value, int):
            wrong.append(value + 0.5)
    else:
        wrong = [bad for bad in ("text", True, 5, {}, [], None)
                 if type(bad) is not type(value)]
    for bad in wrong:
        if not (bad is None and nullable):
            yield keys, bad
    members = (value.items() if isinstance(value, dict)
               else enumerate(value) if isinstance(value, list) else ())
    for key, entry in members:
        yield from header_wrong_types(entry, keys + (key,), False)


# header keys that no reader reads: the magic line names the format
UNREAD_HEADER_KEYS = {"format", "order"}


@pytest.mark.parametrize("name", ["fmap-polarized", "fmap-phasor", "rcub",
                                  "rstr"])
def test_every_wrong_header_type_is_a_format_error_naming_it(tmp_path, name):
    # the cases come from the writer's own header, so that a new header
    # field is swept too; a top-level field the writer leaves null when
    # it is not given is nullable
    path = tmp_path / "file"
    write_container(path, name, full=False)
    nulls = {k for k, v in split_header(path)[1].items() if v is None}
    read = write_container(path, name, full=True)
    magic, header, rest = split_header(path)
    cases = [case for key, value in header.items()
             if key not in UNREAD_HEADER_KEYS
             for case in header_wrong_types(value, (key,), key in nulls)]
    failures = []
    for keys, bad in cases:
        doc = json.loads(json.dumps(header))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = bad
        path.write_bytes(magic + json.dumps(
            doc, sort_keys=True, separators=(",", ":")).encode() + rest)
        try:
            read(path)
            failures.append((keys, bad, "loaded"))
        except FormatError as err:
            if not re.search(f"at byte 6: .*{re.escape(keys[0])}", str(err)):
                failures.append((keys, bad, str(err)))
    assert len(cases) > 20
    assert failures == []


# -------------------------------------------------------------------- PGM

def test_pgm_golden_bytes(tmp_path):
    path = tmp_path / "map.pgm"
    scale = write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
    assert scale == 1.0
    expect = (b"P5\n2 2\n65535\n"
              + bytes([0x00, 0x00, 0x80, 0x00, 0xFF, 0xFF, 0x40, 0x00]))
    assert path.read_bytes() == expect


def test_pgm_roundtrip_and_scale(tmp_path):
    rng = np.random.default_rng(13)
    a = rng.uniform(0, 3.3e-4, (6, 9))
    path = tmp_path / "map.pgm"
    scale = write_pgm(path, a)
    assert scale == a.max()
    pix = read_pgm(path)
    assert pix.shape == (6, 9)
    assert pix.dtype == np.dtype(">u2")
    assert np.array_equal(pix, np.round(a / scale * 65535).astype(">u2"))
    assert pix.max() == 65535


def test_pgm_zero_map(tmp_path):
    path = tmp_path / "zero.pgm"
    scale = write_pgm(path, np.zeros((3, 3)))
    assert scale == 0.0
    assert np.array_equal(read_pgm(path), np.zeros((3, 3), dtype=">u2"))


def test_pgm_input_validation(tmp_path):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match="2D"):
        write_pgm(path, np.zeros(5))
    with pytest.raises(ValueError, match="nonnegative"):
        write_pgm(path, np.array([[-1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        write_pgm(path, np.array([[np.nan, 0.0]]))


def test_pgm_read_validation(tmp_path):
    path = tmp_path / "bad.pgm"
    cases = [
        (b"P6\n2 2\n65535\n" + b"\x00" * 8, "magic"),
        (b"P5\n2 2\n255\n" + b"\x00" * 4, "maxval"),
        (b"P5\n3 2 65535", "truncated header at byte 12"),
        (b"P5\n3\n65535\n" + b"\x00" * 6, "byte 3 has 2 fields"),
        (b"P5\n3 x2\n65535\n" + b"\x00" * 12, "b'x2' at byte 5"),
    ]
    for raw, match in cases:
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=match):
            read_pgm(path)


# ------------------------------------------------------------------- misc

def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"hello")
    assert path.read_bytes() == b"hello"
    atomic_write_bytes(path, b"world")
    assert path.read_bytes() == b"world"
    assert os.listdir(tmp_path) == ["out.bin"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "atomic.bin", b"hello")
        with open(tmp_path / "plain.bin", "wb"):
            pass
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("atomic.bin", "plain.bin")]
    assert modes == [0o666 & ~umask] * 2


def test_atomic_write_failing_mid_file_leaves_nothing(tmp_path):
    # the second part is no buffer, so its write raises after the first
    # part reached the temp file
    path = tmp_path / "out.bin"
    with pytest.raises(TypeError):
        atomic_write_bytes(path, b"head", object())
    assert os.listdir(tmp_path) == []
    # an existing target keeps its bytes
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, b"head", object())
    assert os.listdir(tmp_path) == ["out.bin"]
    assert path.read_bytes() == b"old"


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    data = os.urandom(5000)
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()
