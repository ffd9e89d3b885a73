"""Command-line pipeline driver.

Subcommands map one-to-one onto pipeline stages and compose through
files in the output directory:

    simulate  device model -> phasor + sigma+/- field maps
    acquire   field map -> contrast cube (scan) or frame stream
    fit       cube -> fitted field map + JSON diagnostics
    stitch    overlapping map tiles -> composite map
    contours  single cube frame -> labeled iso-amplitude ridges
    report    maps -> metrics JSON, text table, line-cut export

Configs are JSON with unit-suffixed keys (width_um, current_ma,
f_mw_ghz, ...) converted to SI on load; time-valued keys state their
unit in the name (laser_ns, duration ms in schedules) and pass through
unchanged.

main() hands every command to one stage runner, run_stage. It loads the
scenario of a command with --config and either verifies the command's
manifest (--verify) or runs the command body cmd_x(args, cfg, out),
which only computes. The body hands each file to the output sink
out(name, writer, *payload, **extra), which creates the output dir,
calls writer(<output dir>/name, *payload), hashes the file and records
it with the extras (a PGM also with its pgm_scale_t). The output dir
is created only where a file is written, so a command that fails
before its first output, or a --verify, creates none. After the body
returns, the runner writes <base>.<command>.manifest.json, base being
the scenario name, the cube's stem or --name: the outputs in the order
written, their sha256 checksums, timings_s and the library versions.

Exit codes: 0 success, 2 config or input error, 3 numerical failure,
4 verification failure.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from nvscope import __version__, acquisition, analysis, currents, formats
from nvscope.acquisition import CameraTiming, DecayParams, PulseParams
from nvscope.fieldcore import (ConfigError, SensingLayer, TRANSITIONS,
                               bias_field_for_frequency, boolean, converter,
                               field, flip_axis, integer, lst, number,
                               nv_frame_from_tilt, obj, param, string, vec3)
from nvscope.nearfield import (GridSpec, PolarizedFieldMap,
                               SegmentProximityError, evaluate_phasor_map,
                               project_polarization)

BUNDLED_SCENARIOS = ("cpw-fig2", "omega-fig3", "meander-fig3",
                     "interdigital-fig3", "trap-fig4-xz", "pulse-train-fig5")

# --envelope values -> FitConfig modes
ENVELOPES = {"double": analysis.DOUBLE_EXP, "single": analysis.SINGLE_EXP}

# converged share of a fit's pixels below which fit exits 3, after
# writing its outputs and manifest
MIN_CONVERGED_FRACTION = 0.25

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


class VerificationError(RuntimeError):
    pass


# unit-suffixed keys convert to SI and lose the suffix; longest first so
# current_ma does not match _a and f_mw_ghz does not match _hz
_UNIT_SUFFIXES = (("_ghz", 1e9), ("_mhz", 1e6), ("_khz", 1e3), ("_hz", 1.0),
                  ("_um", 1e-6), ("_mm", 1e-3), ("_ma", 1e-3), ("_ut", 1e-6),
                  ("_mt", 1e-3), ("_m", 1.0), ("_a", 1.0), ("_t", 1.0))


def _scale_numbers(value, factor, path):
    if isinstance(value, bool):
        raise ConfigError(f"{path}: unit-suffixed key holds a boolean")
    if isinstance(value, (int, float)):
        return value * factor
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
class ScenarioConfig:
    name: str
    device_doc: dict
    grid: GridSpec
    layer: SensingLayer
    nv_frame: object
    f_mw: float
    transition: str
    pulse: PulseParams
    decay: DecayParams
    dt_ns: np.ndarray
    stream: dict
    timing: CameraTiming  # the stream's camera timing; None without one
    trap: dict
    report: dict
    seed: int
    source_bytes: bytes


def resolve_config_source(value):
    """Return raw config bytes for a path or a bundled scenario name."""
    if os.path.isfile(value):
        with open(value, "rb") as fh:
            return fh.read()
    if value in BUNDLED_SCENARIOS:
        return (resources.files("nvscope.scenarios")
                / f"{value}.json").read_bytes()
    raise ConfigError(
        f"config {value!r} is neither a file nor a bundled scenario "
        f"(bundled: {', '.join(BUNDLED_SCENARIOS)})")


def _is_bare_name(name):
    """A file name with no directory part, so it stays in the output dir."""
    return (isinstance(name, str) and name not in ("", ".", "..")
            and os.path.basename(name) == name)


def _given(doc, path, **fields):
    """{name: value} for each name=(key, convert) whose key doc sets, read
    through convert; the callee keeps its own defaults for the others."""
    return {name: param(doc, path, key, convert)
            for name, (key, convert) in fields.items() if key in doc}


def _numbers(doc, path, integers=()):
    """doc, each value checked a JSON number (integer for the keys in
    integers) and passed on as written: 700 stays an int in headers."""
    for key in doc:
        param(doc, path, key, integer if key in integers else number)
    return doc


def _build(make, path, **kwargs):
    """make(**kwargs), its errors naming the section path."""
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from None


def _schedule(value):
    for item in lst(value):
        if not (isinstance(item, list) and len(item) == 2
                and type(item[0]) in (int, float) and item[0] > 0
                and item[1] in (acquisition.ON, acquisition.OFF)):
            raise ValueError("entries must be [duration_ms > 0, on|off], "
                             f"got {item!r}")
    return value


_file_stem = converter("a bare file stem", _is_bare_name)
_axes = converter("two vectors", lambda v: isinstance(v, list) and len(v) == 2,
                  lambda v: tuple(map(vec3, v)))
_region = converter("[[i0, i1], [j0, j1]] in pixels", lambda v: (
    isinstance(v, list) and len(v) == 2
    and all(isinstance(row, list) and len(row) == 2
            and all(type(i) is int for i in row) for row in v)),
    lambda v: tuple(map(tuple, v)))
_arm = converter("an integer >= 1", lambda v: type(v) is int and v >= 1)


def _check_report(rdoc, dt_ns):
    """The report section's settings with their defaults; checked at
    load by every command, read through here again by report."""
    read = functools.partial(param, rdoc, "report")
    out = {"impedance_ohm": read("impedance_ohm", default=50.0),
           **_given(rdoc, "report", p_in_dbm=("p_in_dbm", number),
                    current=("current", number))}
    if "sensitivity" not in rdoc:
        return out
    path = "report.sensitivity"
    sdoc = read("sensitivity", obj)
    n_rep = param(sdoc, path, "n_repeats", integer, default=10)
    if n_rep < 10:
        raise ConfigError(f"{path}.n_repeats must be an integer >= 10, "
                          f"got {n_rep!r}")
    if dt_ns is None:
        raise ConfigError(f"{path} needs a scan section")
    out["sensitivity"] = n_rep
    return out


def _check_trap(tdoc):
    """characterize_trap keyword arguments for the keys the trap section
    sets; the others keep characterize_trap's defaults."""
    return _given(tdoc, "trap", arm=("arm_px", _arm),
                  search_region=("search_region_px", _region))


def load_scenario(value):
    """A path's or bundled name's scenario, each field read once as a
    strict JSON type. The device is built later, by simulate."""
    raw = resolve_config_source(value)
    try:
        doc = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"config {value!r}: invalid JSON: {err}")
    si = field(convert_units(doc), "config", obj)
    read = functools.partial(param, si, "")

    name = read("name", _file_stem)
    g = functools.partial(param, read("grid", obj), "grid")
    grid = _build(GridSpec, "grid", origin=g("origin", vec3),
                  axes=g("axes", _axes), nx=g("nx", integer),
                  ny=g("ny", integer), pitch=g("pitch"))

    ldoc = read("layer", obj)
    layer = _build(SensingLayer, "layer", h=param(ldoc, "layer", "height"),
                   **_given(ldoc, "layer", d=("thickness", number)))

    ndoc = read("nv", obj, {})
    frame = _build(nv_frame_from_tilt, "nv",
                   tilt_deg=param(ndoc, "nv", "tilt_deg", default=0.0),
                   **_given(ndoc, "nv", tilt_plane=("tilt_plane", string)))
    if param(ndoc, "nv", "flip", boolean, default=False):
        frame = flip_axis(frame)

    bdoc = read("bias", obj)
    transition = param(bdoc, "bias", "transition", converter(
        f"one of {TRANSITIONS}", lambda v: v in TRANSITIONS))
    f_mw = param(bdoc, "bias", "f_mw")
    _build(bias_field_for_frequency, "bias", f_mw=f_mw,
           transition=transition)

    pulse = _build(PulseParams, "pulse", **_numbers(
        read("pulse", obj, {}), "pulse", integers=("n_shots",)))
    # no decay section means an undamped envelope
    decay = _build(DecayParams, "decay", **_numbers(read("decay", obj, dict(
        tau_fast_ns=np.inf, tau_slow_ns=np.inf, weight_fast=0.5)), "decay"))

    dt_ns = None
    if "scan" in si:
        s = functools.partial(param, read("scan", obj), "scan")
        start, step = s("dt_start_ns"), s("dt_step_ns")
        n = s("n_steps", integer)
        if step <= 0 or n < 1 or start < 0:
            raise ConfigError("scan: dt_start_ns >= 0, dt_step_ns > 0 and "
                              "n_steps >= 1 required")
        dt_ns = start + step * np.arange(n)

    stream, timing = read("stream", obj, None), None
    if stream is not None:
        st = functools.partial(param, stream, "stream")
        st("dt_mw_ns"), st("schedule", _schedule)
        rows = st("rows", integer)
        if rows < 1:
            raise ConfigError(f"stream.rows must be an integer >= 1, got "
                              f"{rows!r}")
        timing = _build(CameraTiming, "stream", **_given(
            stream, "stream", row_time_us=("row_time_us", number),
            overhead_us=("overhead_us", number)))

    report, trap = read("report", obj, None), read("trap", obj, None)
    if report is not None:
        _check_report(report, dt_ns)
    if trap is not None:
        _check_trap(trap)
    return ScenarioConfig(
        name=name, device_doc=read("device", obj), grid=grid, layer=layer,
        nv_frame=frame, f_mw=f_mw, transition=transition, pulse=pulse,
        decay=decay, dt_ns=dt_ns, stream=stream, timing=timing, trap=trap,
        report=report, seed=read("seed", integer, None), source_bytes=raw)


# ------------------------------------------------------------ stage runner

def _write_json(path, doc):
    formats.atomic_write_bytes(
        path, json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n")


def _manifest_path(outdir, base, command):
    return os.path.join(outdir, f"{base}.{command}.manifest.json")


def _verify_manifest(outdir, base, command):
    path = _manifest_path(outdir, base, command)
    if not os.path.isfile(path):
        raise ConfigError(f"no manifest at {path}; run the command first")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise formats.FormatError(f"{path}: invalid JSON: {err}")
    outputs = doc.get("outputs") if isinstance(doc, dict) else None
    if not isinstance(outputs, list):
        raise formats.FormatError(f"{path}: no list of outputs")
    problems = []
    for entry in outputs:
        name = entry.get("path") if isinstance(entry, dict) else None
        # the runner writes outputs into the output dir under bare names
        if not (_is_bare_name(name)
                and isinstance(entry.get("sha256"), str)):
            raise formats.FormatError(
                f"{path}: output {entry!r} needs a bare file name and a "
                "sha256")
        target = os.path.join(outdir, name)
        if not os.path.isfile(target):
            problems.append(f"missing: {name}")
        elif formats.sha256_file(target) != entry["sha256"]:
            problems.append(f"checksum mismatch: {name}")
    if problems:
        raise VerificationError("; ".join(problems))
    print(f"verified {len(outputs)} outputs against {path}")
    return EXIT_OK


def run_stage(args):
    """Verify, or run args.func and write its manifest; returns the
    exit code. timings_s holds the body's wall time and the part of it
    spent in the sink. A body that raises leaves no manifest.
    """
    cfg = load_scenario(args.config) if "config" in args else None
    base = args.base(args, cfg)
    if args.verify:
        return _verify_manifest(args.output, base, args.command)
    outputs = []
    spent = 0.0

    def out(name, writer, *payload, **extra):
        nonlocal spent
        t0 = time.perf_counter()
        os.makedirs(args.output, exist_ok=True)
        path = os.path.join(args.output, name)
        value = writer(path, *payload)
        entry = {"path": name, "sha256": formats.sha256_file(path),
                 "bytes": os.path.getsize(path), **extra}
        if writer is formats.write_pgm:
            entry["pgm_scale_t"] = value
        outputs.append(entry)
        spent += time.perf_counter() - t0

    t0 = time.perf_counter()
    code = args.func(args, cfg, out)
    total = time.perf_counter() - t0
    os.makedirs(args.output, exist_ok=True)
    _write_json(_manifest_path(args.output, base, args.command), {
        "version": __version__, "command": args.command, "scenario": base,
        "config_sha256": hashlib.sha256(
            cfg.source_bytes if cfg else b"").hexdigest(),
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "outputs": outputs,
        "timings_s": {"total": total, "outputs": spent},
        # library versions, so that rounding-level drift between builds
        # can be traced from the artifacts; --verify checks only the
        # outputs
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": _installed_version("scipy")})
    return code


@functools.cache
def _installed_version(package):
    """Installed version of a distribution, None if absent; looked up once."""
    from importlib import metadata
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cube_stem(args, cfg):
    return os.path.splitext(os.path.basename(args.cube))[0]


def _component_filename(component):
    return {"sigma+": "sigma_plus", "sigma-": "sigma_minus"}[component]


# ---------------------------------------------------------------- commands

def cmd_simulate(args, cfg, out):
    model = currents.model_from_spec(cfg.device_doc)
    fmap = evaluate_phasor_map(model, cfg.grid, cfg.layer)
    out(f"{cfg.name}.phasor.fmap", formats.write_field_map, fmap)
    for component in TRANSITIONS:
        pmap = project_polarization(fmap, cfg.nv_frame, component)
        stem = f"{cfg.name}.{_component_filename(component)}"
        out(stem + ".fmap", formats.write_field_map, pmap)
        out(stem + ".pgm", formats.write_pgm, pmap.values)
    print(f"simulate {cfg.name}: {1 + 2 * len(TRANSITIONS)} outputs in "
          f"{args.output}")
    return EXIT_OK


def cmd_acquire(args, cfg, out):
    if args.field_map:
        map_path = args.field_map
    else:
        stem = _component_filename(cfg.transition)
        map_path = os.path.join(args.output, f"{cfg.name}.{stem}.fmap")
    if not os.path.isfile(map_path):
        raise ConfigError(f"field map {map_path} not found; run simulate "
                          "first or pass --field-map")
    pmap = formats.read_field_map(map_path)
    if not isinstance(pmap, PolarizedFieldMap):
        raise ConfigError(f"{map_path} holds a phasor map; acquisition "
                          "needs a polarized amplitude map")
    seed = args.seed if args.seed is not None else cfg.seed
    if args.noiseless:
        seed = None
    if cfg.stream is not None:
        frames = acquisition.simulate_stream(
            pmap, cfg.stream["dt_mw_ns"], cfg.pulse,
            [tuple(item) for item in cfg.stream["schedule"]],
            timing=cfg.timing, rows=cfg.stream["rows"], seed=seed,
            decay=cfg.decay)
        name = f"{cfg.name}.stream.rstr"
        out(name, lambda path: formats.write_stream(
            path, pmap.grid, cfg.stream["dt_mw_ns"], frames,
            timing=cfg.timing, rows=cfg.stream["rows"],
            schedule=cfg.stream["schedule"], pulse=cfg.pulse, seed=seed),
            n_frames=len(frames))
    else:
        if cfg.dt_ns is None:
            raise ConfigError("config has neither scan nor stream section")
        cube = acquisition.simulate_cube(pmap, cfg.dt_ns, cfg.pulse,
                                         decay=cfg.decay, seed=seed)
        name = f"{cfg.name}.cube.rcub"
        out(name, formats.write_cube, cube, n_frames=cube.n_frames,
            noiseless=seed is None)
    print(f"acquire {cfg.name}: wrote {name}")
    return EXIT_OK


def cmd_fit(args, cfg, out):
    base = _cube_stem(args, cfg)
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    cube = formats.read_cube(args.cube)
    fmap, results = analysis.fit_cube(
        cube, analysis.FitConfig(envelope_mode=ENVELOPES[args.envelope]),
        n_workers=args.threads)
    counts = analysis.fit_outcome_counts(results)
    n, n_conv = counts["n_pixels"], counts["n_converged"]
    n_below = counts["n_below_threshold"]
    converged_b = fmap.values[results.converged]
    diagnostics = {
        "cube": os.path.basename(args.cube), **counts,
        "converged_fraction": n_conv / n,
        "below_threshold_fraction": n_below / n,
        "median_field_ut": (float(np.median(converged_b)) * 1e6
                            if converged_b.size else None),
        "median_residual_rms": float(np.median(results.residual_rms)),
        "lm_evaluations_per_px": (float(np.mean(
            results.evaluations[~results.below_threshold]))
            if n_below < n else None),
        "fit_options": {"envelope": args.envelope,
                        "min_contrast_snr": analysis.MIN_SNR,
                        "max_iterations": analysis.MAX_EVALS,
                        "component": cube.component},
    }
    out(base + ".fit.fmap", formats.write_field_map, fmap)
    out(base + ".fit.pgm", formats.write_pgm, fmap.values)
    out(base + ".fit.json", _write_json, diagnostics)
    print(f"fit {base}: converged {n_conv}/{n} "
          f"({100 * n_conv / n:.1f}%), below threshold {n_below}")
    if diagnostics["converged_fraction"] < MIN_CONVERGED_FRACTION:
        print(f"converged fraction {diagnostics['converged_fraction']:.3f} "
              f"below floor {MIN_CONVERGED_FRACTION}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _parse_tile_arg(value):
    try:
        path, offsets = value.rsplit(":", 1)
        di, dj = (int(v) for v in offsets.split(","))
        return path, (di, dj)
    except ValueError:
        raise ConfigError(f"tile {value!r} must look like PATH:DI,DJ")


def cmd_stitch(args, cfg, out):
    tiles = []
    for value in args.tile:
        path, offset = _parse_tile_arg(value)
        pmap = formats.read_field_map(path)
        if not isinstance(pmap, PolarizedFieldMap):
            raise ConfigError(f"{path} is not a polarized map")
        tiles.append((pmap, offset))
    if not tiles:
        raise ConfigError("stitch needs at least one --tile")
    try:
        composite = analysis.stitch(tiles, refine=args.refine)
    except ValueError as err:
        raise ConfigError(str(err))
    out(args.name + ".fmap", formats.write_field_map, composite)
    out(args.name + ".pgm", formats.write_pgm, composite.values)
    print(f"stitch: composite {composite.grid.nx}x{composite.grid.ny} "
          f"written to {args.name}.fmap")
    return EXIT_OK


def cmd_contours(args, cfg, out):
    base = _cube_stem(args, cfg)
    cube = formats.read_cube(args.cube)
    k = args.frame if args.frame >= 0 else cube.n_frames + args.frame
    if not 0 <= k < cube.n_frames:
        raise ConfigError(f"frame {args.frame} outside 0..{cube.n_frames - 1}")
    contour_set = analysis.extract_contours(cube.frames[k],
                                            float(cube.dt_ns[k]),
                                            min_pixels=args.min_pixels)
    doc = {"dt_mw_ns": contour_set.dt_mw_ns,
           "parity": contour_set.parity,
           "frame": k,
           "ridges": [{"order_m": r.order_m,
                       "b_label_t": r.b_label,
                       "b_label_ut": r.b_label * 1e6,
                       "n_pixels": len(r.pixels),
                       "pixels": r.pixels.tolist()}
                      for r in contour_set.ridges]}
    out(base + ".contours.json", _write_json, doc)
    print(f"contours {base}: {len(doc['ridges'])} ridges at frame {k}")
    return EXIT_OK


def _line_cut_text(pmap):
    j_mid = pmap.grid.ny // 2
    lines = []
    for i in range(pmap.grid.nx):
        pos_um = (i + 0.5) * pmap.grid.pitch * 1e6
        lines.append(f"{pos_um:.3f} {pmap.values[i, j_mid] * 1e6:.6f}")
    return "\n".join(lines) + "\n", j_mid


def cmd_report(args, cfg, out):
    stem = _component_filename(cfg.transition)
    map_path = os.path.join(args.output, f"{cfg.name}.{stem}.fmap")
    if not os.path.isfile(map_path):
        raise ConfigError(f"field map {map_path} not found; run simulate "
                          "first")
    pmap = formats.read_field_map(map_path)
    report = {"scenario": cfg.name, "component": cfg.transition,
              "version": __version__}

    positive = pmap.values[pmap.values > 0]
    report["field_stats"] = {
        "min_ut": float(positive.min()) * 1e6 if positive.size else 0.0,
        "median_ut": float(np.median(pmap.values)) * 1e6,
        "max_ut": float(pmap.values.max()) * 1e6,
    }
    if positive.size:
        report["dynamic_range_db"] = analysis.dynamic_range_db(
            float(positive.min()), float(pmap.values.max()))

    cut_text, j_mid = _line_cut_text(pmap)
    cut_name = f"{cfg.name}.linecut.txt"
    out(cut_name, formats.atomic_write_bytes, cut_text.encode(),
        row_index=j_mid)
    report["line_cut"] = {"path": cut_name, "row_index": j_mid,
                          "columns": ["position_um", "field_ut"]}

    settings = _check_report(cfg.report or {}, cfg.dt_ns)
    if "p_in_dbm" in settings:
        p_in, z = settings["p_in_dbm"], settings["impedance_ohm"]
        current = settings.get(
            "current", currents.drive_current_a(cfg.device_doc))
        if current is None:
            raise ConfigError("report.p_in_dbm given but no drive current "
                              "found in device or report.current_a")
        p_sim, loss = analysis.insertion_loss_db(p_in, current, z)
        report["insertion_loss"] = {
            "p_in_dbm": p_in, "current_a": current, "impedance_ohm": z,
            "p_sim_dbm": p_sim, "loss_db": loss}

    if "sensitivity" in settings:
        n_rep = settings["sensitivity"]
        base_seed = (cfg.seed if cfg.seed is not None else 0) + 1000
        cubes = [acquisition.simulate_cube(pmap, cfg.dt_ns, cfg.pulse,
                                           decay=cfg.decay,
                                           seed=base_seed + k)
                 for k in range(n_rep)]
        sens = analysis.amplitude_sensitivity(
            cubes, analysis.FitConfig(envelope_mode=analysis.SINGLE_EXP))
        report["sensitivity"] = {"n_repeats": n_rep,
                                 "t_per_sqrt_hz": sens,
                                 "ut_per_sqrt_hz": sens * 1e6}

    if cfg.trap is not None:
        trap = analysis.characterize_trap(pmap, **_check_trap(cfg.trap))
        report["trap"] = {
            "position_px": list(trap.position_px),
            "position_um": [v * 1e6 for v in trap.position_m],
            "field_ut": trap.value * 1e6,
            # 1 T/m equals 1 uT/um, so the numbers carry over directly
            "gradients_ut_per_um": dict(trap.gradients),
        }

    out(f"{cfg.name}.report.json", _write_json, report)

    text_lines = [f"scenario        {cfg.name}",
                  f"component       {cfg.transition}",
                  f"field min       {report['field_stats']['min_ut']:.3f} uT",
                  f"field median    {report['field_stats']['median_ut']:.3f}"
                  " uT",
                  f"field max       {report['field_stats']['max_ut']:.3f} uT"]
    if "dynamic_range_db" in report:
        text_lines.append(
            f"dynamic range   {report['dynamic_range_db']:.2f} dB")
    if "insertion_loss" in report:
        il = report["insertion_loss"]
        text_lines.append(f"p_sim           {il['p_sim_dbm']:.2f} dBm")
        text_lines.append(f"insertion loss  {il['loss_db']:.2f} dB")
    if "sensitivity" in report:
        text_lines.append(f"sensitivity     "
                          f"{report['sensitivity']['ut_per_sqrt_hz']:.4f}"
                          " uT/sqrt(Hz)")
    if "trap" in report:
        tr = report["trap"]
        text_lines.append(f"trap minimum    {tr['field_ut']:.3f} uT at px "
                          f"{tuple(tr['position_px'])}")
    out(f"{cfg.name}.report.txt", formats.atomic_write_bytes,
        ("\n".join(text_lines) + "\n").encode())
    print("\n".join(text_lines))
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="nvscope",
        description="Microwave near-field imaging pipeline")
    parser.add_argument("--version", action="version",
                        version=f"nvscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True,
                           help="scenario JSON path or bundled name")
            p.set_defaults(base=lambda args, cfg: cfg.name)
        p.add_argument("--output", "-o", default=".",
                       help="output directory (default: current)")
        p.add_argument("--verify", action="store_true",
                       help="verify the command's manifest instead of "
                            "running")

    p = sub.add_parser("simulate", help="device model to field maps")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("acquire", help="field map to contrast cube/stream")
    common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario noise seed")
    p.add_argument("--noiseless", action="store_true",
                   help="disable shot noise")
    p.add_argument("--field-map", default=None,
                   help="explicit polarized field map path")
    p.set_defaults(func=cmd_acquire)

    p = sub.add_parser("fit", help="fit a cube to a field map")
    common(p, config=False)
    p.add_argument("--cube", required=True, help="RCUB1 cube path")
    p.add_argument("--envelope", default="double", choices=list(ENVELOPES))
    p.add_argument("--threads", type=int, default=1,
                   help="fit worker processes (default 1)")
    p.set_defaults(func=cmd_fit, base=_cube_stem)

    p = sub.add_parser("stitch", help="combine overlapping map tiles")
    common(p, config=False)
    p.add_argument("--tile", action="append", default=[],
                   metavar="PATH:DI,DJ",
                   help="tile map with its pixel offset; repeatable")
    p.add_argument("--refine", action="store_true",
                   help="refine offsets by cross-correlation")
    p.add_argument("--name", default="stitched",
                   help="output base name")
    p.set_defaults(func=cmd_stitch, base=lambda args, cfg: args.name)

    p = sub.add_parser("contours", help="iso-amplitude ridges of a frame")
    common(p, config=False)
    p.add_argument("--cube", required=True)
    p.add_argument("--frame", type=int, default=-1,
                   help="frame index (negative counts from the end)")
    p.add_argument("--min-pixels", type=int, default=8)
    p.set_defaults(func=cmd_contours, base=_cube_stem)

    p = sub.add_parser("report", help="metrics and line-cut export")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run_stage(args)
    except VerificationError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY
    except (SegmentProximityError, analysis.TrapNotFound) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, formats.FormatError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
