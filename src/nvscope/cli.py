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
manifest (--verify) or runs the command body cmd_x(args, cfg, out,
span), which only computes. The body hands each file to the output sink
out(name, writer, *payload, **extra), which creates the output dir,
calls writer(<output dir>/name, *payload), hashes the file and records
it with the extras (a PGM also with its pgm_scale_t). The output dir
is created only where a file is written, so a command that fails
before its first output, or a --verify, creates none. `with
span(layer):` adds the wall time of its block to timings_s[layer]; no
span encloses an out() call, whose time goes to timings_s.outputs.
After the body returns, the runner writes
<base>.<command>.manifest.json, base being the scenario name, the
cube's stem or --name: the outputs in the order written, their sha256
checksums, timings_s and the library versions.

Exit codes: 0 success, 2 config or input error, 3 numerical failure,
4 verification failure.
"""

import argparse
import contextlib
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

from nvscope import (__version__, acquisition, analysis, currents, formats,
                     kernels)
from nvscope.acquisition import CameraTiming, DecayParams, PulseParams
from nvscope.fieldcore import (ConfigError, SensingLayer, TRANSITIONS,
                               at_least, bias_field_for_frequency, boolean,
                               build, convert_units, converter, field,
                               flip_axis, given, integer, non_negative,
                               number, number_fields, nv_frame_from_tilt,
                               obj, one_of, param, positive, string)
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
    trap: dict  # the trap section as written; None without one
    # the report settings as _check_report returns them and, for a trap
    # section, its characterize_trap kwargs under "trap"
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


_file_stem = converter("a bare file stem", _is_bare_name)
_region = converter("[[i0, i1], [j0, j1]] in pixels", lambda v: (
    isinstance(v, list) and len(v) == 2
    and all(isinstance(row, list) and len(row) == 2
            and all(type(i) is int for i in row) for row in v)),
    lambda v: tuple(map(tuple, v)))


def _check_report(rdoc, dt_ns, device_doc):
    """The report section's settings with their defaults, checked once
    at load into ScenarioConfig.report. With p_in_dbm, current is
    report.current or else the device's drive current, and positive."""
    read = functools.partial(param, rdoc, "report")
    out = {"impedance_ohm": read("impedance_ohm", positive, default=50.0),
           **given(rdoc, "report", p_in_dbm=("p_in_dbm", number),
                   current=("current", number))}
    if "p_in_dbm" in out:
        if "current" not in out:
            out["current"] = currents.drive_current_a(device_doc)
        if out["current"] is None or out["current"] <= 0:
            raise ConfigError("report.p_in_dbm needs a positive drive "
                              "current from report.current_a or else the "
                              f"device, got {out['current']!r}")
    if "sensitivity" not in rdoc:
        return out
    out["sensitivity"] = param(read("sensitivity", obj), "report.sensitivity",
                               "n_repeats", at_least(10), default=10)
    if dt_ns is None:
        raise ConfigError("report.sensitivity needs a scan section")
    return out


def _check_trap(tdoc, grid):
    """characterize_trap keyword arguments for the keys the trap section
    sets; the others keep characterize_trap's defaults. A search region
    lies within the grid."""
    kwargs = given(tdoc, "trap", arm=("arm_px", at_least(1)),
                   search_region=("search_region_px", _region))
    (i0, i1), (j0, j1) = kwargs.get("search_region",
                                    ((0, grid.nx), (0, grid.ny)))
    if not (0 <= i0 < i1 <= grid.nx and 0 <= j0 < j1 <= grid.ny):
        raise ConfigError(f"trap.search_region_px must lie within the "
                          f"{grid.nx}x{grid.ny} grid, got "
                          f"{tdoc['search_region_px']!r}")
    return kwargs


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
    grid = formats.grid_from_doc(read("grid", obj), "grid")

    ldoc = read("layer", obj)
    layer = build(SensingLayer, "layer", h=param(ldoc, "layer", "height"),
                  **given(ldoc, "layer", d=("thickness", number)))

    ndoc = read("nv", obj, {})
    frame = build(nv_frame_from_tilt, "nv",
                  tilt_deg=param(ndoc, "nv", "tilt_deg", default=0.0),
                  **given(ndoc, "nv", tilt_plane=("tilt_plane", string)))
    if param(ndoc, "nv", "flip", boolean, default=False):
        frame = flip_axis(frame)

    bdoc = read("bias", obj)
    transition = param(bdoc, "bias", "transition", one_of(TRANSITIONS))
    f_mw = param(bdoc, "bias", "f_mw")
    build(bias_field_for_frequency, "bias", f_mw=f_mw, transition=transition)

    pulse = formats.pulse_from_doc(read("pulse", obj, {}), "pulse")
    ddoc = read("decay", obj, None)
    # no decay section means an undamped envelope
    decay = (DecayParams(np.inf, np.inf, 0.5) if ddoc is None else
             build(DecayParams, "decay", **number_fields(ddoc, "decay")))

    dt_ns = None
    if "scan" in si:
        s = functools.partial(param, read("scan", obj), "scan")
        start, step = s("dt_start_ns", non_negative), s("dt_step_ns", positive)
        dt_ns = start + step * np.arange(s("n_steps", at_least(1)))

    stream, timing = read("stream", obj, None), None
    if stream is not None:
        st = functools.partial(param, stream, "stream")
        st("dt_mw_ns", non_negative)
        st("schedule", acquisition.check_schedule)
        st("rows", at_least(1))
        timing = formats.timing_from_doc(stream, "stream")

    device = read("device", obj)
    report = _check_report(read("report", obj, {}), dt_ns, device)
    trap = read("trap", obj, None)
    if trap is not None:
        report["trap"] = _check_trap(trap, grid)
    return ScenarioConfig(
        name=name, device_doc=device, grid=grid, layer=layer,
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
    exit code. timings_s holds the body's wall time (total), the part
    of it spent in the sink (outputs) and each layer the body timed. A
    body that raises leaves no manifest.
    """
    cfg = load_scenario(args.config) if "config" in args else None
    base = args.base(args, cfg)
    if args.verify:
        return _verify_manifest(args.output, base, args.command)
    outputs = []
    timings = {"outputs": 0.0}

    @contextlib.contextmanager
    def span(name):
        t0 = time.perf_counter()
        yield
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0

    def out(name, writer, *payload, **extra):
        with span("outputs"):
            os.makedirs(args.output, exist_ok=True)
            path = os.path.join(args.output, name)
            value = writer(path, *payload)
            entry = {"path": name, "sha256": formats.sha256_file(path),
                     "bytes": os.path.getsize(path), **extra}
            if writer is formats.write_pgm:
                entry["pgm_scale_t"] = value
            outputs.append(entry)

    with span("total"):
        code = args.func(args, cfg, out, span)
    os.makedirs(args.output, exist_ok=True)
    _write_json(_manifest_path(args.output, base, args.command), {
        "version": __version__, "command": args.command, "scenario": base,
        "config_sha256": hashlib.sha256(
            cfg.source_bytes if cfg else b"").hexdigest(),
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "outputs": outputs,
        "timings_s": timings,
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


def _read_polarized_map(args, cfg, path=None):
    """The polarized FMAP1 map at path, by default the scenario's map of
    its transition in the output dir. A missing file or a phasor map is
    a ConfigError naming the path."""
    hint = ""
    if path is None:
        stem = _component_filename(cfg.transition)
        path = os.path.join(args.output, f"{cfg.name}.{stem}.fmap")
        hint = "; run simulate first"
    if not os.path.isfile(path):
        raise ConfigError(f"field map {path} not found{hint}")
    pmap = formats.read_field_map(path)
    if not isinstance(pmap, PolarizedFieldMap):
        raise ConfigError(f"{path} holds a phasor map, not a polarized "
                          "amplitude map")
    return pmap


# ---------------------------------------------------------------- commands

def cmd_simulate(args, cfg, out, span):
    with span("model"):
        model = currents.model_from_spec(cfg.device_doc)
    with span("field"):
        fmap = evaluate_phasor_map(model, cfg.grid, cfg.layer)
    # one kernel pair per segment, pixel and layer height
    pixels = cfg.grid.nx * cfg.grid.ny
    pairs = model.starts.shape[0] * pixels * len(cfg.layer.heights())
    out(f"{cfg.name}.phasor.fmap", formats.write_field_map, fmap, pairs=pairs,
        workers=kernels.field_workers(pairs, pixels))
    for component in TRANSITIONS:
        with span("projection"):
            pmap = project_polarization(fmap, cfg.nv_frame, component)
        stem = f"{cfg.name}.{_component_filename(component)}"
        out(stem + ".fmap", formats.write_field_map, pmap)
        out(stem + ".pgm", formats.write_pgm, pmap.values)
    print(f"simulate {cfg.name}: {1 + 2 * len(TRANSITIONS)} outputs in "
          f"{args.output}")
    return EXIT_OK


def cmd_acquire(args, cfg, out, span):
    with span("read"):
        pmap = _read_polarized_map(args, cfg, args.field_map)
    seed = args.seed if args.seed is not None else cfg.seed
    if args.noiseless:
        seed = None
    if cfg.stream is not None:
        with span("stream"):
            frames = acquisition.simulate_stream(
                pmap, cfg.stream["dt_mw_ns"], cfg.pulse,
                cfg.stream["schedule"], timing=cfg.timing,
                rows=cfg.stream["rows"], decay=cfg.decay, seed=seed)
        name = f"{cfg.name}.stream.rstr"
        out(name, lambda path: formats.write_stream(
            path, pmap.grid, cfg.stream["dt_mw_ns"], frames,
            timing=cfg.timing, rows=cfg.stream["rows"],
            schedule=cfg.stream["schedule"], pulse=cfg.pulse, seed=seed),
            n_frames=len(frames),
            workers=acquisition.frame_workers(frames["frame"].shape))
    else:
        if cfg.dt_ns is None:
            raise ConfigError("config has neither scan nor stream section")
        with span("cube"):
            cube = acquisition.simulate_cube(pmap, cfg.dt_ns, cfg.pulse,
                                             decay=cfg.decay, seed=seed)
        name = f"{cfg.name}.cube.rcub"
        out(name, formats.write_cube, cube, n_frames=cube.n_frames,
            noiseless=seed is None,
            workers=acquisition.frame_workers(cube.frames.shape))
    print(f"acquire {cfg.name}: wrote {name}")
    return EXIT_OK


def cmd_fit(args, cfg, out, span):
    base = _cube_stem(args, cfg)
    field(args.threads, "--threads", at_least(1))
    with span("read"):
        cube = formats.read_cube(args.cube)
    with span("fit"):
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


def cmd_stitch(args, cfg, out, span):
    tiles = []
    for value in args.tile:
        path, offset = _parse_tile_arg(value)
        tiles.append((_read_polarized_map(args, cfg, path), offset))
    if not tiles:
        raise ConfigError("stitch needs at least one --tile")
    composite = analysis.stitch(tiles, refine=args.refine)
    out(args.name + ".fmap", formats.write_field_map, composite)
    out(args.name + ".pgm", formats.write_pgm, composite.values)
    print(f"stitch: composite {composite.grid.nx}x{composite.grid.ny} "
          f"written to {args.name}.fmap")
    return EXIT_OK


def cmd_contours(args, cfg, out, span):
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


def cmd_report(args, cfg, out, span):
    pmap = _read_polarized_map(args, cfg)
    report = {"scenario": cfg.name, "component": cfg.transition,
              "version": __version__}
    rows = [("scenario", cfg.name), ("component", cfg.transition)]

    positive = pmap.values[pmap.values > 0]
    stats = report["field_stats"] = {
        "min_ut": float(positive.min()) * 1e6 if positive.size else 0.0,
        "median_ut": float(np.median(pmap.values)) * 1e6,
        "max_ut": float(pmap.values.max()) * 1e6,
    }
    rows += [(f"field {key}", f"{stats[key + '_ut']:.3f} uT")
             for key in ("min", "median", "max")]
    if positive.size:
        db = report["dynamic_range_db"] = analysis.dynamic_range_db(
            float(positive.min()), float(pmap.values.max()))
        rows.append(("dynamic range", f"{db:.2f} dB"))

    cut_text, j_mid = _line_cut_text(pmap)
    cut_name = f"{cfg.name}.linecut.txt"
    out(cut_name, formats.atomic_write_bytes, cut_text.encode(),
        row_index=j_mid)
    report["line_cut"] = {"path": cut_name, "row_index": j_mid,
                          "columns": ["position_um", "field_ut"]}

    if "p_in_dbm" in cfg.report:
        p_in, z = cfg.report["p_in_dbm"], cfg.report["impedance_ohm"]
        current = cfg.report["current"]
        p_sim, loss = analysis.insertion_loss_db(p_in, current, z)
        report["insertion_loss"] = {
            "p_in_dbm": p_in, "current_a": current, "impedance_ohm": z,
            "p_sim_dbm": p_sim, "loss_db": loss}
        rows += [("p_sim", f"{p_sim:.2f} dBm"),
                 ("insertion loss", f"{loss:.2f} dB")]

    counts = {}
    if "sensitivity" in cfg.report:
        n_rep = cfg.report["sensitivity"]
        base_seed = (cfg.seed if cfg.seed is not None else 0) + 1000
        with span("sensitivity"):
            cubes = acquisition.simulate_cubes(
                pmap, cfg.dt_ns, cfg.pulse, decay=cfg.decay,
                seeds=[base_seed + k for k in range(n_rep)])
            sens = analysis.amplitude_sensitivity(cubes)
        report["sensitivity"] = {"n_repeats": n_rep,
                                 "t_per_sqrt_hz": sens,
                                 "ut_per_sqrt_hz": sens * 1e6}
        rows.append(("sensitivity", f"{sens * 1e6:.4f} uT/sqrt(Hz)"))
        n_frames, nx, ny = cubes[0].frames.shape
        counts["workers"] = {
            "simulate": acquisition.frame_workers((n_rep * n_frames, nx, ny)),
            "fit": analysis.fit_workers(n_rep * nx * ny)}

    if "trap" in cfg.report:
        trap = analysis.characterize_trap(pmap, **cfg.report["trap"])
        report["trap"] = {
            "position_px": list(trap.position_px),
            "position_um": [v * 1e6 for v in trap.position_m],
            "field_ut": trap.value * 1e6,
            # 1 T/m equals 1 uT/um, so the numbers carry over directly
            "gradients_ut_per_um": dict(trap.gradients),
        }
        rows.append(("trap minimum", f"{trap.value * 1e6:.3f} uT at px "
                     f"{tuple(trap.position_px)}"))

    out(f"{cfg.name}.report.json", _write_json, report, **counts)
    text = "".join(f"{label:<16}{value}\n" for label, value in rows)
    out(f"{cfg.name}.report.txt", formats.atomic_write_bytes, text.encode())
    print(text, end="")
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
                   help="output base name, a bare file stem")
    p.set_defaults(func=cmd_stitch, base=lambda args, cfg: field(
        args.name, "--name", _file_stem))

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
    except (SegmentProximityError, analysis.TrapNotFound,
            analysis.NoConvergedPixel) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, formats.FormatError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
