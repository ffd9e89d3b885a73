"""End-to-end tests of the command-line driver.

cli.main() runs in-process against throwaway output directories. A
small strip scenario written by the tests keeps a full pipeline pass
(simulate -> acquire -> fit -> report) well under a second; the noisy
fit diagnostics are pinned against a committed golden file.
"""

import hashlib
import json
import math
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy

from nvscope import acquisition, analysis, cli, currents, formats, kernels
from nvscope.acquisition import DecayParams, ImageCube, contrast_at
from nvscope.cli import ConfigError, convert_units, load_scenario
from nvscope.fieldcore import GAMMA_NV, LAYER_NODES, SensingLayer
from nvscope.nearfield import (GridSpec, PolarizedFieldMap, evaluate_at_points,
                               evaluate_phasor_map)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")

MINI = {
    "name": "mini-strip",
    "description": "small strip scenario for pipeline tests",
    "device": {"kind": "strip",
               "params": {"centerline_um": [[-60, 0, 0], [60, 0, 0]],
                          "width_um": 40, "current_ma": 30,
                          "profile": "edge", "n_filaments": 16}},
    "grid": {"origin_um": [-48, -32, 0], "axes": [[1, 0, 0], [0, 1, 0]],
             "nx": 12, "ny": 8, "pitch_um": 8},
    "layer": {"height_um": 12, "thickness_um": 0},
    "nv": {"tilt_deg": 29.5, "tilt_plane": "xz"},
    "bias": {"f_mw_ghz": 2.77, "transition": "sigma-"},
    "pulse": {"laser_ns": 700, "wait_ns": 1500, "n_shots": 100,
              "c0": 0.05, "counts_ref": 1e5},
    "scan": {"dt_start_ns": 8, "dt_step_ns": 8, "n_steps": 100},
    "seed": 77,
}


def write_scenario(directory, **overrides):
    doc = json.loads(json.dumps(MINI))  # deep copy
    doc.update(overrides)
    path = os.path.join(str(directory), doc["name"] + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_manifest(outdir, base, command):
    with open(os.path.join(str(outdir),
                           f"{base}.{command}.manifest.json")) as fh:
        return json.load(fh)


def manifest_hashes(outdir, base, command):
    doc = read_manifest(outdir, base, command)
    return {o["path"]: o["sha256"] for o in doc["outputs"]}


def assert_timings(doc, layers):
    """timings_s holds total, outputs and exactly the given layers, none
    negative; no layer encloses an output, so all but total sum to at
    most total."""
    timings = doc["timings_s"]
    assert set(timings) == {"total", "outputs"} | set(layers)
    assert min(timings.values()) >= 0
    assert sum(timings.values()) - timings["total"] <= timings["total"]


# ------------------------------------------------------------ unit handling

def test_convert_units_scalars():
    doc = {"width_um": 120, "current_ma": 50, "f_mw_ghz": 2.77,
           "b_ut": 3.0, "plain": 7}
    out = convert_units(doc)
    assert out == {"width": pytest.approx(120e-6),
                   "current": pytest.approx(0.05),
                   "f_mw": pytest.approx(2.77e9),
                   "b": pytest.approx(3e-6), "plain": 7}


def test_convert_units_longest_suffix_wins():
    # current_ma must scale by 1e-3, not match _m or _a
    out = convert_units({"current_ma": 2.0, "span_mm": 3.0, "f_hz": 5.0})
    assert out == {"current": pytest.approx(2e-3),
                   "span": pytest.approx(3e-3), "f": pytest.approx(5.0)}


def test_convert_units_nested_lists():
    doc = {"device": {"params": {"centerline_um": [[-60, 0, 0], [60, 0, 0]]}},
           "origin_um": [-302, 0, 8]}
    out = convert_units(doc)
    assert out["origin"] == pytest.approx([-302e-6, 0.0, 8e-6])
    assert out["device"]["params"]["centerline"][1] == (
        pytest.approx([60e-6, 0.0, 0.0]))


def test_convert_units_time_keys_pass_verbatim():
    doc = {"laser_ns": 700, "row_time_us": 10, "dt_start_ns": 20,
           "tau_fast_ns": 300}
    assert convert_units(doc) == doc


def test_convert_units_rejects_non_numeric():
    with pytest.raises(ConfigError, match="boolean"):
        convert_units({"width_um": True})
    with pytest.raises(ConfigError, match="non-numeric"):
        convert_units({"pulse": {"width_um": "wide"}})


def test_convert_units_bare_suffix_key_untouched():
    # a key that IS a suffix carries no quantity name and is left alone
    assert convert_units({"_um": 3}) == {"_um": 3}


def test_convert_units_idempotent_after_strip():
    once = convert_units(MINI)
    assert convert_units(once) == once


# --------------------------------------------------------- scenario loading

def test_bundled_scenarios_all_load():
    for name in cli.BUNDLED_SCENARIOS:
        cfg = load_scenario(name)
        assert cfg.name == name
        assert cfg.grid.nx >= 12 and cfg.grid.ny >= 8
        assert cfg.transition in ("sigma+", "sigma-")
        assert cfg.dt_ns is not None or cfg.stream is not None


def test_cpw_scenario_fields():
    cfg = load_scenario("cpw-fig2")
    assert (cfg.grid.nx, cfg.grid.ny) == (200, 100)
    assert cfg.grid.pitch == pytest.approx(4e-6)
    assert cfg.layer.h == pytest.approx(12e-6)
    assert cfg.layer.d == pytest.approx(14e-6)
    assert cfg.f_mw == pytest.approx(2.77e9)
    assert cfg.transition == "sigma-"
    assert len(cfg.dt_ns) == 100
    assert cfg.dt_ns[0] == 20.0 and cfg.dt_ns[1] - cfg.dt_ns[0] == 20.0
    assert cfg.seed == 1234


def test_load_scenario_missing_sections(tmp_path):
    doc = json.loads(json.dumps(MINI))
    del doc["bias"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="bias"):
        load_scenario(str(path))


def test_load_scenario_bad_transition(tmp_path):
    path = write_scenario(tmp_path, bias={"f_mw_ghz": 2.77,
                                          "transition": "pi"})
    with pytest.raises(ConfigError, match="transition"):
        load_scenario(path)


def test_load_scenario_bad_scan(tmp_path):
    path = write_scenario(tmp_path, scan={"dt_start_ns": 8, "dt_step_ns": 0,
                                          "n_steps": 10})
    with pytest.raises(ConfigError, match="scan"):
        load_scenario(path)


def test_load_scenario_bad_schedule(tmp_path):
    doc = json.loads(json.dumps(MINI))
    del doc["scan"]
    path = tmp_path / "s.json"
    for schedule in ([[2.5, "sideways"]], [[0, "on"]], []):
        doc["stream"] = {"dt_mw_ns": 30, "rows": 50, "schedule": schedule}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="schedule"):
            load_scenario(str(path))


@pytest.mark.parametrize("key, message", [
    ("rows", "stream.rows must be an integer >= 1"),
    ("row_time_us", "stream: row_time_us must be positive")])
def test_stream_out_of_range_exits_2_at_load(tmp_path, capsys, key, message):
    # found at load, not first by acquire after simulate wrote its outputs
    doc = json.loads(json.dumps(MINI))
    del doc["scan"]
    doc["stream"] = {"dt_mw_ns": 30, "rows": 50, "schedule": [[1.0, "on"]],
                     key: 0}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=message):
        load_scenario(str(path))
    out = tmp_path / "out"
    assert run("simulate", "--config", path, "-o", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, field", [
    ({"stream": {"dt_mw_ns": 30, "rows": 50, "schedule": [5]}},
     "stream.schedule"),
    ({"stream": {"dt_mw_ns": 30, "rows": 50, "schedule": [["x", "on"]]}},
     "stream.schedule"),
    ({"grid": {**MINI["grid"], "axes": [[1, 0, 0]]}}, "grid.axes"),
    ({"layer": {**MINI["layer"], "thickness_um": None}}, "layer.thickness"),
    ({"device": 5}, "device"),
    ({"report": {"p_in_dbm": [1]}}, "report.p_in_dbm"),
    ({"report": {"p_in_dbm": 10, "impedance_ohm": None}},
     "report.impedance_ohm"),
    ({"trap": {"arm_px": None}}, "trap.arm_px"),
    ({"trap": {"arm_px": 0}}, "trap.arm_px"),
    ({"trap": {"arm_px": -5}}, "trap.arm_px"),
    ({"trap": {"search_region_px": 5}}, "trap.search_region_px"),
    ({"trap": {"search_region_px": [[-1, 5], [0, 8]]}},
     "trap.search_region_px must lie within"),
    ({"trap": {"search_region_px": [[5, 5], [0, 8]]}},
     "trap.search_region_px must lie within"),
    ({"nv": {**MINI["nv"], "tilt_plane": 5}}, "nv.tilt_plane"),
    ({"stream": {"dt_mw_ns": 30, "rows": 50, "schedule": [[5, "on"]],
                 "row_time_us": "x"}}, "stream.row_time_us"),
    ({"nv": {**MINI["nv"], "flip": "false"}}, "nv.flip"),
    ({"name": "../escaped"}, "name"),
    ({"grid": {**MINI["grid"], "nx": 0}}, "grid: nx must be at least 1"),
    ({"grid": {**MINI["grid"], "ny": -3}}, "grid: ny must be at least 1"),
    ({"decay": {"tau_fast_ns": -1, "tau_slow_ns": 1000, "weight_fast": 0.5}},
     "decay: tau_fast_ns must be positive"),
    ({"decay": {"tau_fast_ns": 100, "tau_slow_ns": -1, "weight_fast": 0.5}},
     "decay: tau_slow_ns must be positive"),
    ({"pulse": {**MINI["pulse"], "laser_ns": -1}},
     "pulse: laser_ns must be non-negative"),
    ({"pulse": {**MINI["pulse"], "wait_ns": -1}},
     "pulse: wait_ns must be non-negative"),
])
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys,
                                                   overrides, field):
    path = write_scenario(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=field):
        load_scenario(path)
    assert run("simulate", "--config", path, "-o", tmp_path / "out") == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("sensitivity, message", [
    ({"n_repeats": 9}, "report.sensitivity.n_repeats must be an integer"),
    ({"n_repeats": 10.0}, "report.sensitivity.n_repeats must be an integer"),
    ({"n_repeats": "12"}, "report.sensitivity.n_repeats must be an integer"),
    ({"n_repeats": True}, "report.sensitivity.n_repeats must be an integer"),
    ([10, "single"], "report.sensitivity must be an object"),
])
def test_malformed_sensitivity_exits_2_at_load(tmp_path, capsys, sensitivity,
                                               message):
    path = write_scenario(tmp_path, report={"sensitivity": sensitivity})
    with pytest.raises(ConfigError, match=message):
        load_scenario(path)
    # any command rejects it before it writes anything, not only report
    out = tmp_path / "out"
    assert run("simulate", "--config", path, "-o", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, section, key, value, message", [
    ("cpw-fig2", "report", "impedance_ohm", -50,
     "report.impedance_ohm must be positive"),
    ("cpw-fig2", "report", "impedance_ohm", 0,
     "report.impedance_ohm must be positive"),
    ("cpw-fig2", "report", "current_a", 0,
     "report.p_in_dbm needs a positive drive current"),
    ("cpw-fig2", "report", "current_ma", -50,
     "report.p_in_dbm needs a positive drive current"),
    ("cpw-fig2", "device", "current_ma", 0,
     "report.p_in_dbm needs a positive drive current"),
    ("trap-fig4-xz", "trap", "search_region_px", [[0, 500], [0, 40]],
     "trap.search_region_px must lie within the 151x98 grid"),
    ("cpw-fig2", "scan", "dt_start_ns", -20,
     "scan.dt_start_ns must be non-negative, got -20.0"),
    ("cpw-fig2", "scan", "dt_step_ns", 0,
     "scan.dt_step_ns must be positive, got 0.0"),
    ("cpw-fig2", "scan", "dt_step_ns", -20,
     "scan.dt_step_ns must be positive, got -20.0"),
    ("cpw-fig2", "scan", "n_steps", 0,
     "scan.n_steps must be an integer >= 1, got 0"),
    ("pulse-train-fig5", "stream", "dt_mw_ns", -30,
     "stream.dt_mw_ns must be non-negative, got -30.0"),
])
def test_settings_against_the_physics_exit_2_at_load(
        tmp_path, capsys, scenario, section, key, value, message):
    # these used to pass simulate and fail report with an unnamed error
    doc = json.loads(cli.resolve_config_source(scenario))
    (doc["device"]["params"] if section == "device" else doc[section])[
        key] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_scenario(str(path))
    out = tmp_path / "out"
    assert run("simulate", "--config", path, "-o", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sensitivity_without_scan_exits_2_at_load(tmp_path, capsys):
    doc = json.loads(json.dumps(MINI))
    del doc["scan"]
    doc["stream"] = {"dt_mw_ns": 30, "rows": 50, "schedule": [[1.0, "on"]]}
    doc["report"] = {"sensitivity": {"n_repeats": 10}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="report.sensitivity needs a scan"):
        load_scenario(str(path))
    assert run("simulate", "--config", path, "-o", tmp_path / "out") == 2
    assert "report.sensitivity" in capsys.readouterr().err


def test_sensitivity_on_a_short_scan_exits_2_at_load(tmp_path, capsys):
    # the repeats' fit needs 8 durations (analysis.MIN_FIT_SAMPLES): a
    # shorter scan fails at load, naming the field, before any output
    report = {"sensitivity": {"n_repeats": 10}}
    path = write_scenario(tmp_path, scan=dict(MINI["scan"], n_steps=7),
                          report=report)
    with pytest.raises(ConfigError, match="scan.n_steps >= 8"):
        load_scenario(path)
    for command in ("simulate", "acquire", "report"):
        out = tmp_path / command
        assert run(command, "--config", path, "-o", out) == 2
        assert "scan.n_steps" in capsys.readouterr().err
        assert not out.exists()
    path = write_scenario(tmp_path, scan=dict(MINI["scan"], n_steps=8),
                          report=report)
    assert load_scenario(path).report["sensitivity"] == 10


@pytest.mark.parametrize("sensitivity, n_repeats", [
    ({}, 10), ({"n_repeats": 10, "envelope": "single"}, 10),
    ({"n_repeats": 25, "envelope": "double"}, 25)])
def test_wellformed_sensitivity_loads(tmp_path, sensitivity, n_repeats):
    path = write_scenario(tmp_path, report={"sensitivity": sensitivity})
    assert load_scenario(path).report == {"impedance_ohm": 50.0,
                                          "sensitivity": n_repeats}


@pytest.mark.parametrize("floor", [3, 12])
def test_the_repeat_floor_is_one_constant(tmp_path, monkeypatch, floor):
    # report.sensitivity's load check, its default and
    # amplitude_sensitivity all read analysis.MIN_REPEATS when they run
    monkeypatch.setattr(analysis, "MIN_REPEATS", floor)
    short = {"sensitivity": {"n_repeats": floor - 1}}
    with pytest.raises(ConfigError, match=re.escape(
            f"report.sensitivity.n_repeats must be an integer >= {floor}, "
            f"got {floor - 1}")):
        load_scenario(write_scenario(tmp_path, report=short))
    for sensitivity in ({}, {"n_repeats": floor}):
        path = write_scenario(tmp_path, report={"sensitivity": sensitivity})
        assert load_scenario(path).report["sensitivity"] == floor
    grid = GridSpec(origin=np.zeros(3), axes=(np.array([1.0, 0.0, 0.0]),
                                              np.array([0.0, 1.0, 0.0])),
                    nx=3, ny=2, pitch=4e-6)
    pmap = PolarizedFieldMap(grid=grid, component="sigma-",
                             values=np.full((3, 2), 3e-4))
    cubes = acquisition.simulate_cubes(
        pmap, np.arange(10.0, 601.0, 10.0), acquisition.PulseParams(),
        DecayParams(math.inf, math.inf, 0.5), seeds=range(floor))
    with pytest.raises(ValueError,
                       match=f"need at least {floor} repeated cubes"):
        analysis.amplitude_sensitivity(cubes[:-1])
    assert analysis.amplitude_sensitivity(cubes) > 0.0


def test_report_settings_default_without_a_section(tmp_path):
    assert load_scenario(write_scenario(tmp_path)).report == {
        "impedance_ohm": 50.0}


def test_report_settings_are_checked_once_per_command(tmp_path,
                                                      monkeypatch):
    calls = []
    check = cli._check_report
    monkeypatch.setattr(cli, "_check_report",
                        lambda *a: calls.append(a) or check(*a))
    path = write_scenario(tmp_path, report={"p_in_dbm": 22.6})
    for command in ("simulate", "report"):
        calls.clear()
        assert run(command, "--config", path, "-o", tmp_path) == 0
        assert len(calls) == 1, command


def test_report_section_must_be_an_object(tmp_path):
    path = write_scenario(tmp_path, report=["sensitivity"])
    with pytest.raises(ConfigError, match="report must be an object"):
        load_scenario(path)


def test_unreachable_drive_frequency_exits_2(tmp_path):
    # sigma+ sits above the 2.87 GHz zero-field splitting; 2.77 GHz needs
    # a negative bias field
    path = write_scenario(tmp_path, bias={"f_mw_ghz": 2.77,
                                          "transition": "sigma+"})
    with pytest.raises(ConfigError, match="sigma-"):
        load_scenario(path)
    assert run("simulate", "--config", path, "-o", tmp_path / "out") == 2


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(str(path))


def test_unknown_config_lists_bundled():
    with pytest.raises(ConfigError, match="cpw-fig2"):
        load_scenario("no-such-scenario")


def test_device_current_extraction():
    assert currents.drive_current_a(
        {"kind": "strip", "params": {"current": 0.05}}) == 0.05
    assert currents.drive_current_a(
        {"kind": "strip", "params": {"current": [0.03, 0.04]}}) == (
            pytest.approx(0.05))
    nested = {"devices": [{"kind": "x", "params": {}},
                          {"kind": "strip", "params": {"current": -0.02}}]}
    assert currents.drive_current_a(nested) == pytest.approx(0.02)
    assert currents.drive_current_a({"kind": "x", "params": {}}) is None


# a well-formed device of each kind that fits the MINI grid
DEVICE_PARAMS = {
    "strip": MINI["device"]["params"],
    "cpw": {"signal_width_um": 20, "gap_um": 10, "ground_width_um": 40,
            "length_um": 200, "current_ma": 30, "n_filaments": 32},
    "segments": {"segments": [{"start_um": [-60, 0, 0], "end_um": [60, 0, 0],
                               "current_ma": 30}]},
    "omega-loop": {"radius_um": 30, "gap_um": 10, "current_ma": 30,
                   "lead_length_um": 60, "max_chord_um": 2},
    "meander": {"n_turns": 2, "leg_um": 40, "pitch_um": 20, "current_ma": 30},
    "interdigital": {"n_fingers": 3, "finger_length_um": 40, "pitch_um": 20,
                     "gap_um": 10, "current_ma": 30},
    "two-ring-trap": {"radius_inner_um": 20, "radius_outer_um": 40,
                      "current_ma": 30, "max_chord_um": 2},
}


def device(kind, drop=(), **params):
    kept = {k: v for k, v in DEVICE_PARAMS[kind].items() if k not in drop}
    return {"kind": kind, "params": {**kept, **params}}


@pytest.mark.parametrize("kind", sorted(DEVICE_PARAMS))
def test_every_device_kind_simulates(tmp_path, kind):
    path = write_scenario(tmp_path, device=device(kind))
    assert run("simulate", "--config", path, "-o", tmp_path / "out") == 0


@pytest.mark.parametrize("doc, field", [
    (device("strip", drop=["width_um"]), "device.params.width"),
    (device("strip", width_um=[40]), "device.params.width"),
    (device("cpw", drop=["signal_width_um"]), "device.params.signal_width"),
    (device("cpw", gap_um=[10]), "device.params.gap"),
    (device("segments", drop=["segments"]), "device.params.segments"),
    (device("segments", segments=5), "device.params.segments"),
    (device("segments", segments=[{"start_um": [0, 0, 0], "current_ma": 1}]),
     "device.params.segments[0].end"),
    (device("omega-loop", drop=["radius_um"]), "device.params.radius"),
    (device("omega-loop", gap_um=[10]), "device.params.gap"),
    (device("meander", drop=["leg_um"]), "device.params.leg"),
    (device("meander", n_turns=[2]), "device.params.n_turns"),
    (device("interdigital", drop=["pitch_um"]), "device.params.pitch"),
    (device("interdigital", n_fingers=[3]), "device.params.n_fingers"),
    (device("two-ring-trap", drop=["radius_outer_um"]),
     "device.params.radius_outer"),
    (device("two-ring-trap", radius_inner_um=[20]),
     "device.params.radius_inner"),
    ({"kind": "strip", "params": [1]}, "device.params"),
    ({"devices": 5}, "device.devices"),
    ({"devices": [device("strip"), device("omega-loop", drop=["radius_um"])]},
     "device.devices[1].params.radius"),
    # out of range, and the rules that span two fields
    (device("omega-loop", radius_um=-5), "device.params.radius must be"),
    (device("omega-loop", gap_um=60),
     "device.params.gap must be below 2 radius"),
    (device("interdigital", gap_um=40),
     "device.params.gap must be below finger_length"),
    (device("two-ring-trap", radius_inner_um=40),
     "device.params.radius_inner must be below radius_outer"),
    (device("cpw", ground_split=[0.7, 0.4]),
     "device.params.ground_split must sum to 1"),
    (device("strip", centerline_um=[[-60, 0, 0], [60, 0, 0], [-60, 0, 0]]),
     "device.params.centerline polyline doubles back"),
    (device("strip", centerline_um=[[-60, 0, 0], [-60, 0, 0], [60, 0, 0]]),
     "device.params.centerline must not repeat a point"),
    # a vertical segment, and a line that climbs out of its z plane
    (device("strip", centerline_um=[[0, 0, 0], [0, 0, 100]]),
     "device.params.centerline must lie in the first point's z plane"),
    (device("strip", centerline_um=[[0, 0, 0], [100, 0, 100]]),
     "device.params.centerline must lie in the first point's z plane"),
    (device("strip", profile="parabolic"), "device.params.profile must be"),
    (device("cpw", profile="flat"), "device.params.profile must be"),
])
def test_malformed_device_exits_2_naming_the_field(tmp_path, capsys, doc,
                                                   field):
    path = write_scenario(tmp_path, device=doc)
    assert run("simulate", "--config", path, "-o", tmp_path / "out") == 2
    assert field in capsys.readouterr().err


# each scalar numeric device param but the current, at 0 and at -1
OUT_OF_RANGE = [
    pytest.param(kind, key, value, id=f"{kind}:{key}={value}")
    for kind, params in DEVICE_PARAMS.items()
    for key, default in params.items()
    if key != "current_ma" and type(default) in (int, float)
    for value in (0, -1)]


@pytest.mark.parametrize("kind, key, value", OUT_OF_RANGE)
def test_out_of_range_device_param_exits_2_naming_it(tmp_path, capsys, kind,
                                                     key, value):
    path = write_scenario(tmp_path, device=device(kind, **{key: value}))
    out = tmp_path / "out"
    assert run("simulate", "--config", path, "-o", out) == 2
    stem = next(iter(convert_units({key: 0})))  # suffix stripped
    assert re.search(rf"device\.params\.{stem}\b",
                     capsys.readouterr().err)
    assert not out.exists()


# a well-formed meander in SI units; each case below spoils one param
MEANDER = {"n_turns": 4, "leg": 1e-4, "pitch": 5e-5, "current": 0.02}


@pytest.mark.parametrize("overrides, field", [
    ({"grid": {**MINI["grid"], "nx": 4.7}}, "grid.nx"),
    ({"grid": {**MINI["grid"], "ny": 8.0}}, "grid.ny"),
    ({"scan": {**MINI["scan"], "n_steps": 100.0}}, "scan.n_steps"),
    ({"pulse": {**MINI["pulse"], "n_shots": 100.5}}, "pulse.n_shots"),
    ({"nv": {**MINI["nv"], "tilt_deg": 95}}, "nv: tilt angle"),
    ({"nv": {**MINI["nv"], "tilt_plane": "xy"}}, "nv: tilt_plane"),
    ({"name": "../escaped"}, "name must be a bare file stem"),
    ({"name": "."}, "name must be a bare file stem"),
    ({"name": ""}, "name must be a bare file stem"),
    ({"name": 5}, "name must be a bare file stem"),
    ({"device": {"kind": "meander", "params": {**MEANDER, "n_turns": 4.7}}},
     "device.params.n_turns"),
    ({"device": {"kind": "meander", "params": {**MEANDER, "leg": "1e-4"}}},
     "device.params.leg"),
    ({"device": {"kind": "meander", "params": {**MEANDER, "pitch": True}}},
     "device.params.pitch"),
    ({"device": {"kind": "meander", "params": {**MEANDER,
                                                "current": "0.02"}}},
     "device.params.current"),
    ({"device": device("strip", n_filaments=16.0)},
     "device.params.n_filaments"),
    ({"device": device("cpw", ground_split=["0.5", 0.5])},
     "device.params.ground_split"),
])
def test_ill_typed_field_exits_2_before_any_output(tmp_path, capsys,
                                                   overrides, field):
    # the run directory sits one level down, so that a name escaping the
    # output dir would still land inside tmp_path
    path = tmp_path / "run" / "s.json"
    path.parent.mkdir()
    path.write_text(json.dumps({**MINI, **overrides}))
    assert run("simulate", "--config", path, "-o", path.parent / "out") == 2
    assert field in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [path.parent, path]


@pytest.mark.parametrize("section, key, name", [
    ("grid", "pitch_um", "grid.pitch"),
    ("scan", "dt_step_ns", "scan.dt_step_ns")])
def test_int_beyond_float_range_exits_2_naming_the_field(tmp_path, capsys,
                                                        section, key, name):
    # a JSON integer has no size limit; one beyond float range is no number
    path = write_scenario(tmp_path, **{section: {**MINI[section],
                                                 key: 10 ** 400}})
    assert run("simulate", "--config", path, "-o", tmp_path / "out") == 2
    assert f"{name} must be a number" in capsys.readouterr().err


# integer fields of a scenario document; every other numeric field takes
# any JSON number
INTEGER_KEYS = {"nx", "ny", "n_shots", "n_steps", "rows", "seed", "arm_px",
                "search_region_px", "n_filaments", "n_turns", "n_fingers",
                "n_repeats"}
UNREAD_KEYS = {"description"}


def bundled_doc(name):
    """A bundled scenario as raw JSON. meander-fig3 and interdigital-fig3
    give a 2-D device origin_um, which does not build; a zero z is added
    so that every bundled document builds."""
    doc = json.loads(cli.resolve_config_source(name))
    params = doc["device"]["params"]
    if len(params.get("origin_um", [0, 0, 0])) == 2:
        params["origin_um"] = params["origin_um"] + [0]
    return doc


def wrong_types(value, keys, name, integer):
    """(keys, wrong value, field name) for value, and for each entry when
    it is a list: a string and a NaN for a number, also a float for an
    integer, and a number for anything else. An entry of a list is named
    by the field holding the list."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        yield keys, str(value), name
        yield keys, math.nan, name
        if integer:
            yield keys, value + 0.5, name
    else:
        yield keys, 5, name
    if isinstance(value, list):
        for i, entry in enumerate(value):
            yield from wrong_types(entry, keys + (i,), name, integer)
    if isinstance(value, dict):
        for key, entry in value.items():
            if key not in UNREAD_KEYS:
                stem = next(iter(convert_units({key: 0})))  # suffix stripped
                yield from wrong_types(entry, keys + (key,),
                                       f"{name}.{stem}" if name else stem,
                                       key in INTEGER_KEYS)


WRONG_TYPES = [
    pytest.param(scenario, keys, value, name,
                 id=f"{scenario}:{'.'.join(map(str, keys))}="
                    f"{'nan' if value != value else type(value).__name__}")
    for scenario in cli.BUNDLED_SCENARIOS
    for keys, value, name in wrong_types(bundled_doc(scenario), (), "", False)
    if keys]


def test_wrong_type_sweep_documents_build(tmp_path):
    for scenario in cli.BUNDLED_SCENARIOS:
        path = tmp_path / f"{scenario}.json"
        path.write_text(json.dumps(bundled_doc(scenario)))
        assert currents.model_from_spec(
            load_scenario(str(path)).device_doc).n_segments > 0


@pytest.mark.parametrize("scenario, keys, value, name", WRONG_TYPES)
def test_wrong_json_type_is_rejected_naming_the_field(tmp_path, scenario,
                                                      keys, value, name):
    doc = bundled_doc(scenario)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:  # ConfigError is a ValueError
        currents.model_from_spec(load_scenario(str(path)).device_doc)
    assert name in str(err.value)


def test_flipped_nv_axis_swaps_the_circular_components(tmp_path):
    # reversing the NV axis turns sigma+ into sigma- and back, exactly;
    # the phasor map does not depend on the NV frame. The strip's
    # segments carry one current phase, so its field is linearly
    # polarized and its two circular maps are equal: the loaded frame
    # shows that the flip was applied
    maps, frames = {}, {}
    for flip in (False, True):
        outdir = tmp_path / str(flip)
        cfg = write_scenario(tmp_path, nv={**MINI["nv"], "flip": flip})
        frames[flip] = load_scenario(cfg).nv_frame
        assert run("simulate", "--config", cfg, "-o", outdir) == 0
        maps[flip] = {kind: formats.read_field_map(
            outdir / f"mini-strip.{kind}.fmap").values
            for kind in ("phasor", "sigma_plus", "sigma_minus")}
    assert np.array_equal(frames[True].axis, -frames[False].axis)
    assert np.array_equal(frames[True].e2, -frames[False].e2)
    assert np.array_equal(maps[True]["phasor"], maps[False]["phasor"])
    assert np.array_equal(maps[True]["sigma_plus"], maps[False]["sigma_minus"])
    assert np.array_equal(maps[True]["sigma_minus"], maps[False]["sigma_plus"])


def test_layer_n_samples_is_not_read(tmp_path):
    # the node count is LAYER_NODES; a document still setting it loads
    path = write_scenario(tmp_path, layer={"height_um": 12, "thickness_um": 14,
                                           "n_samples": "fifteen"})
    assert len(load_scenario(path).layer.heights()) == LAYER_NODES


@pytest.mark.parametrize("scenario", cli.BUNDLED_SCENARIOS)
def test_truth_map_matches_a_48_node_layer_reference(tmp_path, scenario):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(bundled_doc(scenario)))
    cfg = load_scenario(str(path))
    model = currents.model_from_spec(cfg.device_doc)
    layer, g = cfg.layer, cfg.grid
    # every 5th pixel along each axis (an odd stride keeps the centers)
    grid = GridSpec(origin=g.origin, axes=g.axes, nx=g.nx // 5, ny=g.ny // 5,
                    pitch=5 * g.pitch)
    ref = evaluate_phasor_map(model, grid, SensingLayer(
        h=layer.h, d=layer.d, n_samples=48)).values.reshape(-1, 3)
    truth = evaluate_phasor_map(model, grid, layer).values.reshape(-1, 3)
    # the 15-point midpoint rule that the Gauss-Legendre rule replaced
    zs = (layer.h - layer.d / 2 + (np.arange(15) + 0.5) * layer.d / 15
          if layer.d > 0 else [layer.h])
    base = grid.pixel_centers()
    midpoint = sum(evaluate_at_points(model, base + z * grid.normal)
                   for z in zs) / len(zs)

    def err(values):
        return np.max(np.linalg.norm(values - ref, axis=1)
                      / np.linalg.norm(ref, axis=1))

    assert err(truth) <= 1e-6
    if layer.d > 0:
        assert err(truth) < err(midpoint)
    else:
        assert err(truth) == err(midpoint) == 0.0


# ----------------------------------------------------------- full pipeline

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One noiseless simulate/acquire/fit/report run shared by tests."""
    outdir = tmp_path_factory.mktemp("mini-pipeline")
    cfg = write_scenario(outdir)
    assert run("simulate", "--config", cfg, "-o", outdir) == 0
    assert run("acquire", "--config", cfg, "-o", outdir, "--noiseless") == 0
    assert run("fit", "--cube", outdir / "mini-strip.cube.rcub",
               "-o", outdir) == 0
    assert run("report", "--config", cfg, "-o", outdir) == 0
    return outdir, cfg


def test_simulate_outputs(pipeline):
    outdir, _ = pipeline
    hashes = manifest_hashes(outdir, "mini-strip", "simulate")
    assert set(hashes) == {"mini-strip.phasor.fmap",
                           "mini-strip.sigma_plus.fmap",
                           "mini-strip.sigma_minus.fmap",
                           "mini-strip.sigma_plus.pgm",
                           "mini-strip.sigma_minus.pgm"}
    for name, digest in hashes.items():
        assert formats.sha256_file(os.path.join(str(outdir), name)) == digest
    pmap = formats.read_field_map(
        os.path.join(str(outdir), "mini-strip.sigma_minus.fmap"))
    assert isinstance(pmap, PolarizedFieldMap)
    assert pmap.values.shape == (12, 8)
    assert pmap.values.min() > 0


def test_acquire_cube_contents(pipeline):
    outdir, _ = pipeline
    cube = formats.read_cube(
        os.path.join(str(outdir), "mini-strip.cube.rcub"))
    assert cube.n_frames == 100
    assert cube.dt_ns[0] == 8.0 and cube.dt_ns[-1] == 800.0
    assert cube.frames.shape == (100, 12, 8)


def test_fit_recovers_noiseless_map(pipeline):
    outdir, _ = pipeline
    fit = formats.read_field_map(
        os.path.join(str(outdir), "mini-strip.cube.fit.fmap"))
    ref = formats.read_field_map(
        os.path.join(str(outdir), "mini-strip.sigma_minus.fmap"))
    with open(os.path.join(str(outdir), "mini-strip.cube.fit.json")) as fh:
        diag = json.load(fh)
    assert diag["converged_fraction"] == 1.0
    assert diag["n_below_threshold"] == 0
    rel = np.abs(fit.values - ref.values) / ref.values
    assert rel.max() < 1e-5


def test_report_contents(pipeline):
    outdir, _ = pipeline
    with open(os.path.join(str(outdir), "mini-strip.report.json")) as fh:
        rep = json.load(fh)
    assert rep["scenario"] == "mini-strip"
    stats = rep["field_stats"]
    assert 0 < stats["min_ut"] < stats["median_ut"] < stats["max_ut"]
    assert rep["dynamic_range_db"] == pytest.approx(
        20.0 * math.log10(stats["max_ut"] / stats["min_ut"]), abs=1e-9)
    cut_path = os.path.join(str(outdir), rep["line_cut"]["path"])
    rows = [line.split() for line in open(cut_path).read().splitlines()]
    assert len(rows) == 12 and all(len(r) == 2 for r in rows)
    float_rows = [(float(a), float(b)) for a, b in rows]
    assert all(b > 0 for _, b in float_rows)
    text = open(os.path.join(str(outdir), "mini-strip.report.txt")).read()
    assert text.startswith("scenario")


def test_verify_all_commands(pipeline):
    outdir, cfg = pipeline
    assert run("simulate", "--config", cfg, "-o", outdir, "--verify") == 0
    assert run("acquire", "--config", cfg, "-o", outdir, "--verify") == 0
    assert run("fit", "--cube", outdir / "mini-strip.cube.rcub",
               "-o", outdir, "--verify") == 0
    assert run("report", "--config", cfg, "-o", outdir, "--verify") == 0


def test_verify_detects_tamper(pipeline):
    outdir, cfg = pipeline
    target = os.path.join(str(outdir), "mini-strip.sigma_minus.fmap")
    original = open(target, "rb").read()
    try:
        with open(target, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        assert run("simulate", "--config", cfg, "-o", outdir,
                   "--verify") == 4
    finally:
        with open(target, "wb") as fh:
            fh.write(original)
    assert run("simulate", "--config", cfg, "-o", outdir, "--verify") == 0


def test_fit_tags_the_map_with_the_cube_component(tmp_path):
    cfg = write_scenario(tmp_path, name="mini-plus", bias={
        "f_mw_ghz": 2.97, "transition": "sigma+"})
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "-o", out) == 0
    assert run("acquire", "--config", cfg, "-o", out, "--noiseless") == 0
    cube = out / "mini-plus.cube.rcub"
    assert formats.read_cube(cube).component == "sigma+"
    assert run("fit", "--cube", cube, "-o", out) == 0
    fmap = formats.read_field_map(out / "mini-plus.cube.fit.fmap")
    assert fmap.component == "sigma+"
    with open(out / "mini-plus.cube.fit.json") as fh:
        assert json.load(fh)["fit_options"]["component"] == "sigma+"
    # the component comes from the cube, never from an option
    with pytest.raises(SystemExit):
        run("fit", "--cube", cube, "-o", out, "--component", "sigma-")


def test_verify_names_a_missing_output(tmp_path, capsys):
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "-o", out) == 0
    (out / "mini-strip.sigma_plus.pgm").unlink()
    assert run("simulate", "--config", cfg, "-o", out, "--verify") == 4
    assert ("verification failed: missing: mini-strip.sigma_plus.pgm"
            in capsys.readouterr().err)


def test_verify_without_manifest(tmp_path):
    cfg = write_scenario(tmp_path)
    assert run("simulate", "--config", cfg, "-o", tmp_path / "empty",
               "--verify") == 2
    assert not (tmp_path / "empty").exists()


@pytest.mark.parametrize("entry", [
    None, [], {}, {"outputs": 5}, {"outputs": [5]},
    {"outputs": [{"sha256": "0" * 64}]},
    {"outputs": [{"path": "mini-strip.phasor.fmap"}]},
    {"outputs": [{"path": 7, "sha256": "0" * 64}]},
    {"outputs": [{"path": "..", "sha256": "0" * 64}]},
    "../outside.txt", "sub/../../outside.txt", "ABSOLUTE"])
def test_verify_rejects_malformed_manifest(tmp_path, capsys, entry):
    # a file outside the output dir, named with its true checksum, must
    # not verify: the runner only ever records bare file names
    outside = tmp_path / "outside.txt"
    outside.write_text("not an output\n")
    if isinstance(entry, str):
        name = str(outside) if entry == "ABSOLUTE" else entry
        entry = {"outputs": [{"path": name, "sha256": hashlib.sha256(
            outside.read_bytes()).hexdigest()}]}
    cfg = write_scenario(tmp_path)
    outdir = tmp_path / "out"
    outdir.mkdir()
    manifest = outdir / "mini-strip.simulate.manifest.json"
    manifest.write_text("{not json" if entry is None else json.dumps(entry))
    assert run("simulate", "--config", cfg, "-o", outdir, "--verify") == 2
    assert str(manifest) in capsys.readouterr().err


# the layers each command times; report times its sensitivity only when
# the scenario asks for one
RUNNER_LAYERS = {"simulate": {"model", "field", "projection"},
                 "acquire": {"read", "cube"}, "fit": {"read", "fit"},
                 "stitch": set(), "contours": set(), "report": set()}
RUNNER_COMMANDS = tuple(RUNNER_LAYERS)


def runner_case(command, outdir, cfg):
    """Arguments and output base name of each command, with inputs from
    the shared pipeline run."""
    fmap = outdir / "mini-strip.sigma_minus.fmap"
    cube = outdir / "mini-strip.cube.rcub"
    return {
        "simulate": (["--config", cfg], "mini-strip"),
        "acquire": (["--config", cfg, "--field-map", fmap], "mini-strip"),
        "fit": (["--cube", cube], "mini-strip.cube"),
        "stitch": (["--tile", f"{fmap}:0,0", "--tile", f"{fmap}:6,0",
                    "--name", "pair"], "pair"),
        "contours": (["--cube", cube], "mini-strip.cube"),
        "report": (["--config", cfg], "mini-strip"),
    }[command]


@pytest.mark.parametrize("command", RUNNER_COMMANDS)
def test_runner_manifest_timings_and_verify(pipeline, tmp_path, command):
    outdir, cfg = pipeline
    # report reads the field map from its own output dir
    shutil.copy(outdir / "mini-strip.sigma_minus.fmap", tmp_path)
    argv, base = runner_case(command, outdir, cfg)
    assert run(command, *argv, "-o", tmp_path) == 0
    doc = read_manifest(tmp_path, base, command)
    assert set(doc) == {"version", "command", "scenario", "config_sha256",
                        "created_utc", "outputs", "timings_s", "python",
                        "numpy", "scipy"}
    assert (doc["command"], doc["scenario"]) == (command, base)
    assert_timings(doc, RUNNER_LAYERS[command])
    for entry in doc["outputs"]:
        path = tmp_path / entry["path"]
        assert entry["sha256"] == formats.sha256_file(path)
        assert entry["bytes"] == os.path.getsize(path)
        assert ("pgm_scale_t" in entry) == entry["path"].endswith(".pgm")
    assert doc["outputs"]
    assert run(command, *argv, "-o", tmp_path, "--verify") == 0
    # --verify reads only the outputs, never the timings
    path = tmp_path / f"{base}.{command}.manifest.json"
    doc["timings_s"] = {"total": -1.0, "edited": "by hand"}
    path.write_text(json.dumps(doc))
    assert run(command, *argv, "-o", tmp_path, "--verify") == 0


def test_simulate_records_the_kernel_pairs(tmp_path):
    # a thick layer, so that the map takes more than one height
    cfg = write_scenario(tmp_path, layer={"height_um": 12,
                                          "thickness_um": 14})
    assert run("simulate", "--config", cfg, "-o", tmp_path) == 0
    scenario = load_scenario(cfg)
    n_seg = currents.model_from_spec(scenario.device_doc).starts.shape[0]
    n_h = len(scenario.layer.heights())
    assert n_h > 1
    entry, *rest = read_manifest(tmp_path, "mini-strip", "simulate")["outputs"]
    assert entry["path"] == "mini-strip.phasor.fmap"
    assert entry["pairs"] == n_seg * 12 * 8 * n_h
    assert all("pairs" not in other for other in rest)


def test_simulate_records_the_kernel_workers(tmp_path, monkeypatch, cpus,
                                            forks):
    cfg = write_scenario(tmp_path)
    assert run("simulate", "--config", cfg, "-o", tmp_path / "serial") == 0
    assert forks == []
    # three workers split the 96 px of the mini-strip
    cpus(3)
    monkeypatch.setattr(kernels, "SPLIT_PAIRS", 1)
    assert run("simulate", "--config", cfg, "-o", tmp_path / "split") == 0
    serial, split = (read_manifest(tmp_path / d, "mini-strip",
                                   "simulate")["outputs"]
                     for d in ("serial", "split"))
    # the recorded count is the processes that ran
    assert (serial[0]["workers"], split[0]["workers"]) == (1, 3)
    assert len(forks) + 1 == 3
    assert all("workers" not in other for other in serial[1:] + split[1:])
    assert [o["sha256"] for o in split] == [o["sha256"] for o in serial]
    assert run("simulate", "--config", cfg, "-o", tmp_path / "split",
               "--verify") == 0


def test_acquire_records_the_frame_workers(pipeline, tmp_path, monkeypatch,
                                           cpus, forks):
    outdir, cfg = pipeline
    # a cube this small fills serially unless the grain is smaller still
    monkeypatch.setattr(acquisition, "FILL_SPLIT_PX", 1)
    cpus(3)
    before = len(forks)
    assert run("acquire", "--config", cfg, "-o", tmp_path, "--field-map",
               outdir / "mini-strip.sigma_minus.fmap") == 0
    [entry] = read_manifest(tmp_path, "mini-strip", "acquire")["outputs"]
    frames = formats.read_cube(tmp_path / entry["path"]).frames
    assert entry["workers"] == acquisition.frame_workers(frames.shape) == 3
    # the recorded count is the processes that ran
    assert len(forks) - before + 1 == 3


def test_runner_writes_no_manifest_when_the_body_fails(tmp_path):
    cfg = write_scenario(tmp_path)
    assert run("acquire", "--config", cfg, "-o", tmp_path / "empty") == 2
    # a body that fails before its first output creates no directory
    assert not (tmp_path / "empty").exists()


def test_fit_below_min_converged_writes_manifest_then_exits_3(pipeline,
                                                              tmp_path,
                                                              monkeypatch):
    outdir, _ = pipeline
    cube = outdir / "mini-strip.cube.rcub"
    monkeypatch.setattr(cli, "MIN_CONVERGED_FRACTION", 1.1)
    assert run("fit", "--cube", cube, "-o", tmp_path) == 3
    assert run("fit", "--cube", cube, "-o", tmp_path, "--verify") == 0


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_fit_worker_count_below_one_exits_2(pipeline, tmp_path, threads):
    outdir, _ = pipeline
    assert run("fit", "--cube", outdir / "mini-strip.cube.rcub",
               "-o", tmp_path, "--threads", threads) == 2
    assert os.listdir(tmp_path) == []


# ------------------------------------------------- determinism and seeding

def test_seeded_acquire_is_deterministic(pipeline, tmp_path):
    outdir, cfg = pipeline
    fmap = outdir / "mini-strip.sigma_minus.fmap"
    assert run("acquire", "--config", cfg, "-o", tmp_path / "a",
               "--field-map", fmap) == 0
    assert run("acquire", "--config", cfg, "-o", tmp_path / "b",
               "--field-map", fmap) == 0
    h_a = manifest_hashes(tmp_path / "a", "mini-strip", "acquire")
    h_b = manifest_hashes(tmp_path / "b", "mini-strip", "acquire")
    assert h_a == h_b
    assert run("acquire", "--config", cfg, "-o", tmp_path / "c",
               "--field-map", fmap, "--seed", "123") == 0
    h_c = manifest_hashes(tmp_path / "c", "mini-strip", "acquire")
    assert h_c != h_a


def test_fit_worker_count_does_not_change_results(pipeline, tmp_path):
    outdir, _ = pipeline
    cube = outdir / "mini-strip.cube.rcub"
    assert run("fit", "--cube", cube, "-o", tmp_path, "--threads", 2) == 0
    h_one = manifest_hashes(outdir, "mini-strip.cube", "fit")
    h_two = manifest_hashes(tmp_path, "mini-strip.cube", "fit")
    assert h_one == h_two


@pytest.mark.parametrize("grain, threads, workers", [
    (1, 1, 1), (1, 3, 3), (analysis.FIT_SPLIT_PX, 2, 1)])
def test_fit_records_the_fit_workers(pipeline, tmp_path, monkeypatch, cpus,
                                     forks, grain, threads, workers):
    # the 96 px of the mini-strip: at the grain of 1, --threads workers
    # on three CPUs; at FIT_SPLIT_PX, one, whatever --threads asks
    outdir, _ = pipeline
    monkeypatch.setattr(analysis, "FIT_SPLIT_PX", grain)
    cpus(3)
    before = len(forks)
    assert run("fit", "--cube", outdir / "mini-strip.cube.rcub", "-o",
               tmp_path, "--threads", threads) == 0
    entry, *rest = read_manifest(tmp_path, "mini-strip.cube",
                                 "fit")["outputs"]
    assert entry["path"] == "mini-strip.cube.fit.fmap"
    # the recorded count is the processes that ran
    assert entry["workers"] == len(forks) - before + 1 == workers
    assert all("workers" not in other for other in rest)
    assert (manifest_hashes(tmp_path, "mini-strip.cube", "fit")
            == manifest_hashes(outdir, "mini-strip.cube", "fit"))


def test_noisy_fit_matches_golden_diagnostics(pipeline, tmp_path):
    # pinned regression; regenerate the golden only for intended changes
    outdir, cfg = pipeline
    fmap = outdir / "mini-strip.sigma_minus.fmap"
    assert run("acquire", "--config", cfg, "-o", tmp_path,
               "--field-map", fmap) == 0
    assert run("fit", "--cube", tmp_path / "mini-strip.cube.rcub",
               "-o", tmp_path) == 0
    with open(tmp_path / "mini-strip.cube.fit.json") as fh:
        diag = json.load(fh)
    with open(os.path.join(GOLDEN_DIR, "mini-strip-noisy-fit.json")) as fh:
        golden = json.load(fh)
    assert diag == golden


def test_noisy_cube_bytes_are_pinned(pipeline, tmp_path):
    # the noisy cube acquire writes, pinned bit for bit: the contrast and
    # noise are computed in float64 and rounded once to the stored float32
    outdir, cfg = pipeline
    assert run("acquire", "--config", cfg, "-o", tmp_path, "--field-map",
               outdir / "mini-strip.sigma_minus.fmap") == 0
    assert formats.sha256_file(tmp_path / "mini-strip.cube.rcub") == (
        "58d140cb42b7c81b610d5e850b86c6c4bfe227269473decde7a70ac84020798c")


def test_fit_json_splits_outcomes(pipeline, tmp_path, monkeypatch):
    # a 10-evaluation budget leaves some fits unfinished; every pixel
    # falls in exactly one outcome class
    outdir, cfg = pipeline
    assert run("acquire", "--config", cfg, "-o", tmp_path,
               "--field-map", outdir / "mini-strip.sigma_minus.fmap") == 0
    monkeypatch.setattr(analysis, "MAX_EVALS", 10)
    monkeypatch.setattr(cli, "MIN_CONVERGED_FRACTION", 0)
    assert run("fit", "--cube", tmp_path / "mini-strip.cube.rcub",
               "-o", tmp_path) == 0
    with open(tmp_path / "mini-strip.cube.fit.json") as fh:
        diag = json.load(fh)
    assert diag["n_budget_exhausted"] > 0
    assert (diag["n_converged"] + diag["n_below_threshold"]
            + diag["n_budget_exhausted"]
            + diag["n_omega_out_of_bounds"]) == diag["n_pixels"]


def test_manifest_records_library_versions(pipeline):
    outdir, _ = pipeline
    with open(outdir / "mini-strip.cube.fit.manifest.json") as fh:
        doc = json.load(fh)
    assert doc["python"] == platform.python_version()
    assert doc["numpy"] == np.__version__
    assert doc["scipy"] == scipy.__version__


def test_manifest_scipy_is_null_when_not_installed(tmp_path, monkeypatch):
    from importlib import metadata
    looked_up = []

    def not_installed(name):
        looked_up.append(name)
        raise metadata.PackageNotFoundError(name)

    monkeypatch.setattr(metadata, "version", not_installed)
    cli._installed_version.cache_clear()
    cfg = write_scenario(tmp_path)
    try:
        for out in ("a", "b"):
            assert run("simulate", "--config", cfg, "-o", tmp_path / out) == 0
    finally:
        cli._installed_version.cache_clear()
    for out in ("a", "b"):
        with open(tmp_path / out / "mini-strip.simulate.manifest.json") as fh:
            assert json.load(fh)["scipy"] is None
    assert looked_up == ["scipy"]  # once per process


def test_noisy_fit_envelope_choice_stable_under_ulp_shifts(pipeline,
                                                          tmp_path):
    # a 1-ulp change to the input must not change which model a pixel is
    # fitted with; fitted fields and residuals may move at rounding level
    # only, checked to rtol 1e-9
    outdir, cfg = pipeline
    fmap = outdir / "mini-strip.sigma_minus.fmap"
    assert run("acquire", "--config", cfg, "-o", tmp_path,
               "--field-map", fmap) == 0
    cube = formats.read_cube(tmp_path / "mini-strip.cube.rcub")

    # the cube's 96 pixels are the one block that fit_cube fits; fitted
    # here directly, because an ImageCube would round the float64 shifts
    # below back to its float32 frames
    def fit(frames):
        flat = analysis._fit_rows(cube.dt_ns,
                                  frames.reshape(cube.n_frames, -1).T,
                                  analysis.FitConfig())
        single = ((flat.amp_slow == 0.0)
                  & (flat.tau_slow_ns == flat.tau_fast_ns)).tolist()
        converged = flat.converged.tolist()
        field = np.where(flat.converged, analysis.omega_to_field(flat.omega),
                         0.0)
        return single, converged, field, flat.residual_rms

    single, converged, field, rms = fit(cube.frames)
    # float64 ulps, which a float32 cube cannot hold
    frames64 = cube.frames.astype(float)
    shifted = {"+1 ulp": np.nextafter(frames64, np.inf),
               "-1 ulp": np.nextafter(frames64, -np.inf),
               "float32": cube.frames.astype(np.float32).astype(float)}
    for name, frames in shifted.items():
        s_single, s_converged, s_field, s_rms = fit(frames)
        flips = [k for k in range(len(single)) if s_single[k] != single[k]]
        assert flips == [], f"{name}: envelope mode changed on pixels {flips}"
        assert s_converged == converged, name
        np.testing.assert_allclose(s_field, field, rtol=1e-9, err_msg=name)
        np.testing.assert_allclose(s_rms, rms, rtol=1e-9, err_msg=name)


# ---------------------------------------------------------- emulated libm

class UlpNumpy:
    """numpy as a module sees it through this proxy, except that each
    float64 result of sin, cos and exp moves by a seeded -1, 0 or +1 ulp,
    as another platform's libm may round it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        for name in ("sin", "cos", "exp"):
            ufunc = getattr(np, name)
            setattr(self, name, lambda *args, ufunc=ufunc, **kwargs:
                    self.jitter(ufunc(*args, **kwargs)))

    def jitter(self, values):
        if not (isinstance(values, np.ndarray) and values.dtype == float):
            return values
        step = self._rng.integers(-1, 2, size=values.shape)
        return np.where(step > 0, np.nextafter(values, np.inf),
                        np.where(step < 0, np.nextafter(values, -np.inf),
                                 values))

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def emulated_libm(monkeypatch):
    """emulate(seed) makes analysis see another libm: its sin, cos and exp
    results, and the steps of its linear solves, each moved by a seeded
    -1, 0 or +1 ulp. Not emulated: numpy's summation order and BLAS
    threading, which move reductions and matrix products instead."""
    solve_rows = analysis._solve_rows

    def emulate(seed):
        ulp_np = UlpNumpy(seed)
        monkeypatch.setattr(analysis, "np", ulp_np)
        monkeypatch.setattr(analysis, "_solve_rows",
                            lambda m, b: ulp_np.jitter(solve_rows(m, b)))
    return emulate


def fit_block(dt_ns, traces):
    results = analysis._fit_rows(dt_ns, traces, analysis.FitConfig())
    field = np.where(results.converged, analysis.omega_to_field(results.omega),
                     0.0)
    return results, field


@pytest.fixture(scope="module")
def libm_blocks(pipeline, tmp_path_factory):
    """(name, dt_ns, pixel traces, unperturbed fit_block result) of two
    fit blocks: the golden test's noisy mini-strip cube (96 px) and the
    first block of the cpw-fig2 cube at its scenario seed (1024 px), as
    fit_cube fits them."""
    outdir, cfg = pipeline
    tmp = tmp_path_factory.mktemp("libm")
    assert run("acquire", "--config", cfg, "-o", tmp, "--field-map",
               outdir / "mini-strip.sigma_minus.fmap") == 0
    assert run("simulate", "--config", "cpw-fig2", "-o", tmp) == 0
    assert run("acquire", "--config", "cpw-fig2", "-o", tmp) == 0
    blocks = []
    for name in ("mini-strip", "cpw-fig2"):
        cube = formats.read_cube(tmp / f"{name}.cube.rcub")
        traces = cube.frames.reshape(cube.n_frames, -1)[
            :, :analysis.FIT_BLOCK_PX].T
        blocks.append((name, cube.dt_ns, traces,
                       fit_block(cube.dt_ns, traces)))
    return blocks


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_outcomes_stable_under_emulated_libm(libm_blocks, emulated_libm,
                                                 seed):
    # the fit's outcome must not hang on how a libm rounds: no count,
    # converged flag or envelope label may move, and converged fields
    # only at rounding level (largest change seen 3.3e-9 relative)
    emulated_libm(seed)
    for name, dt, traces, (ref, ref_field) in libm_blocks:
        got, field = fit_block(dt, traces)
        assert (analysis.fit_outcome_counts(got)
                == analysis.fit_outcome_counts(ref)), name
        np.testing.assert_array_equal(got.converged, ref.converged, name)
        np.testing.assert_array_equal(got.amp_slow == 0, ref.amp_slow == 0,
                                      name)
        np.testing.assert_allclose(field, ref_field, rtol=1e-8, err_msg=name)


# ------------------------------------------------------ zero current, MW off

def test_zero_current_maps_and_mw_off_fit(tmp_path, capsys):
    doc = json.loads(json.dumps(MINI))
    doc["name"] = "zero-strip"
    doc["device"]["params"]["current_ma"] = 0
    doc["report"] = {"sensitivity": {"n_repeats": 10}}
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc))
    assert run("simulate", "--config", cfg, "-o", tmp_path) == 0
    for stem in ("phasor", "sigma_plus", "sigma_minus"):
        m = formats.read_field_map(
            os.path.join(str(tmp_path), f"zero-strip.{stem}.fmap"))
        assert not m.values.any()
    hashes = json.load(open(os.path.join(
        str(tmp_path), "zero-strip.simulate.manifest.json")))
    scales = [o["pgm_scale_t"] for o in hashes["outputs"]
              if "pgm_scale_t" in o]
    assert scales == [0.0, 0.0]
    # microwave off: every pixel is shot noise, fit reports an empty map
    assert run("acquire", "--config", cfg, "-o", tmp_path) == 0
    assert run("fit", "--cube", tmp_path / "zero-strip.cube.rcub",
               "-o", tmp_path) == 3
    with open(tmp_path / "zero-strip.cube.fit.json") as fh:
        diag = json.load(fh)
    assert diag["below_threshold_fraction"] == 1.0
    assert diag["converged_fraction"] == 0.0
    # no pixel converges in any repeat: a numerical failure, not a config
    # error
    capsys.readouterr()
    assert run("report", "--config", cfg, "-o", tmp_path) == 3
    assert ("numerical failure: no pixel converged across all repeats"
            in capsys.readouterr().err)


# ------------------------------------------------------------- stream mode

def test_stream_acquire(tmp_path):
    doc = json.loads(json.dumps(MINI))
    doc["name"] = "mini-stream"
    del doc["scan"]
    doc["stream"] = {"dt_mw_ns": 30, "rows": 50, "row_time_us": 10,
                     "overhead_us": 200,
                     "schedule": [[2.5, "on"], [2.5, "off"],
                                  [0.5, "on"], [1.0, "off"]]}
    cfg = tmp_path / "stream.json"
    cfg.write_text(json.dumps(doc))
    assert run("simulate", "--config", cfg, "-o", tmp_path) == 0
    assert run("acquire", "--config", cfg, "-o", tmp_path) == 0
    head, frames = formats.read_stream(
        os.path.join(str(tmp_path), "mini-stream.stream.rstr"))
    # 6.5 ms schedule at 0.7 ms per 50-row frame -> 10 frames
    assert len(frames) == 10
    stamps = [t for t, _ in frames]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    assert frames[0][1].shape == (12, 8)
    assert head["dt_mw_ns"] == 30
    doc = read_manifest(tmp_path, "mini-stream", "acquire")
    [entry] = doc["outputs"]
    assert entry["path"] == "mini-stream.stream.rstr"
    assert entry["workers"] == acquisition.frame_workers(
        frames["frame"].shape)
    assert_timings(doc, {"read", "stream"})


def test_stream_acquire_records_the_processes_that_ran(tmp_path, monkeypatch,
                                                       cpus, forks):
    # 70 ms at 0.7 ms per frame: 100 frames, three workers' worth once
    # each frame pixel may have a worker
    doc = json.loads(json.dumps(MINI))
    doc["name"] = "mini-stream"
    del doc["scan"]
    doc["stream"] = {"dt_mw_ns": 30, "rows": 50, "row_time_us": 10,
                     "overhead_us": 200,
                     "schedule": [[25, "on"], [25, "off"], [20, "on"]]}
    cfg = tmp_path / "stream.json"
    cfg.write_text(json.dumps(doc))
    assert run("simulate", "--config", cfg, "-o", tmp_path) == 0
    monkeypatch.setattr(acquisition, "FILL_SPLIT_PX", 1)
    cpus(3)
    before = len(forks)
    assert run("acquire", "--config", cfg, "-o", tmp_path) == 0
    [entry] = read_manifest(tmp_path, "mini-stream", "acquire")["outputs"]
    assert entry["n_frames"] == 100
    assert entry["workers"] == len(forks) - before + 1 == 3


# ----------------------------------------------------------- report metrics

def test_report_insertion_loss_and_sensitivity(tmp_path):
    doc = json.loads(json.dumps(MINI))
    doc["name"] = "mini-metrics"
    doc["report"] = {"p_in_dbm": 22.6, "impedance_ohm": 50,
                     "sensitivity": {"n_repeats": 10}}
    cfg = tmp_path / "metrics.json"
    cfg.write_text(json.dumps(doc))
    assert run("simulate", "--config", cfg, "-o", tmp_path) == 0
    assert run("report", "--config", cfg, "-o", tmp_path) == 0
    with open(tmp_path / "mini-metrics.report.json") as fh:
        rep = json.load(fh)
    il = rep["insertion_loss"]
    # 30 mA into 50 ohm is 45 mW = 16.53 dBm
    assert il["p_sim_dbm"] == pytest.approx(16.5321, abs=1e-3)
    assert il["loss_db"] == pytest.approx(22.6 - 16.5321, abs=1e-3)
    assert il["current_a"] == pytest.approx(0.03)
    sens = rep["sensitivity"]
    assert sens["n_repeats"] == 10
    assert 0 < sens["ut_per_sqrt_hz"] < 10
    assert sens["t_per_sqrt_hz"] == pytest.approx(
        sens["ut_per_sqrt_hz"] * 1e-6)
    assert_timings(read_manifest(tmp_path, "mini-metrics", "report"),
                   {"sensitivity"})


def test_report_records_the_sensitivity_workers(tmp_path, monkeypatch, cpus,
                                                forks):
    # the 11 repeats of the 96-px mini-strip: 105,600 frame pixels and
    # 1056 px, on three CPUs two fill workers and three fit workers, or
    # three and three with a grain of 1; the report's bytes are those of
    # the serial run
    cfg = write_scenario(tmp_path, report={"sensitivity": {"n_repeats": 11}})
    entries, ran = {}, {}
    sensitivity = analysis.amplitude_sensitivity

    def fit(cubes):
        ran["simulate"] = len(forks) - ran["simulate"] + 1
        before = len(forks)
        value = sensitivity(cubes)
        ran["fit"] = len(forks) - before + 1
        return value

    monkeypatch.setattr(analysis, "amplitude_sensitivity", fit)
    grains = acquisition.FILL_SPLIT_PX, analysis.FIT_SPLIT_PX
    for label, n, (fill, fit_px) in (("serial", 1, grains),
                                     ("grains", 3, grains),
                                     ("split", 3, (1, 1))):
        cpus(n)
        monkeypatch.setattr(acquisition, "FILL_SPLIT_PX", fill)
        monkeypatch.setattr(analysis, "FIT_SPLIT_PX", fit_px)
        out = tmp_path / label
        assert run("simulate", "--config", cfg, "-o", out) == 0
        ran["simulate"] = len(forks)
        assert run("report", "--config", cfg, "-o", out) == 0
        entries[label] = {o["path"]: o for o in read_manifest(
            out, "mini-strip", "report")["outputs"]}
        # the recorded counts are the processes that ran
        assert entries[label]["mini-strip.report.json"]["workers"] == ran
        assert run("report", "--config", cfg, "-o", out, "--verify") == 0
    assert [entries[label]["mini-strip.report.json"]["workers"]
            for label in ("serial", "grains", "split")] == [
        {"simulate": 1, "fit": 1}, {"simulate": 2, "fit": 3},
        {"simulate": 3, "fit": 3}]
    for label in ("grains", "split"):
        assert ({k: o["sha256"] for k, o in entries[label].items()}
                == {k: o["sha256"] for k, o in entries["serial"].items()})
    assert all("workers" not in o for label in entries
               for k, o in entries[label].items()
               if k != "mini-strip.report.json")


def test_report_without_sensitivity_records_no_workers(pipeline):
    outdir, _ = pipeline
    outputs = read_manifest(outdir, "mini-strip", "report")["outputs"]
    assert all("workers" not in o for o in outputs)


def test_p_in_dbm_without_drive_current_exits_2_at_load(tmp_path, capsys):
    # a segments device names no params-level current, so the input power
    # has nothing to be compared with unless the report gives a current
    path = write_scenario(tmp_path, device=device("segments"),
                          report={"p_in_dbm": 22.6})
    out = tmp_path / "out"
    assert run("simulate", "--config", path, "-o", out) == 2
    assert "report.p_in_dbm" in capsys.readouterr().err
    assert not out.exists()
    path = write_scenario(tmp_path, device=device("segments"),
                          report={"p_in_dbm": 22.6, "current_ma": 30})
    assert load_scenario(path).report == {
        "impedance_ohm": 50.0, "p_in_dbm": 22.6, "current": 0.03}
    assert run("simulate", "--config", path, "-o", out) == 0
    assert run("report", "--config", path, "-o", out) == 0
    with open(out / "mini-strip.report.json") as fh:
        assert json.load(fh)["insertion_loss"]["current_a"] == 0.03


def test_report_sensitivity_envelope_is_not_read():
    # the sensitivity is always fit single-envelope; a document still
    # setting the envelope loads and the value is ignored
    dt = np.arange(10.0, 100.0, 10.0)
    keyed = {"sensitivity": {"n_repeats": 10, "envelope": "double"}}
    plain = {"sensitivity": {"n_repeats": 10}}
    assert (cli._check_report(keyed, dt, MINI["device"])
            == cli._check_report(plain, dt, MINI["device"]))


def test_report_trap_section(tmp_path):
    trap = {
        "name": "mini-trap",
        "device": {"kind": "two-ring-trap",
                   "params": {"radius_inner_um": 100,
                              "radius_outer_um": 200, "current_ma": 50}},
        "grid": {"origin_um": [-84, 0, 18], "axes": [[1, 0, 0], [0, 0, 1]],
                 "nx": 21, "ny": 30, "pitch_um": 8},
        "layer": {"height_um": 0, "thickness_um": 0},
        "nv": {"tilt_deg": 29.5, "tilt_plane": "xz"},
        "bias": {"f_mw_ghz": 2.9674, "transition": "sigma+"},
        "pulse": {"laser_ns": 700, "wait_ns": 1500, "n_shots": 100,
                  "c0": 0.05, "counts_ref": 1e5},
        "trap": {"arm_px": 4},
        "seed": 11,
    }
    cfg = tmp_path / "trap.json"
    cfg.write_text(json.dumps(trap))
    assert run("simulate", "--config", cfg, "-o", tmp_path) == 0
    assert run("report", "--config", cfg, "-o", tmp_path) == 0
    with open(tmp_path / "mini-trap.report.json") as fh:
        rep = json.load(fh)
    tr = rep["trap"]
    i, j = tr["position_px"]
    assert 0 < i < 20 and 0 < j < 29
    assert set(tr["gradients_ut_per_um"]) == {
        "axis0_minus", "axis0_plus", "axis1_minus", "axis1_plus"}
    assert all(v > 0 for v in tr["gradients_ut_per_um"].values())
    # the minimum sits near the ring axis, well below the field median
    assert tr["field_ut"] < rep["field_stats"]["median_ut"] / 10


def test_trap_section_is_checked_once_at_load(tmp_path, monkeypatch):
    calls = []
    check = cli._check_trap
    monkeypatch.setattr(cli, "_check_trap",
                        lambda *a: calls.append(a) or check(*a))
    cfg = load_scenario("trap-fig4-xz")
    assert cfg.report["trap"] == {"arm": 5,
                                  "search_region": ((50, 101), (5, 60))}
    assert run("simulate", "--config", "trap-fig4-xz", "-o", tmp_path) == 0
    calls.clear()
    assert run("report", "--config", "trap-fig4-xz", "-o", tmp_path) == 0
    assert len(calls) == 1
    assert formats.sha256_file(tmp_path / "trap-fig4-xz.report.json") == (
        "36b7e08246f581207862d275ceda1bae3552b20434fc916045d7f5c328226a09")


def test_cpw_linecut_peak_over_signal_edge(tmp_path):
    assert run("simulate", "--config", "cpw-fig2", "-o", tmp_path) == 0
    pmap = formats.read_field_map(
        os.path.join(str(tmp_path), "cpw-fig2.sigma_minus.fmap"))
    cut = pmap.values[:, pmap.grid.ny // 2]
    i_pk = int(np.argmax(cut))
    x_pk = pmap.grid.origin[0] + (i_pk + 0.5) * pmap.grid.pitch
    # signal strip is 120 um wide and centered: edges at +-60 um
    assert min(abs(x_pk - 60e-6), abs(x_pk + 60e-6)) <= pmap.grid.pitch


# ------------------------------------------------------- stitch and contours

def ring_cube(nx=101, ny=101, dt_ns=30.0, r1_px=30.0):
    b1 = 1.0 / (2.0 * GAMMA_NV * dt_ns * 1e-9)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    r = np.hypot(i - (nx - 1) / 2, j - (ny - 1) / 2)
    b = np.minimum(np.where(r > 0, b1 * r1_px / np.maximum(r, 1e-9),
                            6.0 * b1), 6.0 * b1)
    frame = contrast_at(b, dt_ns,
                        decay=DecayParams(tau_fast_ns=math.inf,
                                          tau_slow_ns=math.inf,
                                          weight_fast=0.5), c0=0.05)
    grid = GridSpec(origin=np.zeros(3),
                    axes=(np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0])),
                    nx=nx, ny=ny, pitch=4e-6)
    return ImageCube(grid=grid, dt_ns=np.array([dt_ns]),
                     frames=frame[None]), b1


def test_contours_command(tmp_path):
    cube, b1 = ring_cube()
    path = os.path.join(str(tmp_path), "ring.rcub")
    formats.write_cube(path, cube)
    assert run("contours", "--cube", path, "-o", tmp_path,
               "--min-pixels", "12") == 0
    with open(tmp_path / "ring.contours.json") as fh:
        doc = json.load(fh)
    assert doc["frame"] == 0  # default -1 resolves to the only frame
    orders = [r["order_m"] for r in doc["ridges"]]
    assert orders[:3] == [1, 3, 5]
    assert doc["ridges"][0]["b_label_ut"] == pytest.approx(b1 * 1e6,
                                                           rel=1e-9)
    assert doc["ridges"][0]["n_pixels"] >= 12


def test_contours_frame_out_of_range(tmp_path):
    cube, _ = ring_cube(nx=31, ny=31)
    path = os.path.join(str(tmp_path), "ring.rcub")
    formats.write_cube(path, cube)
    assert run("contours", "--cube", path, "-o", tmp_path,
               "--frame", "5") == 2


def test_stitch_command(tmp_path):
    grid = GridSpec(origin=np.zeros(3),
                    axes=(np.array([1.0, 0.0, 0.0]),
                          np.array([0.0, 1.0, 0.0])),
                    nx=40, ny=30, pitch=4e-6)
    i, j = np.meshgrid(np.arange(40), np.arange(30), indexing="ij")
    vals = 2e-4 + 5e-5 * np.sin(0.31 * i) * np.cos(0.23 * j) + 1e-6 * i
    full = PolarizedFieldMap(grid=grid, component="sigma-", values=vals)

    def cut(i0, i1):
        g = GridSpec(origin=grid.origin + i0 * grid.pitch * grid.axes[0],
                     axes=grid.axes, nx=i1 - i0, ny=30, pitch=grid.pitch)
        return PolarizedFieldMap(grid=g, component="sigma-",
                                 values=vals[i0:i1].copy())

    a = os.path.join(str(tmp_path), "tile_a.fmap")
    b = os.path.join(str(tmp_path), "tile_b.fmap")
    formats.write_field_map(a, cut(0, 25))
    formats.write_field_map(b, cut(15, 40))
    assert run("stitch", "-o", tmp_path, "--tile", f"{a}:0,0",
               "--tile", f"{b}:15,0", "--name", "combo") == 0
    out = formats.read_field_map(os.path.join(str(tmp_path), "combo.fmap"))
    assert out.values.shape == (40, 30)
    assert np.allclose(out.values, full.values, rtol=1e-6)
    assert np.allclose(out.grid.origin, full.grid.origin)


def test_stitch_bad_tile_argument(tmp_path):
    assert run("stitch", "-o", tmp_path, "--tile", "nonsense") == 2
    assert run("stitch", "-o", tmp_path) == 2


@pytest.mark.parametrize("name", ["../escaped", "sub/combo", ".", ""])
def test_stitch_name_leaving_the_output_dir_exits_2(tmp_path, capsys, name):
    # the output dir sits one level down, so that an escaping name would
    # still land inside tmp_path
    tile = tmp_path / "tile.fmap"
    grid = GridSpec(origin=np.zeros(3), axes=(np.array([1.0, 0.0, 0.0]),
                                              np.array([0.0, 1.0, 0.0])),
                    nx=6, ny=5, pitch=4e-6)
    formats.write_field_map(str(tile), PolarizedFieldMap(
        grid=grid, component="sigma-", values=np.full((6, 5), 1e-4)))
    argv = ["stitch", "-o", tmp_path / "run" / "out", "--tile",
            f"{tile}:0,0", "--name", name]
    for extra in ([], ["--verify"]):
        assert run(*argv, *extra) == 2
        assert (f"--name must be a bare file stem, got {name!r}"
                in capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == [tile]


def test_stitch_tiles_of_different_pitch_exit_2(tmp_path, capsys):
    paths = []
    for k, pitch in enumerate((4e-6, 5e-6)):
        grid = GridSpec(origin=np.zeros(3),
                        axes=(np.array([1.0, 0.0, 0.0]),
                              np.array([0.0, 1.0, 0.0])),
                        nx=6, ny=5, pitch=pitch)
        paths.append(os.path.join(str(tmp_path), f"tile_{k}.fmap"))
        formats.write_field_map(paths[-1], PolarizedFieldMap(
            grid=grid, component="sigma-", values=np.full((6, 5), 1e-4)))
    assert run("stitch", "-o", tmp_path, "--tile", f"{paths[0]}:0,0",
               "--tile", f"{paths[1]}:3,0") == 2
    assert "error: tiles must share the same pitch" in capsys.readouterr().err


# ------------------------------------------------------------- error paths

def test_acquire_without_field_map(tmp_path):
    cfg = write_scenario(tmp_path)
    assert run("acquire", "--config", cfg, "-o", tmp_path / "empty") == 2


def test_acquire_rejects_phasor_map(pipeline, tmp_path):
    outdir, cfg = pipeline
    assert run("acquire", "--config", cfg, "-o", tmp_path, "--field-map",
               outdir / "mini-strip.phasor.fmap") == 2


@pytest.mark.parametrize("fault", ["missing", "phasor"])
@pytest.mark.parametrize("command", ["acquire", "acquire --field-map",
                                     "stitch", "report"])
def test_polarized_input_errors_exit_2_naming_the_path(
        pipeline, tmp_path, capsys, command, fault):
    # every command reads its polarized map through one reader; report on
    # a phasor map used to escape main as a TypeError
    outdir, cfg = pipeline
    out = tmp_path / "out"
    out.mkdir()
    target = out / "mini-strip.sigma_minus.fmap"
    if fault == "phasor":
        shutil.copy(outdir / "mini-strip.phasor.fmap", target)
    argv = {"acquire": ["--config", cfg],
            "acquire --field-map": ["--config", cfg, "--field-map", target],
            "stitch": ["--tile", f"{target}:0,0"],
            "report": ["--config", cfg]}[command]
    assert run(command.split()[0], *argv, "-o", out) == 2
    err = capsys.readouterr().err
    if fault == "missing":
        hint = "" if command in ("stitch", "acquire --field-map") else (
            "; run simulate first")
        assert f"error: field map {target} not found{hint}\n" == err
    else:
        assert (f"error: {target} holds a phasor map, not a polarized "
                "amplitude map\n") == err
    assert sorted(os.listdir(out)) == (
        [target.name] if fault == "phasor" else [])


def test_fit_corrupt_cube(tmp_path):
    path = tmp_path / "junk.rcub"
    for raw in (b"RCUB1\n{\"oops\": tru", b'RCUB1\n{"dtype":"float32"}\n'):
        path.write_bytes(raw)
        assert run("fit", "--cube", path, "-o", tmp_path) == 2


def test_unknown_config_name_exit_code(tmp_path):
    assert run("simulate", "--config", "no-such", "-o", tmp_path) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "nvscope" in capsys.readouterr().out


def test_cli_imports_no_scipy():
    code = """
import sys
import numpy as np
before = set(sys.modules)
import nvscope.cli
from nvscope import analysis
i, j = np.indices((41, 41))
ring = np.cos(np.hypot(i - 20, j - 20) / 2.0) ** 2
assert analysis.extract_contours(ring, dt_mw_ns=30.0).ridges
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("importlib.metadata" in set(sys.modules) - before)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "False"]


def test_pipeline_runs_without_scipy(tmp_path):
    code = """
import importlib
import pkgutil
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import nvscope
for module in pkgutil.walk_packages(nvscope.__path__, "nvscope."):
    importlib.import_module(module.name)
from nvscope import cli
cfg, out = sys.argv[1:]
cube = out + "/mini-strip.cube.rcub"
for argv in (["simulate", "--config", cfg],
             ["acquire", "--config", cfg, "--noiseless"],
             ["fit", "--cube", cube], ["report", "--config", cfg],
             ["contours", "--cube", cube]):
    assert cli.main(argv + ["-o", out]) == 0, argv
"""
    cfg = write_scenario(tmp_path)
    out = tmp_path / "out"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, cfg, str(out)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for command in ("simulate", "acquire", "fit", "report", "contours"):
        base = "mini-strip.cube" if command in ("fit", "contours") else (
            "mini-strip")
        assert (out / f"{base}.{command}.manifest.json").is_file()


def test_module_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run([sys.executable, "-m", "nvscope.cli", "--version"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "nvscope" in proc.stdout


def readme_commands():
    # every "nvscope ..." line of the README's shell blocks, comment cut
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "README.md")
    with open(path) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(),
                            flags=re.M | re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines()
            if line.startswith("nvscope ")]


def test_readme_commands_parse():
    # a README example with an option the CLI no longer has fails here
    commands = readme_commands()
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: nvscope "
                        f"{shlex.join(argv)}")
