"""The nvscope benchmark workloads and the metrics computed from them.

forward-maps  Every bundled scenario at its bundled size through the
              library equivalent of `simulate` + `acquire`: model build,
              layer-averaged phasor map, both sigma+/- projections, the
              seeded cube (or the stream for pulse-train-fig5), container
              write and read, contours of the last frame, the trap report
              of trap-fig4-xz and a refined stitch of overlapping tiles
              cut from the cpw-fig2 map. The field kernel dominates and
              the fitter is not called, so fitter changes must read "no
              change" here.
rabi-fit      One seeded noisy cpw-fig2 cube, built in set-up, fitted
              with analysis.fit_cube at the CLI default (double envelope,
              one worker). Each unit fits one of eight stride-10 pixel
              samples of the whole map (200 px, one fit_cube call), so
              the outcome mix (below threshold, double->single fallback,
              not converged, sub-cycle) is that of the full map. Almost
              all timed work is fitting.
scenario-cli  A cropped (10x10) omega-fig3 scan scenario, written by the
              benchmark in eight copies with their own noise seeds, each
              with a 10-repeat single-envelope sensitivity report,
              driven through nvscope.cli.main: simulate, acquire, fit,
              report, then each command again with --verify. The fit
              layer as many small batches, plus per-command CLI cost.

A workload object has set_up(), run_unit(index) and quality(). The
harness calls set_up() several times and keeps the last state, then
runs units until the time budget is spent. A unit is one pass over the
workload's inputs and reports the output-map pixels it completed, the
operations it attempted and how many of those failed. Unit i works on
input variant i % `variants` (a pixel sample, a noise seed), so each
variant's work repeats on the same inputs. Checks that fail append to
`problems`; any entry makes the run incorrect.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from nvscope import acquisition, analysis, cli, currents, formats
from nvscope import nearfield
from nvscope.acquisition import DecayParams
from nvscope.fieldcore import TRANSITIONS
import hostspeed
from tracing import Tracer

UNDAMPED = DecayParams(tau_fast_ns=math.inf, tau_slow_ns=math.inf,
                       weight_fast=0.5)

# A fitted pixel counts as accurate within this share of the true field.
ACCURATE_REL = 0.05

END_TO_END = {"setup_s": "s", "px_per_cal": "px/cal", "peak_rss_mb": "MB",
              "accurate_frac": "frac"}
# Printed with the end-to-end metrics but not part of the result line:
# px_per_s moves with the load other tenants put on a shared host far
# more than px_per_cal (see measure); failed_frac reads 0 on a healthy
# scenario-cli run (on rabi-fit it is the share of pixels neither
# converged nor below threshold, elsewhere failed/attempted of the
# result line); median_rel_err is 0 by construction on forward-maps.
REPORTED_ONLY = {"px_per_s": "px/s", "failed_frac": "frac",
                 "median_rel_err": "frac"}

# Spans opened around calls into each module; "<span>_s" is the
# metric of its self time.
_SPANS = ("currents.build", "nearfield.field", "nearfield.project",
          "acquisition.cube", "acquisition.stream", "formats.write",
          "formats.read", "analysis.fit", "analysis.contours",
          "analysis.trap", "analysis.stitch", "cli.load", "cli.simulate",
          "cli.acquire", "cli.fit", "cli.report", "cli.verify")
# Counts recorded at the same boundaries, with their units.
_COUNTS = {"currents.segments": "segments", "nearfield.pairs": "pairs",
           "acquisition.frames": "frames", "formats.bytes": "bytes",
           "analysis.px_fitted": "px", "analysis.converged": "px",
           "analysis.below_threshold": "px", "analysis.not_converged": "px",
           "analysis.single_exp": "px"}
PER_LAYER = {
    **{f"{span}_s": "s" for span in _SPANS},
    **_COUNTS,
    "nearfield.mpair_per_s": "Mpair/s",
    **{f"nearfield.mpair_per_s.{name}": "Mpair/s"
       for name in cli.BUNDLED_SCENARIOS},
    "analysis.ms_per_px": "ms/px",
    "analysis.single_fallback_frac": "frac",
    "analysis.median_rel_err": "frac",
    "trace.unit_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}


class Workload:
    variants = 1

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.problems = []
        self.failed_checks = 0
        self.raw = {}

    def check(self, ok, message):
        if not ok:
            self.failed_checks += 1
            if message not in self.problems:
                self.problems.append(message)
        return ok


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _f32(values):
    return np.asarray(values).astype(np.float32).astype(float)


def _on_runs(means):
    """Lengths of consecutive runs of frames above half the peak mean."""
    on = means > 0.5 * means.max()
    runs, k = [], 0
    while k < len(on):
        if on[k]:
            j = k
            while j < len(on) and on[j]:
                j += 1
            runs.append(j - k)
            k = j
        else:
            k += 1
    return runs


def _accuracy(fitted, truth, converged):
    """(accurate pixel count, relative errors of converged pixels)."""
    rel = np.abs(fitted - truth) / truth
    return int(np.sum(rel <= ACCURATE_REL)), rel[converged]


def _phasor_map(tr, cfg, tag=None):
    """Device model and layer-averaged phasor map of a scenario, traced."""
    with tr.span("currents.build", tag):
        model = currents.model_from_spec(cfg.device_doc)
    n_seg = model.starts.shape[0]
    tr.count("currents.segments", n_seg)
    with tr.span("nearfield.field", tag):
        phasor = nearfield.evaluate_phasor_map(model, cfg.grid, cfg.layer)
    tr.count("nearfield.pairs", n_seg * cfg.grid.nx * cfg.grid.ny
             * len(cfg.layer.heights()), tag)
    return phasor


class ForwardMaps(Workload):
    name = "forward-maps"
    stitch_scenario = "cpw-fig2"
    # Their device builders pass a 2-D origin_um to fieldcore, which raises
    # "origin must have shape (3,), got (2,)". They are attempted and
    # counted as failed operations; any other scenario that raises makes
    # the run incorrect.
    known_failures = frozenset({"meander-fig3", "interdigital-fig3"})

    def set_up(self):
        with self.tracer.span("cli.load"):
            self.configs = [cli.load_scenario(name)
                            for name in cli.BUNDLED_SCENARIOS]
        rng = np.random.default_rng(self.seed)
        self.noise_seeds = {cfg.name: int(rng.integers(1, 2 ** 31))
                            for cfg in self.configs}
        # Tiles overlap pairwise only, so an overlap averages two equal
        # values and a correct stitch reproduces the source map exactly.
        # The cpw-fig2 map is nearly constant along axis 1 (the lines run
        # along it), where a correlation peak is ill-posed, so only the
        # axis-0 offsets are perturbed.
        self.tile_rows = ((0, 80), (60, 140), (120, 200))
        self.tile_jitter = [int(v) for v in rng.integers(-3, 4, size=3)]
        self.first_sha = {}
        self.failures = {}
        self.attempted_px = 0
        self.exact_px = 0

    def run_unit(self, index):
        done_px = failed = 0
        for cfg in self.configs:
            self.attempted_px += cfg.grid.nx * cfg.grid.ny
            try:
                with self.tracer.span("scenario", cfg.name):
                    self._scenario(cfg)
                done_px += cfg.grid.nx * cfg.grid.ny
            except Exception as err:  # a scenario op that raises is counted
                failed += 1
                self.failures[cfg.name] = f"{type(err).__name__}: {err}"
                self.check(cfg.name in self.known_failures,
                           f"{cfg.name} raised {type(err).__name__}: {err}")
        return done_px, len(self.configs), failed

    def _scenario(self, cfg):
        tr, name = self.tracer, cfg.name
        failed_checks = self.failed_checks
        phasor = _phasor_map(tr, cfg, name)
        with tr.span("nearfield.project", name):
            maps = {c: nearfield.project_polarization(phasor, cfg.nv_frame, c)
                    for c in TRANSITIONS}
        bmap = maps[cfg.transition]
        decay = cfg.decay or UNDAMPED
        seed = self.noise_seeds[name]

        base = os.path.join(self.workdir, name)
        written = {base + ".phasor.fmap": phasor}
        for c, pmap in maps.items():
            written[f"{base}.{c}.fmap"] = pmap
        if cfg.stream is not None:
            st = cfg.stream
            timing = acquisition.CameraTiming(
                row_time_us=st.get("row_time_us", 10.0),
                overhead_us=st.get("overhead_us", 200.0))
            with tr.span("acquisition.stream", name):
                frames = acquisition.simulate_stream(
                    bmap, st["dt_mw_ns"], cfg.pulse,
                    [tuple(e) for e in st["schedule"]], timing=timing,
                    rows=int(st["rows"]), seed=seed, decay=decay)
            acq_path = base + ".stream.rstr"
            tr.count("acquisition.frames", len(frames))

            def write_acquired():
                formats.write_stream(acq_path, bmap.grid, st["dt_mw_ns"],
                                     frames, timing=timing,
                                     rows=int(st["rows"]),
                                     schedule=st["schedule"], pulse=cfg.pulse,
                                     seed=seed)

            def read_acquired():
                return formats.read_stream(acq_path)[1]
        else:
            with tr.span("acquisition.cube", name):
                cube = acquisition.simulate_cube(bmap, cfg.dt_ns, cfg.pulse,
                                                 decay=decay, seed=seed)
            acq_path = base + ".cube.rcub"
            tr.count("acquisition.frames", cube.n_frames)

            def write_acquired():
                formats.write_cube(acq_path, cube)

            def read_acquired():
                return formats.read_cube(acq_path)

        with tr.span("formats.write", name):
            for path, fmap in written.items():
                formats.write_field_map(path, fmap)
            write_acquired()
        with tr.span("formats.read", name):
            back = {path: formats.read_field_map(path) for path in written}
            acquired = read_acquired()

        self.check(np.array_equal(
            back[base + ".phasor.fmap"].values,
            phasor.values.astype(np.complex64).astype(complex)),
            f"{name}: phasor map write/read round trip differs")
        for c, pmap in maps.items():
            self.check(np.array_equal(back[f"{base}.{c}.fmap"].values,
                                      _f32(pmap.values)),
                       f"{name}: {c} map write/read round trip differs")
        if cfg.stream is not None:
            self.check(len(frames) == len(acquired) and all(
                t0 == t1 and np.array_equal(_f32(f0), f1)
                for (t0, f0), (t1, f1) in zip(frames, acquired)),
                f"{name}: stream write/read round trip differs")
            runs = _on_runs(np.array([f.mean() for _, f in acquired]))
            self.check(len(runs) == 3 and runs[0] >= 2 and runs[1] >= 2
                       and runs[2] == 1,
                       f"{name}: stream on-runs {runs}, expected [>=2, >=2, 1]")
            last_frame, last_dt = acquired[-1][1], float(st["dt_mw_ns"])
        else:
            self.check(np.array_equal(_f32(cube.frames), acquired.frames)
                       and np.array_equal(cube.dt_ns, acquired.dt_ns),
                       f"{name}: cube write/read round trip differs")
            last_frame, last_dt = acquired.frames[-1], float(cube.dt_ns[-1])
        files = list(written) + [acq_path]
        tr.count("formats.bytes", sum(os.path.getsize(p) for p in files))
        for path in files:
            # forward outputs are byte-stable: every pass writes the same
            # bytes as the first
            digest = formats.sha256_file(path)
            first = self.first_sha.setdefault(os.path.basename(path), digest)
            self.check(digest == first,
                       f"{os.path.basename(path)}: bytes changed between "
                       "passes")

        with tr.span("analysis.contours", name):
            contours = analysis.extract_contours(last_frame, last_dt)
        self.raw.setdefault("ridges", {})[name] = len(contours.ridges)

        if cfg.trap is not None:
            region = tuple(tuple(r) for r in cfg.trap["search_region_px"])
            with tr.span("analysis.trap", name):
                trap = analysis.characterize_trap(
                    bmap, search_region=region,
                    arm=int(cfg.trap.get("arm_px", 5)))
            (i0, i1), (j0, j1) = region
            sub = bmap.values[i0:i1, j0:j1]
            bi, bj = np.unravel_index(np.argmin(sub), sub.shape)
            self.check(trap.position_px == (bi + i0, bj + j0),
                       f"{name}: trap minimum {trap.position_px} is not the "
                       f"region argmin {(bi + i0, bj + j0)}")

        if name == self.stitch_scenario:
            tiles = []
            for (r0, r1), jitter in zip(self.tile_rows, self.tile_jitter):
                tiles.append((_cut_rows(bmap, r0, r1), (r0 + jitter, 0)))
            with tr.span("analysis.stitch", name):
                composite = analysis.stitch(tiles, refine=True)
            self.check(np.array_equal(composite.values, bmap.values),
                       f"{name}: refined stitch does not reproduce the map")

        # the checks above compare whole maps exactly
        if self.failed_checks == failed_checks:
            self.exact_px += cfg.grid.nx * cfg.grid.ny

    def quality(self):
        self.raw["failures"] = self.failures
        self.raw["noise_seeds"] = self.noise_seeds
        self.raw["tile_jitter"] = self.tile_jitter
        # over every attempted scenario pixel, so a scenario that raises
        # lowers it and one that is fixed raises it
        return {"accurate_frac": self.exact_px / self.attempted_px,
                "median_rel_err": 0.0}


def _cut_rows(pmap, r0, r1):
    g = pmap.grid
    grid = nearfield.GridSpec(origin=g.origin + r0 * g.pitch * g.axes[0],
                              axes=g.axes, nx=r1 - r0, ny=g.ny, pitch=g.pitch)
    return nearfield.PolarizedFieldMap(grid=grid, component=pmap.component,
                                       values=pmap.values[r0:r1].copy())


def _subsample(cube, truth, stride, oi, oj):
    """Pixels (oi::stride, oj::stride) of a cube as a cube of their own."""
    g = cube.grid
    grid = nearfield.GridSpec(
        origin=g.origin + oi * g.pitch * g.axes[0] + oj * g.pitch * g.axes[1],
        axes=g.axes, nx=len(range(oi, g.nx, stride)),
        ny=len(range(oj, g.ny, stride)), pitch=g.pitch * stride)
    frames = np.ascontiguousarray(cube.frames[:, oi::stride, oj::stride])
    sub = acquisition.ImageCube(grid=grid, dt_ns=cube.dt_ns, frames=frames,
                                pulse=cube.pulse, seed=cube.seed)
    return sub, truth[oi::stride, oj::stride]


class RabiFit(Workload):
    name = "rabi-fit"
    scenario = "cpw-fig2"

    # Eight samples spread over the stride cell, the same in every run,
    # so only the noise varies with the seed. Fit cost moves with the
    # noise (unconverged pixels run to the iteration limit), and 1600
    # pixels per run average that out better than fewer.
    samples = ((1, 1), (1, 6), (3, 3), (3, 8), (6, 1), (6, 6), (8, 3),
               (8, 8))
    variants = len(samples)

    def __init__(self, seed, workdir, tracer, stride=10):
        super().__init__(seed, workdir, tracer)
        self.stride = stride
        self.accurate = self.fitted = self.unconverged = 0
        self.rel_errors = []
        self.fit_sha = []

    def set_up(self):
        tr, name = self.tracer, self.scenario
        with tr.span("cli.load", name):
            cfg = cli.load_scenario(name)
        phasor = _phasor_map(tr, cfg, name)
        with tr.span("nearfield.project", name):
            bmap = nearfield.project_polarization(phasor, cfg.nv_frame,
                                                  cfg.transition)
        self.truth = bmap.values
        self.noise_seed = int(
            np.random.default_rng(self.seed).integers(1, 2 ** 31))
        with tr.span("acquisition.cube", name):
            self.cube = acquisition.simulate_cube(
                bmap, cfg.dt_ns, cfg.pulse, decay=cfg.decay or UNDAMPED,
                seed=self.noise_seed)
        tr.count("acquisition.frames", self.cube.n_frames)

    def run_unit(self, index):
        oi, oj = self.samples[index % self.variants]
        sub, truth = _subsample(self.cube, self.truth, self.stride, oi, oj)
        n = truth.size
        # The operation is a pixel's fit: it fails when fit_cube raises.
        # A pixel that ends neither converged nor below threshold is an
        # outcome of its noisy data, counted in failed_frac; the count
        # depends on which samples a run reached and, rarely, on ulp-level
        # drift between repeated fits, so it is not a failed operation.
        try:
            with self.tracer.span("analysis.fit"):
                fmap, results = analysis.fit_cube(sub, analysis.FitConfig(),
                                                  n_workers=1)
        except Exception as err:
            self.check(False, f"fit_cube raised {type(err).__name__}: {err}")
            self.fitted += n  # so a raising fit lowers accurate_frac
            return 0, n, n
        flat = results.ravel()
        converged = np.array([r.converged for r in flat])
        below = np.array([r.below_threshold for r in flat])
        single = converged & np.array(
            [r.amp_slow == 0.0 and r.tau_fast_ns == r.tau_slow_ns
             for r in flat])
        unconverged = int(np.sum(~converged & ~below))
        tr = self.tracer
        tr.count("analysis.px_fitted", n)
        tr.count("analysis.converged", int(converged.sum()))
        tr.count("analysis.below_threshold", int(below.sum()))
        tr.count("analysis.not_converged", unconverged)
        tr.count("analysis.single_exp", int(single.sum()))

        values = fmap.values.ravel()
        truth = truth.ravel()
        accurate, rel = _accuracy(values, truth, converged)
        # Fit outputs are checked against tolerances, not bytes: on
        # byte-identical cubes, repeated fits have differed in a few
        # pixels at ulp level and once in one pixel's converged flag.
        self.check(np.all(np.isfinite(values)) and np.all(values >= 0),
                   "fitted map has negative or non-finite values")
        self.check(converged.mean() >= 0.9,
                   f"converged fraction {converged.mean():.3f} below 0.9")
        self.check(accurate / n >= 0.6,
                   f"accurate fraction {accurate / n:.3f} below 0.6")
        self.check(rel.size > 0 and np.median(rel) <= 0.02,
                   "median relative error of converged pixels above 0.02")
        self.accurate += accurate
        self.fitted += n
        self.unconverged += unconverged
        self.rel_errors.append(rel)
        self.fit_sha.append(_sha256(fmap.values))
        return n, n, 0

    def quality(self):
        self.raw["noise_seed"] = self.noise_seed
        self.raw["stride"] = self.stride
        self.raw["fitted_map_sha256"] = self.fit_sha
        rel = (np.concatenate(self.rel_errors) if self.rel_errors
               else np.full(1, math.nan))
        return {"accurate_frac": self.accurate / self.fitted,
                "median_rel_err": float(np.median(rel)),
                "failed_frac": self.unconverged / self.fitted}


class ScenarioCli(Workload):
    name = "scenario-cli"
    source = "omega-fig3"
    # A window across the loop's edge: strong field over the wire, weak
    # sub-cycle field outside it (its first three rows), with
    # below-threshold and unconverged pixels among them.
    crop_origin_px = (12, 45)
    # Chain cost moves with the noise (unconverged pixels run to the
    # iteration limit), so units cycle over copies with eight noise seeds.
    variants = 8

    def __init__(self, seed, workdir, tracer, crop=10):
        super().__init__(seed, workdir, tracer)
        self.crop = crop
        self.chains = 0
        self.accurate = self.fitted = 0
        self.rel_errors = []
        self.fit_sha = []
        self.sensitivity = []

    def set_up(self):
        # cli._n_workers reads NVSCOPE_THREADS and would start a pool
        os.environ.pop("NVSCOPE_THREADS", None)
        tr = self.tracer
        doc = json.loads(cli.resolve_config_source(self.source))
        grid = doc["grid"]
        i0, j0 = self.crop_origin_px
        pitch = grid["pitch_um"]
        grid["origin_um"] = [grid["origin_um"][0] + i0 * pitch,
                             grid["origin_um"][1] + j0 * pitch,
                             grid["origin_um"][2]]
        grid["nx"] = grid["ny"] = self.crop
        doc["name"] = f"{self.source}-crop"
        doc["report"] = {"sensitivity": {"n_repeats": 10,
                                         "envelope": "single"}}
        seeds = np.random.default_rng(self.seed).integers(
            1, 2 ** 31, size=self.variants)
        self.config_paths = []
        for v, seed in enumerate(seeds):
            doc["seed"] = int(seed)
            path = os.path.join(self.workdir, f"{doc['name']}-{v}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)
            self.config_paths.append(path)
        # the copies differ only in their seed
        with tr.span("cli.load"):
            cfg = cli.load_scenario(self.config_paths[0])
        phasor = _phasor_map(tr, cfg)
        with tr.span("nearfield.project"):
            self.truth = nearfield.project_polarization(
                phasor, cfg.nv_frame, cfg.transition)
        self.cfg = cfg
        self.raw["scenario_seeds"] = [int(seed) for seed in seeds]

    def _run(self, span, argv):
        sink = io.StringIO()
        with self.tracer.span(span):
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except Exception as err:  # escaped the CLI's own handlers
                    code = f"{type(err).__name__}: {err}"
        if code != 0:
            self.raw.setdefault("errors", []).append(
                f"{' '.join(argv)}: exit {code}: {sink.getvalue()[-300:]}")
        return code == 0

    def run_unit(self, index):
        out = os.path.join(self.workdir, f"chain-{self.chains}")
        self.chains += 1
        name = self.cfg.name
        config = self.config_paths[index % self.variants]
        cube = os.path.join(out, f"{name}.cube.rcub")
        commands = [
            ("cli.simulate", ["simulate", "--config", config]),
            ("cli.acquire", ["acquire", "--config", config]),
            ("cli.fit", ["fit", "--cube", cube, "--envelope", "single",
                         "--threads", "1"]),
            ("cli.report", ["report", "--config", config]),
        ]
        ok = {}
        for span, argv in commands:
            ok[argv[0]] = self._run(span, argv + ["-o", out])
        for span, argv in commands:
            ok[argv[0] + "-verify"] = self._run(
                "cli.verify", argv + ["-o", out, "--verify"])
        failed = sum(1 for v in ok.values() if not v)
        n_px = self.cfg.grid.nx * self.cfg.grid.ny
        # every chain's pixels count towards accurate_frac, so a failed
        # fit lowers it
        self.fitted += n_px
        self._check_chain(out, ok)
        shutil.rmtree(out, ignore_errors=True)
        # only a chain whose every command succeeded completes its pixels
        return (n_px if failed == 0 else 0), len(ok), failed

    def _check_chain(self, out, ok):
        name = self.cfg.name
        if ok["simulate"]:
            stem = {"sigma+": "sigma_plus", "sigma-": "sigma_minus"}[
                self.cfg.transition]
            pmap = formats.read_field_map(
                os.path.join(out, f"{name}.{stem}.fmap"))
            self.check(np.array_equal(pmap.values, _f32(self.truth.values)),
                       "simulate map differs from the forward model")
        if ok["fit"]:
            fmap = formats.read_field_map(
                os.path.join(out, f"{name}.cube.fit.fmap"))
            with open(os.path.join(out, f"{name}.cube.fit.json")) as fh:
                diag = json.load(fh)
            values = fmap.values.ravel()
            truth = self.truth.values.ravel()
            converged = values > 0
            accurate, rel = _accuracy(values, truth, converged)
            n = values.size
            self.check(accurate / n >= 0.6,
                       f"accurate fraction {accurate / n:.3f} below 0.6")
            self.check(rel.size > 0 and np.median(rel) <= 0.02,
                       "median relative error of fitted pixels above 0.02")
            self.accurate += accurate
            self.rel_errors.append(rel)
            self.fit_sha.append(_sha256(fmap.values))
            tr = self.tracer
            tr.count("analysis.px_fitted", diag["n_pixels"])
            tr.count("analysis.converged", diag["n_converged"])
            tr.count("analysis.below_threshold", diag["n_below_threshold"])
            tr.count("analysis.not_converged", diag["n_pixels"]
                     - diag["n_converged"] - diag["n_below_threshold"])
        if ok["report"]:
            with open(os.path.join(out, f"{name}.report.json")) as fh:
                sens = json.load(fh)["sensitivity"]["t_per_sqrt_hz"]
            self.check(math.isfinite(sens) and sens > 0,
                       f"sensitivity {sens} is not finite and positive")
            self.sensitivity.append(sens)

    def quality(self):
        self.raw["fitted_map_sha256"] = self.fit_sha
        self.raw["sensitivity_t_per_sqrt_hz"] = self.sensitivity
        rel = (np.concatenate(self.rel_errors) if self.rel_errors
               else np.empty(0))
        return {"accurate_frac": self.accurate / self.fitted,
                "median_rel_err": float(np.median(rel)) if rel.size
                else math.nan}


WORKLOADS = {w.name: w for w in (ForwardMaps, RabiFit, ScenarioCli)}


@dataclass
class Unit:
    index: int
    variant: int
    traced: bool
    warmup: bool
    wall_s: float
    pixels: int
    attempted: int
    failed: int
    cal_ratio: float  # wall_s in calibration runs timed beside the unit


def _px_per_cal(units):
    """Pixels of one unit per variant over the summed median unit times
    in calibration runs of each variant."""
    by_variant = {}
    for u in units:
        by_variant.setdefault(u.variant, []).append(u)
    pixels = sum(statistics.mean(u.pixels for u in us)
                 for us in by_variant.values())
    cal = sum(statistics.median(u.cal_ratio for u in us)
              for us in by_variant.values())
    return pixels / cal


def _median_totals(tracer, unit_ids):
    """Median over units of each (name, tag)'s self time and count."""
    per_unit = [tracer.unit_totals(u) for u in unit_ids]
    medians = []
    for k in (0, 1):
        keys = {key for totals in per_unit for key in totals[k]}
        medians.append({key: statistics.median(totals[k].get(key, 0)
                                               for totals in per_unit)
                        for key in keys})
    medians.append(statistics.median(t[2] for t in per_unit)
                   if per_unit else 0)
    return medians


def _layer_metrics(tracer, setup_ids, traced, pairs, quality):
    """Per-layer metrics of a traced run.

    Each value is the median over set-up repeats of that layer's
    set-up total plus the median over traced units of its unit total,
    so set-up work (the rabi-fit cube) and timed work both show.
    """
    parts = (_median_totals(tracer, setup_ids),
             _median_totals(tracer, [u.index for u in traced]))

    def total(kind, name, tag=None):
        """Seconds (kind 0) or count (kind 1); tag None sums all tags."""
        return sum(v for part in parts for (n, t), v in part[kind].items()
                   if n == name and (tag is None or t == tag))

    m = {f"{span}_s": total(0, span) for span in _SPANS}
    m.update({name: total(1, name) for name in _COUNTS})
    field_s = m["nearfield.field_s"]
    m["nearfield.mpair_per_s"] = (m["nearfield.pairs"] / field_s / 1e6
                                  if field_s else 0.0)
    for name in cli.BUNDLED_SCENARIOS:
        t = total(0, "nearfield.field", name)
        m[f"nearfield.mpair_per_s.{name}"] = (
            total(1, "nearfield.pairs", name) / t / 1e6 if t else 0.0)
    fit_s, px = m["analysis.fit_s"], m["analysis.px_fitted"]
    m["analysis.ms_per_px"] = fit_s / px * 1e3 if fit_s and px else 0.0
    conv = m["analysis.converged"]
    m["analysis.single_fallback_frac"] = (m["analysis.single_exp"] / conv
                                          if fit_s and conv else 0.0)
    rel = quality["median_rel_err"]
    m["analysis.median_rel_err"] = rel if math.isfinite(rel) else 0.0
    m["trace.unit_s"] = statistics.median(u.wall_s for u in traced)
    m["trace.overhead_frac"] = (
        statistics.median(t.wall_s / u.wall_s - 1.0 for u, t in pairs)
        if pairs else 0.0)
    m["trace.spans"] = parts[1][2]
    return m


def measure(name, seed, seconds, trace, workdir, setup_repeats=3, **size):
    """Set up a workload, run it for `seconds` and return its outcome.

    Units run until the elapsed time plus half the last unit's time
    reaches `seconds`, so a run ends within half a unit of the budget.
    A calibration run (hostspeed.calibrate) follows every unit, and a
    unit's time in calibration runs is its wall time over the mean of
    the calibrations on either side of it. px_per_cal is the pixels the
    untraced units complete per calibration run's worth of time, from
    the median time of each input variant (_px_per_cal); the host's
    load moves it far less than px_per_s, pixels over unit wall time,
    which is kept alongside. A first, untraced unit on variant 0 fills
    caches and finishes lazy set-up before the clock starts; its checks
    and operations count, its time does not. With trace on, units run
    in pairs on the same input, one traced and one not, in alternating
    order; the pair ratio is the tracing overhead.
    """
    tracer = Tracer(enabled=bool(trace))
    workload = WORKLOADS[name](seed, workdir, tracer, **size)
    setup_times, setup_ids = [], []
    for r in range(setup_repeats):
        setup_ids.append(("setup", r))
        with tracer.unit(setup_ids[-1]):
            t0 = time.perf_counter()
            workload.set_up()
            setup_times.append(time.perf_counter() - t0)

    units, pairs = [], []
    calibrations = [hostspeed.calibrate()]

    def run(index, traced, warmup=False):
        tracer.enabled = traced
        with tracer.unit(len(units)):
            t0 = time.perf_counter()
            pixels, attempted, failed = workload.run_unit(index)
            wall = time.perf_counter() - t0
        calibrations.append(hostspeed.calibrate())
        ratio = wall / statistics.mean(calibrations[-2:])
        units.append(Unit(len(units), index % workload.variants, traced,
                          warmup, wall, pixels, attempted, failed, ratio))
        return units[-1]

    run(0, False, warmup=True)
    start = time.perf_counter()
    index = 0
    while True:
        if trace:
            order = (False, True) if index % 2 == 0 else (True, False)
            first, second = (run(index, traced) for traced in order)
            pairs.append((first, second) if not first.traced
                         else (second, first))
            last = first.wall_s + second.wall_s
        else:
            last = run(index, False).wall_s
        index += 1
        if time.perf_counter() - start + 0.5 * last >= seconds:
            break

    quality = workload.quality()
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    untraced = [u for u in units if not (u.traced or u.warmup)]
    outcome = {
        "workload": name,
        "correct": not workload.problems,
        "problems": workload.problems,
        "attempted": attempted,
        "failed": failed,
        "pixels": sum(u.pixels for u in units),
        "setup_times_s": setup_times,
        "units": [(u.index, u.variant, u.traced, u.warmup, u.wall_s,
                   u.pixels, u.cal_ratio) for u in units],
        "px_per_cal": _px_per_cal(untraced),
        "px_per_s": (sum(u.pixels for u in untraced)
                     / sum(u.wall_s for u in untraced)),
        "calibration_s": calibrations,
        "failed_frac": failed / attempted,  # rabi-fit's quality overrides
        # the process high-water mark when this workload ends
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
        "raw": workload.raw,
        **quality,
    }
    if trace:
        outcome["layers"] = _layer_metrics(
            tracer, setup_ids, [u for u in units if u.traced], pairs,
            quality)
    return outcome
