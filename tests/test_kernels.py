"""Proximity reporting of the field accumulation kernel, and its split
of a call's points over forked workers."""

import os
import signal

import numpy as np
import pytest

from nvscope import currents as cur
from nvscope import fieldcore as fc
from nvscope import kernels
from nvscope import nearfield as nf
from nvscope.cli import load_scenario
from nvscope.kernels import field_accumulate


def random_inputs(seed, n_seg=40, n_pts=300):
    rng = np.random.default_rng(seed)
    starts = rng.normal(size=(n_seg, 3)) * 1e-3
    ends = starts + rng.normal(size=(n_seg, 3)) * 1e-3
    cur_re = rng.normal(size=n_seg)
    cur_im = rng.normal(size=n_seg)
    pts = rng.normal(size=(n_pts, 3)) * 3e-3
    return starts, ends, cur_re, cur_im, pts


def test_violation_index_identical():
    starts, ends, cr, ci, pts = random_inputs(99)
    pts[211] = 0.5 * (starts[17] + ends[17])  # on-axis point
    # later on-axis hits that must not win: segment order first, then
    # point order within the segment
    pts[5] = 0.5 * (starts[30] + ends[30])
    pts[250] = 0.25 * starts[17] + 0.75 * ends[17]
    out_re, out_im, hit = field_accumulate(starts, ends, cr + 1j * ci, pts,
                                           1e-9)
    assert out_re is None and out_im is None
    assert hit == (0, 17, 211)


# ------------------------------------------------ pixels split over workers

@pytest.fixture
def split3(monkeypatch, cpus, forks):
    """Three workers on any call; returns the fork counter."""
    cpus(3)
    monkeypatch.setattr(kernels, "SPLIT_PAIRS", 1)
    return forks


def strip_map():
    """A 5 x 4 px grid over two segments, three layer heights: 20 px split
    three ways are the uneven ranges 0-5, 6-12 and 13-19."""
    grid = nf.GridSpec(origin=np.array([-20e-6, -16e-6, 0.0]),
                       axes=(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
                       nx=5, ny=4, pitch=8e-6)
    model = cur.CurrentModel(np.array([[-60e-6, -3e-6, 0.0],
                                       [10e-6, -70e-6, -2e-6]]),
                             np.array([[60e-6, 5e-6, 0.0],
                                       [-15e-6, 80e-6, -2e-6]]),
                             np.array([0.03 + 0.01j, -0.02 + 0.005j]))
    return model, grid, fc.SensingLayer(h=9e-6, d=6e-6, n_samples=3)


def test_split_map_bits_equal_the_serial_map(split3, cpus):
    model, grid, layer = strip_map()
    cpus(1)
    serial = nf.evaluate_phasor_map(model, grid, layer).values
    assert split3 == []
    cpus(3)
    split = nf.evaluate_phasor_map(model, grid, layer).values
    assert len(split3) == 2
    assert split.tobytes() == serial.tobytes()


def test_split_names_the_serial_first_violation(split3, cpus):
    model, grid, layer = strip_map()
    base = grid.pixel_centers()
    heights = layer.heights()

    def through(p, k, direction):
        # in-plane segment whose axis hits pixel p at height k
        c = base[p] + heights[k] * grid.normal
        v = 40e-6 * np.asarray(direction) / np.linalg.norm(direction)
        return c - v, c + v

    # segment 0 hits pixel 7 (the middle range) at height 2, segment 1
    # pixel 17 (the last range) at height 1: the answer, lower in height
    ends = [through(7, 2, (1.0, 0.3, 0.0)), through(17, 1, (0.2, 1.0, 0.0))]
    bad = cur.CurrentModel(np.array([e[0] for e in ends]),
                           np.array([e[1] for e in ends]),
                           np.full(2, 0.05 + 0.01j))
    errors = []
    for n in (1, 3):
        cpus(n)
        with pytest.raises(nf.SegmentProximityError) as err:
            nf.evaluate_phasor_map(bad, grid, layer)
        errors.append(err.value)
    assert len(split3) == 2
    serial, split = errors
    assert (serial.height, serial.segment_index, serial.pixel) == (
        heights[1], 1, divmod(17, grid.ny))
    assert (split.height, split.segment_index, split.pixel) == (
        serial.height, serial.segment_index, serial.pixel)
    assert np.array_equal(split.point, serial.point)


@pytest.mark.parametrize("failure", ["raise", "kill"])
def test_a_failed_worker_fails_the_call(split3, monkeypatch, failure):
    parent = os.getpid()
    accumulate = kernels._accumulate

    def failing(*args):
        if os.getpid() != parent:
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("worker failure")
        return accumulate(*args)

    monkeypatch.setattr(kernels, "_accumulate", failing)
    model, grid, layer = strip_map()
    with pytest.raises(RuntimeError, match="forked workers exited"):
        nf.evaluate_phasor_map(model, grid, layer)
    assert len(split3) == 2


def test_field_workers(monkeypatch, cpus):
    # one worker per SPLIT_PAIRS pairs, at most one per CPU
    cpus(3)
    grain = kernels.SPLIT_PAIRS
    assert kernels.field_workers(2 * grain - 1, 10 ** 6) == 1
    assert kernels.field_workers(2 * grain, 10 ** 6) == 2
    assert kernels.field_workers(3 * grain, 10 ** 6) == 3
    assert kernels.field_workers(10 * grain, 10 ** 6) == 3
    # at most one worker per point
    assert kernels.field_workers(10 * grain, 2) == 2
    cpus(1)
    assert kernels.field_workers(10 * grain, 10 ** 6) == 1
    cpus(3)
    monkeypatch.delattr(os, "fork")
    assert kernels.field_workers(10 * grain, 10 ** 6) == 1


@pytest.mark.parametrize("name, workers", [
    ("cpw-fig2", 2), ("omega-fig3", 2), ("trap-fig4-xz", 2),
    ("pulse-train-fig5", 1)])
def test_bundled_maps_split_where_the_split_pays(cpus, name, workers):
    # the large bundled maps split on two CPUs; a map of a few hundred
    # thousand pairs stays serial, where forking costs more than it saves
    cpus(2)
    cfg = load_scenario(name)
    pixels = cfg.grid.nx * cfg.grid.ny
    pairs = (cur.model_from_spec(cfg.device_doc).starts.shape[0] * pixels
             * len(cfg.layer.heights()))
    assert kernels.field_workers(pairs, pixels) == workers
