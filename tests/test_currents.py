"""Device discretization: strips, CPW, device library, superposition."""

import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from scipy.integrate import quad

from nvscope import currents as cur
from nvscope.cli import BUNDLED_SCENARIOS, load_scenario, main
from nvscope.fieldcore import ConfigError


def canonical_segments(model):
    """Order-independent view of a model for geometric comparisons."""
    rows = []
    for i in range(model.n_segments):
        a, b = model.starts[i], model.ends[i]
        c = model.currents[i]
        # orient each segment so comparisons ignore traversal direction
        if tuple(a) > tuple(b):
            a, b, c = b, a, -c
        rows.append((*a, *b, c.real, c.imag))
    return sorted(rows)


def mirror_x(model):
    flip = np.array([-1.0, 1.0, 1.0])
    return cur.CurrentModel(model.starts * flip, model.ends * flip,
                            model.currents.copy())


def strip(centerline, width, current, **params):
    return cur.model_from_spec({"kind": "strip", "params": {
        "centerline": centerline, "width": width, "current": current,
        **params}})


def cpw(split=(0.5, 0.5), current=0.05, **params):
    return cur.model_from_spec({"kind": "cpw", "params": {
        "signal_width": 120e-6, "gap": 54e-6, "ground_width": 200e-6,
        "length": 1.2e-3, "current": current, "ground_split": split,
        **params}})


def device(kind, params):
    return cur.model_from_spec({"kind": kind, "params": params})


class TestDiscretizeStrip:
    def centerline(self, L=1e-3):
        return [(0.0, -L / 2, 0.0), (0.0, L / 2, 0.0)]

    def test_single_filament_is_centerline(self):
        m = strip(self.centerline(), 120e-6, 0.05, n_filaments=1)
        assert m.n_segments == 1
        np.testing.assert_array_equal(m.starts[0], [0, -5e-4, 0])
        np.testing.assert_array_equal(m.ends[0], [0, 5e-4, 0])
        assert m.currents[0] == 0.05 + 0j

    def test_uniform_split(self):
        m = strip(self.centerline(), 120e-6, 0.05, profile="uniform",
                  n_filaments=4)
        assert m.n_segments == 4
        np.testing.assert_allclose(m.currents.real, 0.0125, rtol=1e-15)

    def test_edge_weights_match_bin_integrals(self):
        # oracle: adaptive quadrature of the edge profile over each bin
        n = 6
        m = strip(self.centerline(), 2.0, 1.0, profile="edge", n_filaments=n)
        w = np.sort(m.currents.real)

        def profile(x):
            return 1.0 / math.sqrt(1.0 - x * x)

        edges = np.linspace(-1.0, 1.0, n + 1)
        ref = np.array([quad(profile, edges[k], edges[k + 1], points=[-1, 1],
                             limit=200)[0] / math.pi for k in range(n)])
        ref = np.sort(ref)
        np.testing.assert_allclose(w, ref, rtol=1e-9)
        # crowding: outermost bin beats innermost
        assert w[-1] / w[0] > 2.0

    def test_current_conserved(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            total = complex(rng.normal(), rng.normal()) * 0.1
            n = int(rng.integers(1, 64))
            profile = "edge" if rng.random() < 0.5 else "uniform"
            m = strip(self.centerline(), rng.uniform(1e-6, 1e-3), total,
                      profile=profile, n_filaments=n)
            assert np.sum(m.currents) == pytest.approx(total, rel=1e-12)

    def test_filaments_at_bin_midpoints(self):
        m = strip(self.centerline(), 8e-6, 1.0, profile="uniform",
                  n_filaments=4)
        xs = np.sort(m.starts[:, 0])
        np.testing.assert_allclose(xs, [-3e-6, -1e-6, 1e-6, 3e-6], atol=1e-18)

    def test_filament_arrays_match_a_per_segment_loop(self):
        # reference: one segment at a time, filament by filament
        line = [(0, 0, 0), (1e-3, 0, 0), (1e-3, 1e-3, 0), (2e-3, 1.5e-3, 0)]
        current, n = complex(0.03, -0.01), 7
        m = strip(line, 40e-6, [0.03, -0.01], profile="edge", n_filaments=n)
        starts, ends, currents = [], [], []
        for off, w in zip(cur._filament_offsets(40e-6, n),
                          cur._edge_bin_weights(n)):
            pts = cur.offset_polyline(line, off)
            for a, b in zip(pts[:-1], pts[1:]):
                starts.append(a)
                ends.append(b)
                currents.append(current * w)
        assert m.starts.tobytes() == np.array(starts).tobytes()
        assert m.ends.tobytes() == np.array(ends).tobytes()
        assert m.currents.tobytes() == np.array(currents).tobytes()

    def test_offsets_exactly_symmetric(self):
        for n in (1, 2, 5, 32, 33):
            off = cur._filament_offsets(5.5e-5, n)
            np.testing.assert_array_equal(off, -off[::-1])

    def test_miter_corner(self):
        # right-angle bend: offset vertex shifts by off*sqrt(2) along the
        # bisector
        line = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
        out = cur.offset_polyline(line, 0.1)
        np.testing.assert_allclose(out[0], [0, 0.1, 0], atol=1e-15)
        np.testing.assert_allclose(out[1], [0.9, 0.1, 0], atol=1e-15)
        np.testing.assert_allclose(out[2], [0.9, 1.0, 0], atol=1e-15)
        assert np.linalg.norm(out[1] - np.array([1, 0, 0])) == pytest.approx(
            0.1 * math.sqrt(2), rel=1e-12)

    def test_doubling_back_rejected(self):
        line = [(0, 0, 0), (1, 0, 0), (0, 0, 0.0)]
        with pytest.raises(ValueError, match="doubles back"):
            cur.offset_polyline(line, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            strip(self.centerline(), -1.0, 1.0)
        with pytest.raises(ValueError):
            strip([(0, 0, 0)], 1.0, 1.0)
        with pytest.raises(ValueError):
            strip([(0, 0, 0), (0, 0, 0), (1, 0, 0)], 1.0, 1.0)
        with pytest.raises(ValueError):
            strip(self.centerline(), 1.0, 1.0, profile="parabolic")


class TestBuildCpw:
    def test_current_bookkeeping(self):
        m = cpw((0.65, 0.35), n_filaments=8)
        # strips along y at z=0; classify by x position
        x = m.starts[:, 0]
        signal = np.abs(x) < 60e-6
        left = x < -60e-6
        right = x > 60e-6
        assert np.sum(m.currents[signal]) == pytest.approx(0.05, rel=1e-12)
        assert np.sum(m.currents[left]) == pytest.approx(-0.05 * 0.65, rel=1e-12)
        assert np.sum(m.currents[right]) == pytest.approx(-0.05 * 0.35, rel=1e-12)

    def test_zero_current(self):
        m = cpw(current=0.0, n_filaments=4)
        assert np.all(m.currents == 0)

    def test_mirror_symmetry(self):
        a = cpw((0.65, 0.35), n_filaments=8)
        b = cpw((0.35, 0.65), n_filaments=8)
        assert canonical_segments(mirror_x(b)) == canonical_segments(a)

    def test_deterministic(self):
        a = cpw(n_filaments=16)
        b = cpw(n_filaments=16)
        np.testing.assert_array_equal(a.starts, b.starts)
        np.testing.assert_array_equal(a.ends, b.ends)
        np.testing.assert_array_equal(a.currents, b.currents)

    def test_split_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            cpw((0.7, 0.4))


class TestBuildDevice:
    def test_omega_gap(self):
        r, g = 100e-6, 20e-6
        m = device("omega-loop",
                   {"radius": r, "gap": g, "current": 0.05})
        # lead/arc junctions: end of the first segment, start of the last
        p0 = m.ends[0]
        p1 = m.starts[-1]
        assert np.linalg.norm(p0 - p1) == pytest.approx(g, rel=1e-9)
        # all arc points on the loop circle
        mids = 0.5 * (m.starts[1:-1] + m.ends[1:-1])
        radii = np.linalg.norm(mids[:, :2], axis=1)
        assert np.all(radii < r + 1e-9)

    def test_meander_length(self):
        n, leg, pitch = 5, 400e-6, 120e-6
        m = device("meander", {"n_turns": n, "leg": leg,
                               "pitch": pitch, "current": 0.02})
        total = np.sum(np.linalg.norm(m.ends - m.starts, axis=1))
        assert total == pytest.approx(n * (leg + pitch), rel=1e-12)

    def test_two_ring_closed_loops(self):
        m = device("two-ring-trap",
                   {"radius_inner": 100e-6, "radius_outer": 200e-6,
                    "current": 1.0})
        inner = m.currents == 1.0
        outer = m.currents == -1.0
        assert np.all(inner | outer)
        for mask in (inner, outer):
            starts, ends = m.starts[mask], m.ends[mask]
            # consecutive chaining and exact closure
            np.testing.assert_array_equal(ends[:-1], starts[1:])
            np.testing.assert_array_equal(ends[-1], starts[0])

    def test_two_ring_radii_ordering(self):
        with pytest.raises(ValueError):
            device("two-ring-trap",
                   {"radius_inner": 200e-6, "radius_outer": 100e-6,
                    "current": 1.0})

    def test_interdigital_fingers(self):
        n, L, pitch, gap = 5, 300e-6, 50e-6, 30e-6
        m = device("interdigital",
                   {"n_fingers": n, "finger_length": L,
                    "pitch": pitch, "gap": gap, "current": 0.01})
        d = m.ends - m.starts
        vertical = np.abs(d[:, 1]) > 1e-9
        fingers = d[vertical]
        assert len(fingers) == n
        assert np.all(fingers[:, 1] > 0)  # conduction path runs +y

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown device kind"):
            device("dipole", {})

    def test_builders_deterministic(self):
        p = {"radius": 1e-4, "gap": 2e-5, "current": [0.05, 0.01]}
        a = device("omega-loop", p)
        b = device("omega-loop", p)
        np.testing.assert_array_equal(a.starts, b.starts)
        np.testing.assert_array_equal(a.currents, b.currents)


class TestSuperposeAndSpec:
    def test_identity(self):
        m = device("meander", {"n_turns": 2, "leg": 1e-4,
                               "pitch": 4e-5, "current": 0.01})
        s = cur.superpose([m])
        np.testing.assert_array_equal(s.starts, m.starts)
        np.testing.assert_array_equal(s.currents, m.currents)

    def test_concatenation_order(self):
        a = cur.CurrentModel(np.array([[0., 0, 0]]), np.array([[1., 0, 0]]),
                             np.array([1 + 0j]))
        b = cur.CurrentModel(np.array([[0., 1, 0]]), np.array([[1., 1, 0]]),
                             np.array([2 + 0j]))
        s = cur.superpose([a, b])
        assert s.n_segments == 2
        assert s.currents[0] == 1 and s.currents[1] == 2

    def test_scaled_negation_cancels(self):
        m = device("omega-loop", {"radius": 1e-4, "gap": 2e-5,
                                  "current": 0.05})
        s = cur.superpose([m, cur.CurrentModel(m.starts, m.ends,
                                               -1.0 * m.currents)])
        assert np.sum(s.currents) == 0

    def test_model_from_spec_segments_and_superposition(self):
        doc = {"devices": [
            {"kind": "segments", "params": {"segments": [
                {"start": [0, 0, 0], "end": [1e-3, 0, 0], "current": [0.01, 0]}]}},
            {"kind": "meander", "params": {"n_turns": 1, "leg": 1e-4,
                                           "pitch": 5e-5, "current": 0.02}},
        ]}
        m = cur.model_from_spec(doc)
        assert m.n_segments > 1
        assert m.currents[0] == 0.01


@pytest.mark.parametrize("segments, message", [
    ([], "device.params.segments must list at least one segment"),
    ([{"start": [0, 0, 0], "end": [1e-4, 0, 0], "current": 0.01},
      {"start": [1e-4, 0, 0], "end": [1e-4, 0, 0], "current": 0.01}],
     "device.params.segments[1] must have distinct start and end"),
])
def test_bad_segments_exit_2_naming_the_field(tmp_path, capsys, segments,
                                              message):
    doc = {"kind": "segments", "params": {"segments": segments}}
    with pytest.raises(ConfigError, match=re.escape(message)):
        cur.model_from_spec(doc)
    scenario = json.loads((resources.files("nvscope.scenarios")
                           / "pulse-train-fig5.json").read_text())
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**scenario, "device": doc}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lead_um", [-50, 0])
def test_omega_lead_must_be_positive(tmp_path, capsys, lead_um):
    # a negative lead used to fold back inside the loop and pass simulate;
    # a zero lead failed only as "model contains zero-length segments"
    message = "device.params.lead_length must be positive"
    with pytest.raises(ConfigError, match=re.escape(message)):
        cur.model_from_spec({"kind": "omega-loop", "params": {
            "radius": 1.2e-4, "gap": 4e-5, "current": 0.04,
            "lead_length": lead_um * 1e-6}})
    scenario = json.loads((resources.files("nvscope.scenarios")
                           / "omega-fig3.json").read_text())
    scenario["device"]["params"]["lead_length_um"] = lead_um
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bundled_devices_build():
    # meander-fig3 and interdigital-fig3 give a 2-D origin_um: the error
    # names the field, and the same device with a zero z builds
    for name in BUNDLED_SCENARIOS:
        doc = load_scenario(name).device_doc
        if name in ("meander-fig3", "interdigital-fig3"):
            with pytest.raises(ValueError, match=r"device\.params\.origin"):
                cur.model_from_spec(doc)
            params = {**doc["params"], "origin": doc["params"]["origin"] + [0]}
            doc = {**doc, "params": params}
        assert cur.model_from_spec(doc).n_segments > 0, name
