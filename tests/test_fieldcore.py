"""Frame construction, polarization decomposition, layer averaging and
the fork-and-join runner."""

import ast
import math
import os
import pathlib
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvscope import fieldcore as fc


def random_phasor(rng, scale=1.0):
    re = rng.normal(size=3)
    im = rng.normal(size=3)
    return (re + 1j * im) * scale


def brute_circular(b, frame):
    """Independent evaluation of the circular amplitudes.

    Projects the phasor on the complex circular basis vectors
    (e1 -+ i e2)/sqrt(2) and rescales; no shared code with the package
    implementation beyond the frame itself.
    """
    u = complex(np.dot(b, frame.e1))
    v = complex(np.dot(b, frame.e2))
    return abs(u - 1j * v) / 2.0, abs(u + 1j * v) / 2.0


class TestNvFrame:
    def test_zero_tilt_is_vertical(self):
        f = fc.nv_frame_from_tilt(0.0, "xz")
        np.testing.assert_allclose(f.axis, [0, 0, 1], atol=1e-15)

    def test_quarter_turn(self):
        f = fc.nv_frame_from_tilt(90.0, "xz")
        np.testing.assert_allclose(f.axis, [1, 0, 0], atol=1e-15)

    def test_tilt_29p5_xz(self):
        # sin/cos of 29.5 degrees evaluated independently
        f = fc.nv_frame_from_tilt(29.5, "xz")
        np.testing.assert_allclose(
            f.axis, [0.49242356010346716, 0.0, 0.8703556959398997], rtol=1e-12)

    def test_frame_orthonormal_right_handed(self):
        for deg in (0.0, 12.5, 29.5, 45.0, 90.0):
            for plane in ("xz", "zx", "yz", "zy"):
                f = fc.nv_frame_from_tilt(deg, plane)
                for v in (f.axis, f.e1, f.e2):
                    assert abs(np.dot(v, v) - 1) < 1e-12
                assert abs(np.dot(f.axis, f.e1)) < 1e-12
                assert abs(np.dot(f.axis, f.e2)) < 1e-12
                assert abs(np.dot(f.e1, f.e2)) < 1e-12
                np.testing.assert_allclose(np.cross(f.e1, f.e2), f.axis,
                                           atol=1e-12)

    def test_tilt_out_of_range(self):
        with pytest.raises(ValueError):
            fc.nv_frame_from_tilt(-5.0, "xz")
        with pytest.raises(ValueError):
            fc.nv_frame_from_tilt(95.0, "xz")

    def test_bad_plane(self):
        with pytest.raises(ValueError):
            fc.nv_frame_from_tilt(10.0, "xx")
        with pytest.raises(ValueError):
            fc.nv_frame_from_tilt(10.0, "xy")
        with pytest.raises(ValueError):
            fc.nv_frame_from_tilt(10.0, "q")

    def test_invalid_frame_rejected(self):
        with pytest.raises(ValueError):
            fc.NvFrame(axis=[0, 0, 2.0], e1=[1, 0, 0], e2=[0, 1, 0])
        with pytest.raises(ValueError):
            # left-handed
            fc.NvFrame(axis=[0, 0, 1.0], e1=[0, 1, 0], e2=[1, 0, 0])


class TestDecomposePolarization:
    def setup_method(self):
        self.frame = fc.nv_frame_from_tilt(29.5, "xz")

    def test_linear_transverse_splits_equally(self):
        beta = 3.2e-4
        b = beta * self.frame.e1.astype(complex)
        b_par, b_plus, b_minus = fc.decompose_polarization(b, self.frame)
        assert b_par == pytest.approx(0.0, abs=1e-18)
        assert b_plus == pytest.approx(beta / 2, rel=1e-12)
        assert b_minus == pytest.approx(beta / 2, rel=1e-12)

    def test_circular_is_single_component(self):
        beta = 1.7e-4
        b = beta * (self.frame.e1 + 1j * self.frame.e2)
        _, b_plus, b_minus = fc.decompose_polarization(b, self.frame)
        assert b_plus == pytest.approx(beta, rel=1e-12)
        assert b_minus == pytest.approx(0.0, abs=1e-16)

    def test_axial_drives_nothing(self):
        beta = 5e-4
        b = beta * self.frame.axis.astype(complex)
        b_par, b_plus, b_minus = fc.decompose_polarization(b, self.frame)
        assert b_par == pytest.approx(beta, rel=1e-12)
        assert b_plus == pytest.approx(0.0, abs=1e-16)
        assert b_minus == pytest.approx(0.0, abs=1e-16)

    def test_completeness(self):
        # |b.axis|^2 + |u|^2 + |v|^2 == |b|^2 for random phasors
        rng = np.random.default_rng(11)
        for _ in range(300):
            b = random_phasor(rng, 1e-4)
            u = b @ self.frame.e1
            v = b @ self.frame.e2
            w = b @ self.frame.axis
            total = abs(u) ** 2 + abs(v) ** 2 + abs(w) ** 2
            assert total == pytest.approx(np.sum(np.abs(b) ** 2), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            b = random_phasor(rng, 1e-4)
            _, b_plus, b_minus = fc.decompose_polarization(b, self.frame)
            ref_plus, ref_minus = brute_circular(b, self.frame)
            assert b_plus == pytest.approx(ref_plus, rel=1e-12, abs=1e-20)
            assert b_minus == pytest.approx(ref_minus, rel=1e-12, abs=1e-20)

    def test_component_sum_bounds_transverse(self):
        # b_plus + b_minus >= max(|u|, |v|); 2(b+^2 + b-^2) == |u|^2+|v|^2
        rng = np.random.default_rng(13)
        for _ in range(300):
            b = random_phasor(rng)
            u = b @ self.frame.e1
            v = b @ self.frame.e2
            _, b_plus, b_minus = fc.decompose_polarization(b, self.frame)
            assert b_plus + b_minus >= max(abs(u), abs(v)) * (1 - 1e-12)
            assert 2 * (b_plus ** 2 + b_minus ** 2) == pytest.approx(
                abs(u) ** 2 + abs(v) ** 2, rel=1e-12)

    def test_rotation_invariance(self):
        # rotating (e1, e2) about the axis leaves |u -+ iv| unchanged
        rng = np.random.default_rng(14)
        for _ in range(100):
            b = random_phasor(rng)
            ang = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(ang), math.sin(ang)
            e1r = c * self.frame.e1 + s * self.frame.e2
            e2r = -s * self.frame.e1 + c * self.frame.e2
            rotated = fc.NvFrame(axis=self.frame.axis.copy(), e1=e1r, e2=e2r)
            _, p0, m0 = fc.decompose_polarization(b, self.frame)
            _, p1, m1 = fc.decompose_polarization(b, rotated)
            assert p1 == pytest.approx(p0, rel=1e-10, abs=1e-15)
            assert m1 == pytest.approx(m0, rel=1e-10, abs=1e-15)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_flip_swaps_components(self, seed):
        rng = np.random.default_rng(seed)
        b = random_phasor(rng)
        frame = fc.nv_frame_from_tilt(rng.uniform(0, 90), "xz")
        flipped = fc.flip_axis(frame)
        _, p0, m0 = fc.decompose_polarization(b, frame)
        _, p1, m1 = fc.decompose_polarization(b, flipped)
        assert p1 == m0 and m1 == p0

    def test_flip_is_involution(self):
        frame = fc.nv_frame_from_tilt(29.5, "xz")
        twice = fc.flip_axis(fc.flip_axis(frame))
        np.testing.assert_array_equal(twice.axis, frame.axis)
        np.testing.assert_array_equal(twice.e1, frame.e1)
        np.testing.assert_array_equal(twice.e2, frame.e2)


class TestBiasField:
    def test_zero_detuning(self):
        assert fc.bias_field_for_frequency(fc.D_ZFS, "sigma+") == 0.0
        assert fc.bias_field_for_frequency(fc.D_ZFS, "sigma-") == 0.0

    def test_sigma_minus_2p77_ghz(self):
        # (2.87 GHz - 2.77 GHz) / (28 kHz/uT) = 3571.43 uT
        b = fc.bias_field_for_frequency(2.77e9, "sigma-")
        assert b == pytest.approx(3.5714285714285714e-3, rel=1e-12)

    def test_sigma_plus_2p9674_ghz(self):
        # (2.9674 GHz - 2.87 GHz) / (28 kHz/uT) = 3478.57 uT
        b = fc.bias_field_for_frequency(2.9674e9, "sigma+")
        assert b == pytest.approx(3.4785714285714286e-3, rel=1e-10)

    def test_unreachable_names_other_transition(self):
        with pytest.raises(ValueError, match="sigma\\+"):
            fc.bias_field_for_frequency(2.9674e9, "sigma-")
        with pytest.raises(ValueError, match="sigma-"):
            fc.bias_field_for_frequency(2.77e9, "sigma+")

    def test_round_trip(self):
        for f in (2.7e9, 2.85e9, 2.87e9, 2.9e9, 2.9674e9):
            tr = "sigma+" if f >= fc.D_ZFS else "sigma-"
            b = fc.bias_field_for_frequency(f, tr)
            sign = 1.0 if tr == "sigma+" else -1.0
            assert fc.D_ZFS + sign * fc.GAMMA_NV * b == pytest.approx(f, rel=1e-12)


class TestLayerAverage:
    def test_zero_thickness(self):
        layer = fc.SensingLayer(h=12e-6, d=0.0)
        assert fc.layer_average(lambda x, y, z: z * 2.0, layer, 0, 0) == 24e-6

    def test_constant(self):
        layer = fc.SensingLayer(h=12e-6, d=14e-6, n_samples=7)
        assert fc.layer_average(lambda x, y, z: 3.5, layer, 1, 2) == pytest.approx(3.5)

    def test_linear_midpoint_symmetry(self):
        # f(z) = z over h = 12 um, d = 14 um averages to h: the nodes and
        # weights are symmetric about the mid-plane
        layer = fc.SensingLayer(h=12e-6, d=14e-6, n_samples=15)
        avg = fc.layer_average(lambda x, y, z: z, layer, 0, 0)
        assert avg == pytest.approx(12e-6, rel=1e-12)

    def test_heights_span_and_order(self):
        layer = fc.SensingLayer(h=12e-6, d=14e-6, n_samples=8)
        zs = layer.heights()
        assert len(zs) == 8
        assert np.all(np.diff(zs) > 0)
        assert zs[0] > 5e-6 and zs[-1] < 19e-6

    def test_convergence_order(self):
        # Gauss-Legendre with n nodes integrates z^k exactly for k <= 2n - 1
        # and not for k = 2n; on 1/(z + a), analytic across the layer, the
        # error falls geometrically, by rho^2 per node, where rho sums the
        # semi-axes of the largest Bernstein ellipse clear of the pole
        layer_n = lambda n: fc.SensingLayer(h=12e-6, d=14e-6, n_samples=n)
        z0, z1 = 5.0, 19.0  # the layer in microns

        def mean_power(k):
            return (z1 ** (k + 1) - z0 ** (k + 1)) / ((k + 1) * (z1 - z0))

        for n in range(1, 9):
            for k in range(2 * n + 1):
                avg = fc.layer_average(lambda x, y, z: (z * 1e6) ** k,
                                       layer_n(n), 0, 0)
                rel = abs(avg - mean_power(k)) / mean_power(k)
                if k < 2 * n:
                    assert rel < 1e-14, (n, k)
                else:  # 3.4e-11 at n = 8
                    assert rel > 1e-12, (n, k)

        a = 1.0
        exact = math.log((z1 + a) / (z0 + a)) / (z1 - z0)
        t = (12.0 + a) / 7.0  # the pole in units of the half-thickness
        rho2 = (t + math.sqrt(t * t - 1.0)) ** 2
        errs = [abs(fc.layer_average(lambda x, y, z: 1.0 / (z * 1e6 + a),
                                     layer_n(n), 0, 0) - exact)
                for n in range(1, 10)]
        rates = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in rates:
            assert rho2 / 2 < r < 2 * rho2  # within a factor of 2 of rho^2

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            fc.SensingLayer(h=5e-6, d=14e-6)  # extends below device
        with pytest.raises(ValueError):
            fc.SensingLayer(h=12e-6, d=-1e-6)
        with pytest.raises(ValueError):
            fc.SensingLayer(h=12e-6, d=1e-6, n_samples=0)


class TestGaussLegendre:
    @pytest.mark.parametrize("n, nodes, weights", [
        (1, [0.0], [1.0]),
        (2, [-1 / math.sqrt(3), 1 / math.sqrt(3)], [0.5, 0.5]),
        (3, [-math.sqrt(3 / 5), 0.0, math.sqrt(3 / 5)], [5 / 18, 8 / 18, 5 / 18]),
    ])
    def test_closed_forms(self, n, nodes, weights):
        x, w = fc.gauss_legendre(n)
        np.testing.assert_allclose(x, nodes, rtol=1e-15, atol=0)
        np.testing.assert_allclose(w, weights, rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 16, 48])
    def test_ascending_symmetric_and_summing_to_one(self, n):
        x, w = fc.gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0)
        assert -1.0 < x[0] and x[-1] < 1.0
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_layer_maps_the_rule_onto_the_slab(self):
        layer = fc.SensingLayer(h=12e-6, d=14e-6)
        assert layer.n_samples == fc.LAYER_NODES == 7
        x, w = fc.gauss_legendre(7)
        np.testing.assert_allclose(layer.heights(), 12e-6 + 7e-6 * x,
                                   rtol=1e-15)
        assert np.array_equal(layer.weights(), w)
        np.testing.assert_allclose(layer.heights() - 12e-6,
                                   -(layer.heights() - 12e-6)[::-1],
                                   rtol=0, atol=1e-21)

    def test_zero_thickness_is_one_height_of_weight_one(self):
        layer = fc.SensingLayer(h=12e-6, d=0.0, n_samples=9)
        assert layer.heights().tolist() == [12e-6]
        assert layer.weights().tolist() == [1.0]


def test_usable_cpus_counts_the_cpus_this_process_may_run_on(monkeypatch):
    if hasattr(fc.os, "sched_getaffinity"):
        assert fc.usable_cpus() == len(fc.os.sched_getaffinity(0))
    monkeypatch.setattr(fc.os, "sched_getaffinity", lambda pid: {3, 5},
                        raising=False)
    assert fc.usable_cpus() == 2
    # without affinity, os.cpu_count, and 1 when that is unknown
    monkeypatch.delattr(fc.os, "sched_getaffinity")
    monkeypatch.setattr(fc.os, "cpu_count", lambda: 6)
    assert fc.usable_cpus() == 6
    monkeypatch.setattr(fc.os, "cpu_count", lambda: None)
    assert fc.usable_cpus() == 1


# ------------------------------------------------ fork-and-join runner

def shared_ranges(n, workers):
    """run_ranges(n, workers) over a run that marks, per k, how often it
    was covered, the start of its range and the process that ran it;
    returns (the calls made in this process, cover, start, pid)."""
    calls = []
    cover, start, pid = (fc.output_array((n,), np.int64,
                                         max(1, min(workers, n)))
                         for _ in range(3))

    def run(k0, k1):
        calls.append((k0, k1))
        cover[k0:k1] += 1
        start[k0:k1] = k0
        pid[k0:k1] = os.getpid()

    fc.run_ranges(n, workers, run)
    return calls, cover, start, pid


def test_run_ranges_cover_every_k_once_in_uneven_ordered_ranges(forks):
    calls, cover, start, pid = shared_ranges(10, 3)
    assert len(forks) == 2
    # this process runs the first range, a worker each of the others
    assert calls == [(0, 3)]
    assert cover.tolist() == [1] * 10
    assert start.tolist() == [0] * 3 + [3] * 3 + [6] * 4
    assert pid[:3].tolist() == [os.getpid()] * 3
    assert len(set(pid[3:].tolist()) - {os.getpid()}) == 2


def test_run_ranges_with_more_workers_than_cpus(forks):
    # eight workers on a few CPUs: none loses another's writes
    _, cover, start, pid = shared_ranges(1000, 8)
    assert len(forks) == 7
    assert cover.tolist() == [1] * 1000
    assert len(set(start.tolist())) == len(set(pid.tolist())) == 8
    assert start.tolist() == sorted(start.tolist())


@pytest.mark.parametrize("n, workers, calls, n_forks", [
    (2, 5, [(0, 1)], 1), (0, 3, [(0, 0)], 0), (7, 1, [(0, 7)], 0),
    (7, 0, [(0, 7)], 0)])
def test_run_ranges_at_most_one_worker_per_k(forks, n, workers, calls,
                                             n_forks):
    made, cover, _, _ = shared_ranges(n, workers)
    assert made == calls
    assert len(forks) == n_forks
    assert cover.tolist() == [1] * n


def test_run_ranges_raises_the_error_of_its_own_range(forks):
    def run(k0, k1):
        if k0 == 0:
            raise ValueError("first range")

    with pytest.raises(ValueError, match="first range"):
        fc.run_ranges(6, 3, run)
    assert len(forks) == 2


@pytest.mark.parametrize("failure", ["raise", "kill"])
def test_a_failed_worker_fails_run_ranges(forks, failure):
    parent = os.getpid()

    def run(k0, k1):
        if os.getpid() != parent and k0 == 4:
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("worker failure")

    code = -signal.SIGKILL if failure == "kill" else 1
    with pytest.raises(RuntimeError, match=re.escape(
            f"forked workers exited with [0, {code}]")):
        fc.run_ranges(6, 3, run)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_for(monkeypatch, cpus):
    # one per CPU, at most one per grain of work and `most`, at least 1
    cpus(3)
    assert fc.workers_for(100, 10) == 3
    assert fc.workers_for(29, 10) == 2
    assert fc.workers_for(9, 10) == 1
    assert fc.workers_for(0, 10) == 1
    assert fc.workers_for(100, 10, most=2) == 2
    assert fc.workers_for(100, 10, most=0) == 1
    assert fc.workers_for(100, 10, most=None) == 3
    cpus(0)
    assert fc.workers_for(100, 10) == 1
    cpus(3)
    monkeypatch.delattr(fc.os, "fork")
    assert fc.workers_for(100, 10) == 1


def fork_and_cpu_references(tree):
    """The names in tree that reach os.fork or usable_cpus: attributes,
    names, imported names and hasattr/getattr strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.name
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) in ("hasattr", "getattr")):
            yield from (arg.value for arg in node.args
                        if isinstance(arg, ast.Constant))


def test_only_fieldcore_forks_or_reads_the_cpus():
    # every split over CPUs takes its count from fieldcore.workers_for
    # and runs through fieldcore.run_ranges
    package = pathlib.Path(fc.__file__).parent
    users = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = {"fork", "usable_cpus"} & set(fork_and_cpu_references(tree))
        if found:
            users[path.stem] = found
    assert users == {"fieldcore": {"fork", "usable_cpus"}}


def test_output_array_is_shared_only_for_workers(forks):
    serial = fc.output_array((2, 3), np.float32, 1)
    assert serial.base is None and not serial.any()
    shared = fc.output_array((4, 3), np.float32, 2)
    assert shared.shape == (4, 3) and not shared.any()
    fc.run_ranges(4, 2, lambda k0, k1: shared[k0:k1].fill(k0 + 1))
    assert len(forks) == 1
    assert shared[:, 0].tolist() == [1, 1, 3, 3]



# range converters: the range of each, and the type the value takes
RANGES = [(fc.positive, float, [1e-9, 5, 2.5e3], [0, 0.0, -1e-12, -3],
           "positive"),
          (fc.non_negative, float, [0, 0.0, 1e-12, 7], [-1e-12, -5],
           "non-negative"),
          (fc.at_least(1), int, [1, 2, 10 ** 400], [0, -1],
           "an integer >= 1"),
          (fc.at_least(10), int, [10, 25], [9, 0, -10], "an integer >= 10")]


@pytest.mark.parametrize("convert, cast, inside, outside, what", RANGES)
def test_range_converters_pass_their_range_only(convert, cast, inside,
                                                outside, what):
    for value in inside:
        assert convert(value) == value
        assert type(convert(value)) is cast
    for value in outside:
        # the value as the reader holds it, in SI
        with pytest.raises(ValueError, match=re.escape(
                f"must be {what}, got {cast(value)!r}")):
            convert(value)


@pytest.mark.parametrize("convert, message, values", [
    (fc.positive, "must be a number",
     [True, math.nan, math.inf, 10 ** 400, -10 ** 400, "1", None, [1]]),
    (fc.non_negative, "must be a number",
     [False, True, math.nan, 10 ** 400, "0", None]),
    (fc.at_least(1), "must be an integer",
     [True, False, math.nan, 1.0, 2.5, "3", None])])
def test_range_converters_check_the_type_first(convert, message, values):
    # a bool, a NaN or an int beyond float range keeps the type's message
    for value in values:
        with pytest.raises(ValueError, match=f"^{message}, got "):
            convert(value)
