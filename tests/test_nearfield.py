"""Biot-Savart evaluation against independent numerical integration."""

import hashlib
import math

import numpy as np
import pytest

from nvscope import currents as cur
from nvscope import fieldcore as fc
from nvscope import kernels
from nvscope import nearfield as nf

MU0_4PI = 1e-7


def gauss_line_integral(start, end, current, point, nodes=128):
    """Brute-force Biot-Savart line integration (Gauss-Legendre).

    Independent of the analytic segment formula; used as the module
    oracle.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (x + 1.0)  # map to [0, 1]
    d = np.asarray(end, float) - np.asarray(start, float)
    ell = np.asarray(start, float) + t[:, None] * d
    r = np.asarray(point, float) - ell
    rn = np.linalg.norm(r, axis=1)
    integrand = np.cross(np.broadcast_to(d, r.shape), r) / rn[:, None] ** 3
    integral = 0.5 * np.sum(w[:, None] * integrand, axis=0)
    return MU0_4PI * current * integral


def segment(start, end, current):
    """A one-segment current model."""
    return cur.CurrentModel([start], [end], [current])


def field_at(model, point):
    """The field kernel at one point."""
    return nf.evaluate_at_points(model, np.asarray(point, float)[None, :])[0]


def square_loop(a, current):
    """Square of side 2a about the origin in the z = 0 plane, run
    counter-clockwise from (a, a)."""
    c = np.array([[a, a, 0.0], [-a, a, 0.0], [-a, -a, 0.0], [a, -a, 0.0]])
    return cur.CurrentModel(c, np.roll(c, -1, axis=0), np.full(4, current))


def random_pair(rng):
    """One-segment model and point, the point well away from the axis."""
    start = rng.uniform(-1, 1, 3) * 1e-3
    end = start + rng.uniform(-1, 1, 3) * 1e-3
    length = np.linalg.norm(end - start)
    while True:
        point = rng.uniform(-2, 2, 3) * 1e-3
        d = (end - start) / length
        rho = np.linalg.norm(np.cross(point - start, d))
        if rho > 0.3 * length:
            return segment(start, end, complex(rng.normal(), rng.normal())), point


class TestSegmentField:
    def test_matches_brute_force_integration(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            seg, p = random_pair(rng)
            b = field_at(seg, p)
            start, end, current = seg.starts[0], seg.ends[0], seg.currents[0]
            ref64 = gauss_line_integral(start, end, current, p, 64)
            ref = gauss_line_integral(start, end, current, p, 128)
            # oracle self-consistency, then the comparison proper
            assert np.max(np.abs(ref - ref64)) <= 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(b - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_infinite_wire_limit(self):
        # L/r = 100 reproduces mu0 I/(2 pi r) to 0.1%
        current, r = 0.05, 12e-6
        L = 100 * r
        b = field_at(segment([0, -L / 2, 0], [0, L / 2, 0], current),
                     [r, 0.0, 0.0])
        expect = fc.MU0 * current / (2 * math.pi * r)
        assert expect == pytest.approx(8.333333333333333e-4, rel=1e-12)
        assert abs(b[2]) == pytest.approx(expect, rel=1e-3)
        assert abs(abs(b[2]) / expect - 1) < 1e-3

    def test_square_loop_center(self):
        # closed form sqrt(2) mu0 I / (pi a) for a square of side 2a
        a, current = 3e-4, 0.02
        total = field_at(square_loop(a, current), np.zeros(3))
        expect = math.sqrt(2) * fc.MU0 * current / (math.pi * a)
        assert abs(total[2]) == pytest.approx(expect, rel=1e-12)

    def test_zero_current(self):
        b = field_at(segment([0, 0, 0], [1e-3, 0, 0], 0.0), [0.0, 1e-4, 0.0])
        np.testing.assert_array_equal(b, np.zeros(3, complex))

    def test_proximity_error(self):
        seg = segment([0, 0, 0], [1e-3, 0, 0], 0.05)
        with pytest.raises(nf.SegmentProximityError) as err:
            field_at(seg, [5e-4, 1e-9, 0.0])
        assert err.value.segment_index == 0

    def test_complex_current_linearity(self):
        p = np.array([2e-4, 5e-5, 1e-5])
        b1 = field_at(segment([0, 0, 0], [1e-3, 0, 0], 1.0), p)
        b2 = field_at(segment([0, 0, 0], [1e-3, 0, 0], 0.3 + 0.4j), p)
        np.testing.assert_allclose(b2, (0.3 + 0.4j) * b1, rtol=1e-14)


def simple_grid(nx=8, ny=6, pitch=5e-6, origin=(0, 0, 0)):
    return nf.GridSpec(origin=np.asarray(origin, float),
                       axes=(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
                       nx=nx, ny=ny, pitch=pitch)


class TestGridSpec:
    def test_pixel_centers_layout(self):
        g = simple_grid(nx=3, ny=2, pitch=2e-6, origin=(1e-6, 0, 0))
        pts = g.pixel_centers().reshape(3, 2, 3)
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(pts[i, j], g.pixel_center(i, j))
        np.testing.assert_allclose(g.pixel_center(0, 0), [2e-6, 1e-6, 0])

    def test_normal(self):
        g = simple_grid()
        np.testing.assert_allclose(g.normal, [0, 0, 1])

    def test_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            nf.GridSpec(origin=np.zeros(3),
                        axes=(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])),
                        nx=2, ny=2, pitch=1e-6)
        with pytest.raises(ValueError):
            nf.GridSpec(origin=np.zeros(3),
                        axes=(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
                        nx=0, ny=2, pitch=1e-6)


class TestEvaluatePhasorMap:
    def wire(self, current=0.05):
        # long wire along y under the grid plane
        return cur.CurrentModel(np.array([[0.0, -0.5, 0.0]]),
                                np.array([[0.0, 0.5, 0.0]]),
                                np.array([complex(current)]))

    def test_empty_model_zero_map(self):
        empty = cur.CurrentModel(np.zeros((0, 3)), np.zeros((0, 3)),
                                 np.zeros(0, complex))
        layer = fc.SensingLayer(h=12e-6, d=0.0)
        fmap = nf.evaluate_phasor_map(empty, simple_grid(), layer)
        np.testing.assert_array_equal(fmap.values, 0)

    def test_scaling_linearity_exact(self):
        layer = fc.SensingLayer(h=12e-6, d=14e-6, n_samples=5)
        m = self.wire()
        f1 = nf.evaluate_phasor_map(m, simple_grid(), layer)
        doubled = cur.CurrentModel(m.starts, m.ends, 2.0 * m.currents)
        f2 = nf.evaluate_phasor_map(doubled, simple_grid(), layer)
        np.testing.assert_array_equal(f2.values, 2.0 * f1.values)

    def test_long_wire_profile(self):
        # d=0 row profile matches mu0 I/(2 pi r) per pixel to 0.1%
        current = 0.05
        grid = simple_grid(nx=12, ny=4, pitch=4e-6, origin=(6e-6, -8e-6, 0))
        layer = fc.SensingLayer(h=12e-6, d=0.0)
        fmap = nf.evaluate_phasor_map(self.wire(current), grid, layer)
        for i in range(grid.nx):
            for j in range(grid.ny):
                p = grid.pixel_center(i, j) + 12e-6 * grid.normal
                r = math.hypot(p[0], p[2])
                expect = fc.MU0 * current / (2 * math.pi * r)
                mag = np.linalg.norm(np.abs(fmap.values[i, j]))
                assert mag == pytest.approx(expect, rel=1e-3)

    def test_superposition(self):
        layer = fc.SensingLayer(h=10e-6, d=0.0)
        grid = simple_grid()
        a = self.wire(0.03)
        b = cur.CurrentModel(np.array([[1e-4, -0.5, 0.0]]),
                             np.array([[1e-4, 0.5, 0.0]]),
                             np.array([0.01 + 0.02j]))
        fa = nf.evaluate_phasor_map(a, grid, layer).values
        fb = nf.evaluate_phasor_map(b, grid, layer).values
        fab = nf.evaluate_phasor_map(cur.superpose([a, b]), grid, layer).values
        np.testing.assert_allclose(fab, fa + fb, rtol=1e-12, atol=1e-20)

    def test_translation_covariance(self):
        layer = fc.SensingLayer(h=10e-6, d=4e-6, n_samples=3)
        shift = np.array([3e-4, -2e-4, 5e-5])
        m = self.wire()
        g0 = simple_grid()
        g1 = nf.GridSpec(origin=g0.origin + shift, axes=g0.axes,
                         nx=g0.nx, ny=g0.ny, pitch=g0.pitch)
        f0 = nf.evaluate_phasor_map(m, g0, layer).values
        moved = cur.CurrentModel(m.starts + shift, m.ends + shift, m.currents)
        f1 = nf.evaluate_phasor_map(moved, g1, layer).values
        np.testing.assert_allclose(f1, f0, rtol=1e-12)

    def test_real_currents_have_zero_imag(self):
        layer = fc.SensingLayer(h=10e-6, d=14e-6, n_samples=4)
        fmap = nf.evaluate_phasor_map(self.wire(0.05), simple_grid(), layer)
        assert np.all(fmap.values.imag == 0.0)

    def test_layer_average_equals_manual_mean(self):
        layer = fc.SensingLayer(h=12e-6, d=14e-6, n_samples=5)
        grid = simple_grid()
        m = self.wire()
        fmap = nf.evaluate_phasor_map(m, grid, layer)
        # the weighted sum over the layer's heights, in ascending order
        acc = np.zeros((grid.nx, grid.ny, 3), complex)
        for z, w in zip(layer.heights(), layer.weights()):
            g = nf.GridSpec(origin=grid.origin + z * grid.normal,
                            axes=grid.axes, nx=grid.nx, ny=grid.ny,
                            pitch=grid.pitch)
            acc += w * nf.evaluate_phasor_map(m, g, fc.SensingLayer(h=0.0, d=0.0)).values
        np.testing.assert_array_equal(fmap.values, acc)

    def test_zero_thickness_map_bits_are_pinned(self):
        # two concentric square loops with opposing currents, imaged in the
        # XZ plane through their axis as trap-fig4-xz images its rings; a
        # one-height layer has weight 1, which leaves every bit of the map
        m = cur.superpose([square_loop(100e-6, 0.05),
                           square_loop(200e-6, -0.05)])
        grid = nf.GridSpec(origin=np.array([-250e-6, 0.0, 8e-6]),
                           axes=(np.array([1.0, 0, 0]), np.array([0, 0, 1.0])),
                           nx=13, ny=9, pitch=40e-6)
        values = nf.evaluate_phasor_map(m, grid,
                                        fc.SensingLayer(h=0.0, d=0.0)).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "182860ac03254a30073e5c8cbf62f389b7aa29ab0d66a7a4df4999a732575f58")

    def test_divergence_free(self):
        # square loop; stencil points kept a loop-size away from the wire
        # so finite-difference truncation stays far below the bound
        m = square_loop(2e-4, 0.05)
        rng = np.random.default_rng(33)
        h = 1e-7
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            p = direction * rng.uniform(4.5e-4, 8e-4)
            div = 0.0
            for k in range(3):
                dp = np.zeros(3)
                dp[k] = h
                bp = nf.evaluate_at_points(m, (p + dp)[None, :])[0]
                bm = nf.evaluate_at_points(m, (p - dp)[None, :])[0]
                div += (bp[k].real - bm[k].real) / (2 * h)
            bmag = np.linalg.norm(np.abs(nf.evaluate_at_points(m, p[None, :])[0]))
            assert abs(div) < 1e-6 * bmag / h

    def test_proximity_error_names_pixel(self):
        grid = simple_grid(nx=4, ny=4, pitch=5e-6)
        # wire along y through the centers of the whole i=2 pixel row at
        # the layer height; the first row pixel in scan order is flagged
        target = grid.pixel_center(2, 1) + 8e-6 * grid.normal
        m = cur.CurrentModel(
            np.array([[target[0], target[1] - 1e-3, target[2]]]),
            np.array([[target[0], target[1] + 1e-3, target[2]]]),
            np.array([0.05 + 0j]))
        with pytest.raises(nf.SegmentProximityError) as err:
            nf.evaluate_phasor_map(m, grid, fc.SensingLayer(h=8e-6, d=0.0))
        assert err.value.pixel == (2, 0)
        assert err.value.segment_index == 0

    @pytest.mark.parametrize("block", [1, 7, 31, 10 ** 6])
    def test_proximity_error_is_first_in_height_segment_pixel_order(
            self, monkeypatch, block):
        monkeypatch.setattr(kernels, "BLOCK", block)
        grid = simple_grid(nx=6, ny=5, pitch=5e-6)
        layer = fc.SensingLayer(h=10e-6, d=4e-6, n_samples=4)
        base = grid.pixel_centers()
        heights = layer.heights()

        def through(i, j, k, direction):
            # in-plane segment whose axis hits pixel (i, j) at height k
            c = base[i * grid.ny + j] + heights[k] * grid.normal
            v = 40e-6 * np.asarray(direction) / np.linalg.norm(direction)
            return c - v, c + v

        # segment 0: pixel (0, 1) at height 2, a lower segment later in
        # the block of the answer; segment 1: pixel (5, 3) at height 1,
        # the answer; segment 2: pixel (0, 2) at height 1, an earlier
        # block than the answer's with 7 pairs per block
        ends = [through(0, 1, 2, (1.0, 0.37, 0.0)),
                through(5, 3, 1, (0.29, 1.0, 0.0)),
                through(0, 2, 1, (1.0, -0.41, 0.0)),
                (np.array([0.0, 0.0, -1e-4]), np.array([1e-4, 0.0, -1e-4]))]
        m = cur.CurrentModel(np.array([e[0] for e in ends]),
                             np.array([e[1] for e in ends]),
                             np.full(len(ends), 0.05 + 0.01j))

        # oracle: the parent loop order, with the axis distance taken from
        # a cross product
        def first_violation():
            for k, z in enumerate(heights):
                pts = base + z * grid.normal
                for s in range(len(ends)):
                    d = m.ends[s] - m.starts[s]
                    rho = (np.linalg.norm(np.cross(pts - m.starts[s], d), axis=1)
                           / np.linalg.norm(d))
                    hits = np.flatnonzero(rho < nf.R_MIN)
                    if hits.size:
                        return k, s, int(hits[0])

        k, s, p = first_violation()
        assert (k, s, p) == (1, 1, 5 * grid.ny + 3)
        with pytest.raises(nf.SegmentProximityError) as err:
            nf.evaluate_phasor_map(m, grid, layer)
        assert err.value.segment_index == s
        assert err.value.pixel == (5, 3)
        assert err.value.height == heights[k]
        assert np.array_equal(err.value.point, base[p] + heights[k] * grid.normal)

    def test_map_bits_do_not_depend_on_block_size(self, monkeypatch):
        rng = np.random.default_rng(5)
        grid = simple_grid(nx=7, ny=5, pitch=4e-6)
        layer = fc.SensingLayer(h=9e-6, d=6e-6, n_samples=5)
        starts = rng.uniform(-30e-6, 60e-6, (6, 3))
        starts[:, 2] = 0.0
        m = cur.CurrentModel(starts, starts + rng.uniform(-40e-6, 40e-6, (6, 3))
                             * [1, 1, 0], rng.normal(size=6) + 1j * rng.normal(size=6))
        calls = []
        kernel = nf.field_accumulate
        monkeypatch.setattr(nf, "field_accumulate",
                            lambda *a, **kw: calls.append(1) or kernel(*a, **kw))
        ref = nf.evaluate_phasor_map(m, grid, layer).values.tobytes()
        assert len(calls) == 1
        n_pairs = grid.nx * grid.ny * len(layer.heights())
        for block in (1, 2, 3, 7, 11, 37, n_pairs, n_pairs + 1, 10 ** 6):
            monkeypatch.setattr(kernels, "BLOCK", block)
            assert nf.evaluate_phasor_map(m, grid, layer).values.tobytes() == ref

        # the stacked points through evaluate_at_points, weighted and
        # summed height by height from zero, give the same map
        base = grid.pixel_centers()
        heights = layer.heights()
        stacked = np.concatenate([base + z * grid.normal for z in heights])
        per_point = nf.evaluate_at_points(m, stacked)
        acc_re = np.zeros(base.shape)
        acc_im = np.zeros(base.shape)
        for k, w in enumerate(layer.weights()):
            acc_re += w * per_point[k * len(base):(k + 1) * len(base)].real
            acc_im += w * per_point[k * len(base):(k + 1) * len(base)].imag
        values = acc_re + 1j * acc_im
        assert values.reshape(grid.nx, grid.ny, 3).tobytes() == ref


class TestProjectPolarization:
    def setup_method(self):
        self.frame = fc.nv_frame_from_tilt(29.5, "xz")
        self.grid = simple_grid(nx=5, ny=4)

    def uniform_map(self, b):
        vals = np.broadcast_to(np.asarray(b, complex),
                               (self.grid.nx, self.grid.ny, 3)).copy()
        return nf.FieldPhasorMap(grid=self.grid, values=vals)

    def test_linear_transverse_splits(self):
        beta = 2e-4
        fmap = self.uniform_map(beta * self.frame.e1)
        plus = nf.project_polarization(fmap, self.frame, "sigma+")
        minus = nf.project_polarization(fmap, self.frame, "sigma-")
        np.testing.assert_allclose(plus.values, beta / 2, rtol=1e-12)
        np.testing.assert_allclose(minus.values, beta / 2, rtol=1e-12)

    def test_axial_only(self):
        fmap = self.uniform_map(1e-4 * self.frame.axis)
        plus = nf.project_polarization(fmap, self.frame, "sigma+")
        np.testing.assert_allclose(plus.values, 0.0, atol=1e-18)

    def test_flip_swaps_maps_exactly(self):
        rng = np.random.default_rng(34)
        vals = rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))
        fmap = nf.FieldPhasorMap(grid=self.grid, values=vals * 1e-4)
        flipped = fc.flip_axis(self.frame)
        plus = nf.project_polarization(fmap, self.frame, "sigma+")
        minus_flipped = nf.project_polarization(fmap, flipped, "sigma-")
        np.testing.assert_array_equal(plus.values, minus_flipped.values)

    def test_matches_scalar_decomposition(self):
        rng = np.random.default_rng(35)
        vals = (rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))) * 1e-4
        fmap = nf.FieldPhasorMap(grid=self.grid, values=vals)
        plus = nf.project_polarization(fmap, self.frame, "sigma+")
        for i in range(5):
            for j in range(4):
                _, bp, _ = fc.decompose_polarization(vals[i, j], self.frame)
                assert plus.values[i, j] == pytest.approx(bp, rel=1e-12)


class TestStripConvergence:
    def test_filament_count_converged(self):
        # field a strip-width above the strip moves < 0.5% from 32 to 64
        # filaments, judged against a 1024-filament reference
        w, current = 120e-6, 0.05

        def field_at(n):
            m = cur.model_from_spec({"kind": "strip", "params": {
                "centerline": [(0, -6e-3, 0), (0, 6e-3, 0)], "width": w,
                "current": current, "profile": "uniform", "n_filaments": n}})
            b = nf.evaluate_at_points(m, np.array([[10e-6, 0.0, w]]))[0]
            return np.linalg.norm(np.abs(b))

        ref = field_at(1024)
        d32 = abs(field_at(32) - ref) / ref
        d64 = abs(field_at(64) - ref) / ref
        assert abs(field_at(32) - field_at(64)) / ref < 5e-3
        assert d64 <= d32
