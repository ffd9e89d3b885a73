"""Quasi-static magnetic near fields of current models.

Straight segments are evaluated with the analytic finite-segment
Biot-Savart expression; grids of pixels are averaged over the sensing
layer thickness by Gauss-Legendre quadrature and projected onto the NV
circular components. The evaluation order is fixed (segments in model
order inside each layer height, weighted heights bottom to top) so
repeated runs are bit-identical regardless of parallelism and of the
kernel's block size.
"""

from dataclasses import dataclass

import numpy as np

from nvscope.fieldcore import SIGMA_PLUS, _as_vec3, check_component
from nvscope.kernels import field_accumulate

# Points closer than this to a filament axis are rejected: the filament
# model is meaningless there and the 1/rho blowup would poison averages.
R_MIN = 1e-7


class SegmentProximityError(ValueError):
    """A field point fell within the exclusion radius of a segment."""

    def __init__(self, segment_index, point, pixel=None, height=None):
        self.segment_index = segment_index
        self.point = point
        self.pixel = pixel
        self.height = height
        where = f"point ({point[0]:.3e}, {point[1]:.3e}, {point[2]:.3e}) m"
        if pixel is not None:
            where = f"pixel {pixel} at layer height {height:.3e} m, " + where
        super().__init__(
            f"{where} is within the exclusion radius of segment "
            f"{segment_index}")


@dataclass
class GridSpec:
    """Pixel-centered planar grid.

    Pixel (i, j) sits at origin + (i+0.5) pitch axes[0]
    + (j+0.5) pitch axes[1]; i runs 0..nx-1 and is the row index of the
    value arrays.
    """

    origin: np.ndarray
    axes: tuple
    nx: int
    ny: int
    pitch: float

    def __post_init__(self):
        self.origin = _as_vec3(self.origin, "origin")
        a0 = _as_vec3(self.axes[0], "axes[0]")
        a1 = _as_vec3(self.axes[1], "axes[1]")
        if (abs(np.dot(a0, a0) - 1) > 1e-12 or abs(np.dot(a1, a1) - 1) > 1e-12
                or abs(np.dot(a0, a1)) > 1e-12):
            raise ValueError("grid axes must be orthonormal")
        self.axes = (a0, a1)
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 1:
                raise ValueError(f"{name} must be at least 1, got {n!r}")
        if self.pitch <= 0:
            raise ValueError("pitch must be positive")

    @property
    def normal(self):
        return np.cross(self.axes[0], self.axes[1])

    def pixel_center(self, i, j):
        return (self.origin + (i + 0.5) * self.pitch * self.axes[0]
                + (j + 0.5) * self.pitch * self.axes[1])

    def pixel_centers(self):
        """All pixel centers, shape (nx*ny, 3), row-major (i outer)."""
        i = np.arange(self.nx)
        j = np.arange(self.ny)
        u = (i[:, None, None] + 0.5) * self.pitch * self.axes[0]
        v = (j[None, :, None] + 0.5) * self.pitch * self.axes[1]
        return (self.origin + u + v).reshape(-1, 3)


@dataclass
class FieldPhasorMap:
    """Complex vector field phasor on a grid, teslas."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.nx, self.grid.ny, 3):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny}, 3)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("phasor map contains non-finite values")


@dataclass
class PolarizedFieldMap:
    """Scalar field amplitude map for one polarization component."""

    grid: GridSpec
    component: str
    values: np.ndarray

    def __post_init__(self):
        check_component(self.component)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field map contains non-finite values")
        if np.any(self.values < 0):
            raise ValueError("polarized amplitudes must be non-negative")


def evaluate_at_points(model, points):
    """Summed segment fields at arbitrary points, shape (n, 3) complex."""
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    out_re, out_im, hit = field_accumulate(model.starts, model.ends,
                                           model.currents, points, R_MIN)
    if hit is not None:
        _, seg, p = hit
        raise SegmentProximityError(seg, points[p])
    return out_re + 1j * out_im


def evaluate_phasor_map(model, grid, layer):
    """Layer-averaged field phasor map of a current model.

    The layer's quadrature heights offset the pixel plane along the grid
    normal; the complex field is averaged over them with the layer's
    weights (average first, project to magnitudes later, so nulls are
    not washed out).

    All heights go through one kernel call, which splits a large map's
    pixels into ranges over forked workers (kernels.field_workers).
    Each pixel sums its segments from zero at each height and adds
    those per-height sums, each times its height's weight, in ascending
    height order, so the map does not depend on the kernel's block size
    or worker count. The kernel names the first point within R_MIN of a
    wire as (height, segment, pixel), in that order, which the raised
    error reports.
    """
    base = grid.pixel_centers()
    heights = layer.heights()
    offsets = heights[:, None] * grid.normal
    acc_re, acc_im, hit = field_accumulate(model.starts, model.ends,
                                           model.currents, base, R_MIN,
                                           offsets=offsets,
                                           weights=layer.weights())
    if hit is not None:
        h, seg, p = hit
        raise SegmentProximityError(seg, base[p] + offsets[h],
                                    pixel=divmod(p, grid.ny),
                                    height=heights[h])
    values = acc_re + 1j * acc_im
    return FieldPhasorMap(grid=grid, values=values.reshape(grid.nx, grid.ny, 3))


def project_polarization(fmap, frame, component):
    """Per-pixel polarization amplitude of a phasor map."""
    check_component(component)
    vals = fmap.values
    u = vals @ frame.e1.astype(complex)
    v = vals @ frame.e2.astype(complex)
    if component == SIGMA_PLUS:
        out = np.abs(u - 1j * v) / 2.0
    else:
        out = np.abs(u + 1j * v) / 2.0
    return PolarizedFieldMap(grid=fmap.grid, component=component, values=out)
