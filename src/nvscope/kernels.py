"""Biot-Savart accumulation kernel for straight current segments.

Segments are accumulated in array order with a fixed parenthesization,
so repeated runs on the same inputs are bit-identical.
"""

import numpy as np


def field_accumulate(starts, ends, cur_re, cur_im, points, r_min,
                     out_re, out_im):
    """Accumulate finite-segment fields into out_re/out_im (teslas).

    Returns -1 on success, or the flat index s * n_points + p of the
    first point p closer than r_min to the axis of segment s (output
    buffers are then partially written and must be discarded).
    """
    P = points.shape[0]
    px = points[:, 0]
    py = points[:, 1]
    pz = points[:, 2]
    rmin2 = r_min * r_min
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(starts.shape[0]):
            sx, sy, sz = starts[s, 0], starts[s, 1], starts[s, 2]
            ex, ey, ez = ends[s, 0], ends[s, 1], ends[s, 2]
            gx = ex - sx
            gy = ey - sy
            gz = ez - sz
            L2 = (gx * gx + gy * gy) + gz * gz
            dx = gx / L2
            dy = gy / L2
            dz = gz / L2
            cr = cur_re[s]
            ci = cur_im[s]
            a1x = px - sx
            a1y = py - sy
            a1z = pz - sz
            a2x = px - ex
            a2y = py - ey
            a2z = pz - ez
            fx = a1y * dz - a1z * dy
            fy = a1z * dx - a1x * dz
            fz = a1x * dy - a1y * dx
            s2 = (fx * fx + fy * fy) + fz * fz
            rho2 = s2 * L2
            bad = rho2 < rmin2
            if bad.any():
                return s * P + int(np.argmax(bad))
            n1 = np.sqrt((a1x * a1x + a1y * a1y) + a1z * a1z)
            n2 = np.sqrt((a2x * a2x + a2y * a2y) + a2z * a2z)
            sf = ((dx * a2x + dy * a2y) + dz * a2z) / n2 \
                - ((dx * a1x + dy * a1y) + dz * a1z) / n1
            k = 1e-7 * (sf / s2)
            t = fx * k
            out_re[:, 0] += t * cr
            out_im[:, 0] += t * ci
            t = fy * k
            out_re[:, 1] += t * cr
            out_im[:, 1] += t * ci
            t = fz * k
            out_re[:, 2] += t * cr
            out_im[:, 2] += t * ci
    return -1


# Always False: only the benchmark run metadata (perfbench/run.py) reads it.
USING_EXTENSION = False
