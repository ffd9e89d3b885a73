"""Biot-Savart accumulation kernel for straight current segments.

One call evaluates a set of points at one or more weighted offsets (the
layer quadrature heights of a map). A call splits its points into
field_workers contiguous ranges through fieldcore.run_ranges, one
worker per SPLIT_PAIRS (segment, point, offset) pairs at most: this
process evaluates the first range and forked workers the others. Each
range's stacked (offset, point) pairs are walked in fixed blocks of
BLOCK pairs; inside a block the segments run in array order. A block's
coordinates, field sums and intermediates are contiguous scratch rows,
reused from block to block through ufunc ``out=``; the x, y and z rows
of a vector are computed in one ufunc call against a per-segment
column.

Accumulation order, which makes every block size give the same bits:
each (offset, point) pair sums its segments from 0.0 in array order,
with the same operations in the same parenthesization for every
element; that per-offset sum is then multiplied by the offset's weight,
in place, and added into the point's output in offset order. A block
only decides which elements share a ufunc call, never the order in
which any one element is summed. A range, like a block, only decides
where a point is summed, so the split gives the serial call's bits.
"""

import numpy as np

from nvscope.fieldcore import output_array, run_ranges, workers_for

# Stacked (offset, point) pairs per block, chosen by timing the bundled
# maps on a 2-vCPU Xeon (2 MB L2 per core): 6144-10000 ran fastest, 4096
# and 32768 were 10-60% slower, and 16384 was no faster but raised the
# peak memory of a cpw-fig2 map by 2 MB.
BLOCK = 8192

# (segment, point, offset) pairs per kernel worker, at least
# (field_workers). Timed on a 2-vCPU Xeon with 80 MB resident, as in a
# forward-map run: forking and reaping cost about 5 ms, the split was
# slower up to 200 k pairs and faster from 400 k (22.6 -> 17.9 ms), and
# 1.6 M pairs took 63 ms serial, 50 ms split; at this grain two workers
# split a call from 1 M pairs.
SPLIT_PAIRS = 500_000

# The x y z x y row order lets a1 x d be two products of shifted rows.
_XYZXY = [0, 1, 2, 0, 1]


def _segment_constants(starts, ends, currents):
    """Per segment: the start as a (5, 1) x y z x y column; the end,
    d = (end - start) / L2, and d rolled to z x y and to y z x as (3, 1)
    columns; L2 = |end - start|^2; the current's real and imaginary
    parts."""
    g = ends - starts
    L2 = (g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]) + g[:, 2] * g[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = g / L2[:, None]
    cols = np.concatenate([starts[:, _XYZXY], ends, d, d[:, [2, 0, 1]],
                           d[:, [1, 2, 0]]], axis=1)[:, :, None]
    return [(c[0:5], c[5:8], c[8:11], c[11:14], c[14:17], l2, cr, ci)
            for c, l2, cr, ci in zip(cols, L2.tolist(),
                                     currents.real.tolist(),
                                     currents.imag.tolist())]


def _axis_distance(seg, p5, a1, f, t3, s2, rho2):
    """a1 = p - start (x y z x y rows), f = a1 x d, s2 = (fx^2 + fy^2)
    + fz^2, and rho2 = s2 L2, the squared distance to the axis."""
    s5, _, _, d_zxy, d_yzx, L2 = seg[:6]
    np.subtract(p5, s5, out=a1)
    # f = (a1y dz - a1z dy, a1z dx - a1x dz, a1x dy - a1y dx)
    np.multiply(a1[1:4], d_zxy, out=f)
    np.multiply(a1[2:5], d_yzx, out=t3)
    np.subtract(f, t3, out=f)
    _sum3(f, f, t3, s2)
    np.multiply(s2, L2, out=rho2)


def _sum3(v, w, t3, out):
    """out = (v0 w0 + v1 w1) + v2 w2 for (3, m) v and w (or a column)."""
    np.multiply(v, w, out=t3)
    np.add(t3[0], t3[1], out=out)
    np.add(out, t3[2], out=out)


def _place(points, offsets, k0, k1, p5):
    """Write the coordinates of stacked pairs k0..k1-1 into p5's rows.

    Returns (offset index, first point, end point, first column) for
    each offset the range covers, in offset order.
    """
    n = points.shape[0]
    pieces = []
    k = k0
    while k < k1:
        h, p0 = divmod(k, n)
        p1 = min(n, p0 + k1 - k)
        col = k - k0
        xyz = p5[:3, col:col + p1 - p0]
        np.add(points[p0:p1].T, offsets[h, :, None], out=xyz)
        p5[3:, col:col + p1 - p0] = xyz[:2]
        pieces.append((h, p0, p1, col))
        k += p1 - p0
    return pieces


def _first_violation(segs, points, offsets, rmin2):
    """(offset h, segment s, point p) of the first pair closer than
    r_min, in that order: an exact rescan for the error path."""
    n = points.shape[0]
    rows = np.empty((17, n))
    p5, a1, f, t3 = rows[0:5], rows[5:10], rows[10:13], rows[13:16]
    s2 = rows[16]
    rho2 = np.empty(n)
    for h in range(offsets.shape[0]):
        _place(points, offsets, h * n, (h + 1) * n, p5)
        for s, seg in enumerate(segs):
            _axis_distance(seg, p5, a1, f, t3, s2, rho2)
            bad = rho2 < rmin2
            if bad.any():
                return h, s, int(np.argmax(bad))


def field_workers(pairs, points):
    """The processes that evaluate a kernel call of `pairs` (segment,
    point, offset) pairs over `points` points (fieldcore.workers_for):
    at most one per SPLIT_PAIRS pairs and one per point."""
    return workers_for(pairs, SPLIT_PAIRS, points)


def field_accumulate(starts, ends, currents, points, r_min, offsets=None,
                     weights=None):
    """Summed finite-segment fields of complex currents (teslas).

    points is (P, 3). The field is evaluated at points + offsets[h] for
    each row h of the (H, 3) offsets (one zero offset by default), and
    each point's per-offset sums, times weights[h] (1 by default), are
    added up in offset order. A weight of 1 leaves every bit. Adding a
    zero offset changes at most the sign of a zero coordinate, which no
    output bit depends on: that sign reaches only zero products and
    sums, and every divisor is a norm or a sum of squares.

    With field_workers above 1 the points are split into that many
    contiguous ranges, each evaluated by the block loop of a serial
    call: the first by this process, the others by forked workers that
    write their rows into shared memory. Every point sums as in the
    serial call, so the bits are the same on any number of CPUs. A range
    that finds a pair closer than r_min raises a shared flag, and the
    call then names the first such pair by rescanning all points, as
    the serial call does.

    Returns (out_re, out_im, None), the (P, 3) real and imaginary parts
    of the summed field, or (None, None, (h, s, p)) for the first pair,
    in (offset h, segment s, point p) order, with point p + offsets[h]
    closer than r_min to the axis of segment s.
    """
    if offsets is None:
        offsets = np.zeros((1, 3))
    weights = ([1.0] * offsets.shape[0] if weights is None
               else [float(w) for w in weights])
    n = points.shape[0]
    segs = _segment_constants(starts, ends, currents)
    rmin2 = r_min * r_min
    workers = field_workers(len(segs) * n * offsets.shape[0], n)
    out = output_array((2, n, 3), np.float64, workers)
    violated = output_array((1,), np.bool_, workers)

    def run(p0, p1):
        if _accumulate(segs, points[p0:p1], offsets, weights, rmin2,
                       out[:, p0:p1]):
            violated[0] = True

    run_ranges(n, workers, run)
    if violated[0]:
        return None, None, _first_violation(segs, points, offsets, rmin2)
    return out[0], out[1], None


def _accumulate(segs, points, offsets, weights, rmin2, out):
    """Add the weighted fields at the points into out[0] (real) and
    out[1] (imaginary), block by block; returns False, or True when a
    pair lies closer than r_min, leaving out partly summed."""
    n = points.shape[0]
    total = n * offsets.shape[0]
    # Eight arrays rather than one: chunks of at most five rows fit the
    # holes the rest of a run leaves in the heap, where one 30-row block
    # raised the peak memory of some forward-map runs by 4-5 MB.
    width = min(BLOCK, total)
    scratch = [np.empty((rows, width)) for rows in (5, 3, 3, 5, 3, 3, 3, 5)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k0 in range(0, total, BLOCK):
            k1 = min(total, k0 + BLOCK)
            # coordinates x y z x y; field sums; a1 = p - start as
            # x y z x y; a2 = p - end; f = a1 x d; 3-row temporary; rows
            p5, acc_re, acc_im, a1, a2, f, t3, rows = (
                w[:, :k1 - k0] for w in scratch)
            s2, rho2, n1, n2, low = rows
            pieces = _place(points, offsets, k0, k1, p5)
            acc_re[:] = 0.0
            acc_im[:] = 0.0
            low[:] = np.inf
            for seg in segs:
                _, e3, d3, _, _, _, cr, ci = seg
                _axis_distance(seg, p5, a1, f, t3, s2, rho2)
                # fmin skips NaN as `rho2 < rmin2` does
                np.fmin(low, rho2, out=low)
                np.subtract(p5[:3], e3, out=a2)
                _sum3(a1[:3], a1[:3], t3, n1)
                np.sqrt(n1, out=n1)
                _sum3(a2, a2, t3, n2)
                np.sqrt(n2, out=n2)
                # k = 1e-7 ((d . a2) / n2 - (d . a1) / n1) / s2 into rho2
                _sum3(d3, a2, t3, rho2)
                np.divide(rho2, n2, out=rho2)
                _sum3(d3, a1[:3], t3, n2)
                np.divide(n2, n1, out=n2)
                np.subtract(rho2, n2, out=rho2)
                np.divide(rho2, s2, out=rho2)
                np.multiply(rho2, 1e-7, out=rho2)
                # acc += (f k) cr, (f k) ci
                np.multiply(f, rho2, out=t3)
                np.multiply(t3, cr, out=a2)
                np.add(acc_re, a2, out=acc_re)
                np.multiply(t3, ci, out=a2)
                np.add(acc_im, a2, out=acc_im)
            if (low < rmin2).any():
                return True
            for h, p0, p1, col in pieces:
                for acc, dst in ((acc_re, out[0]), (acc_im, out[1])):
                    dst = dst[p0:p1].T
                    src = acc[:, col:col + p1 - p0]
                    np.multiply(src, weights[h], out=src)
                    np.add(dst, src, out=dst)
    return False


# Always False: only the benchmark run metadata (perfbench/run.py) reads it.
USING_EXTENSION = False
