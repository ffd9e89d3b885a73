"""Proximity reporting of the field accumulation kernel."""

import numpy as np

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
