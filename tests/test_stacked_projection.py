"""Property tests: the stacked time projection keeps one-interval bits.

``polyspace.slice_approximants`` (p = 2) projects f on many intervals in
one array pass: stacked time nodes and bases, field samples in blocks of
whole intervals, one stacked matmul.  Over random sets of dyadic cells
and orders r, each stacked (piece, error) must equal its one-interval
call bit for bit (error, coefficient rows, off-grid values), and both
must equal the projection computed from the formulas of one interval
(the per-interval code the stacked pass replaced).  The
fields cover a grid slice in 1-D and 2-D (the moving singularity), a
graded row at t = 0 (tensor-singular) and a separable field on a graded
spatial grid (space-power).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.meshnd import IntervalMesh
from stgreedy.polyspace import as_slicefn, slice_approximant, \
    slice_approximants

SETTINGS = settings(max_examples=40, deadline=None, database=None)
FIELDS = {
    "moving-1d": Field(DomainSpec(n=1),
                       lambda t, x: np.abs(x - 0.25 - 0.5 * t) ** 0.5,
                       name="moving-1d"),
    "tensor-singular": make_test_field("tensor-singular", [0.25],
                                       DomainSpec(n=1)),
    "space-power": make_test_field("space-power", [0.5, 0.3],
                                   DomainSpec(n=1)),
    "moving-2d": Field(DomainSpec(n=2),
                       lambda t, x, y: np.hypot(x - 0.3 - 0.4 * t,
                                                y - 0.5) ** 0.5,
                       name="moving-2d"),
}
POINTS = {1: np.array([[0.0], [0.137], [0.25], [0.5001], [0.9]]),
          2: np.array([[0.1, 0.2], [0.3, 0.5], [0.77, 0.41]])}
cells = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 63)).map(
    lambda c: (c[0], c[1] % 2 ** c[0])), min_size=1, max_size=6, unique=True)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scalar_projection(fn, interval, r):
    """(G, error) from the formulas of one interval: G = W^T diag(ws) C,
    and the error by orthogonality, or from the residual near 0."""
    a, b = interval
    d = b - a
    ts, ws = fn.quad(a, b)
    w_mat = np.polynomial.legendre.legvander(
        2.0 * (ts - a) / d - 1.0, r - 1) * np.sqrt((2 * np.arange(r) + 1) / d)
    coef = fn.coef(ts)
    g = w_mat.T @ (ws[:, None] * coef)

    def sq_sum(c, weights=None):
        if fn.separable:
            sq = c[:, 0] ** 2
            scale = fn.profile.norm(2) ** 2
        else:
            sq, scale = c ** 2 @ fn.grid.weights, 1.0
        return float(np.sum(sq) if weights is None else
                     np.dot(weights, sq)) * scale

    total = sq_sum(coef, ws)
    rad = total - sq_sum(g)
    if rad > 1e-12 * max(1.0, total):
        return g, math.sqrt(rad)
    return g, math.sqrt(max(sq_sum(coef - w_mat @ g, ws), 0.0))


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.integers(1, 4), cells)
def test_stacked_pieces_equal_one_interval_calls(name, r, cells):
    f = FIELDS[name]
    fn = as_slicefn(f)
    mesh = IntervalMesh(T=f.domain.T)
    intervals = [mesh.interval(c) for c in cells]
    stacked = slice_approximants(f, intervals, r, 2)
    assert len(stacked) == len(intervals)
    # the stacked node rows are the scalar quad calls
    a, b = np.array(intervals).T
    seen = []
    for rows, ts, ws in fn.quad_groups(a, b):
        for j, i in enumerate(rows):
            want = fn.quad(*intervals[i])
            assert same_bytes(ts[j], want[0]) and same_bytes(ws[j], want[1])
            seen.append(i)
    assert sorted(seen) == list(range(len(intervals)))
    points = POINTS[f.domain.n]
    for interval, (piece, err) in zip(intervals, stacked):
        one, one_err = slice_approximant(f, interval, r, 2)
        assert same_bytes(err, one_err)
        assert piece.interval == one.interval == interval
        g, scalar_err = scalar_projection(fn, interval, r)
        assert same_bytes(err, scalar_err)
        for j, (got, want) in enumerate(zip(piece.coeffs, one.coeffs)):
            assert same_bytes(got.vals, want.vals)
            assert got.mu == want.mu
            row = g[j, 0] * got.profile.vals if f.separable else g[j]
            assert same_bytes(got.vals, row)
            assert same_bytes(got.at_points(points), want.at_points(points))
