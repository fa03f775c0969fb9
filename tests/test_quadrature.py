import re

import numpy as np
import pytest

from stgreedy import quadrature
from stgreedy.quadrature import (QuadratureError, gauss_interval_rule,
                                 integrate_interval, integrate_domain,
                                 graded_nodes, composite_nodes,
                                 DEFAULT_SIMPLEX_RULE, interval_grid,
                                 square_grid, x_norm)
from stgreedy.meshnd import TriangleMesh, refine_bisection

RULE = gauss_interval_rule()


def test_rule_invariants():
    for n in (4, 10, 16):
        r = gauss_interval_rule(n)
        assert abs(r.weights.sum() - 1.0) < 1e-14
        assert np.all((r.nodes > 0) & (r.nodes < 1))
        for k in range(r.order + 1):
            exact = 1.0 / (k + 1)
            assert abs(np.dot(r.weights, r.nodes ** k) - exact) < 1e-12


def test_integrate_interval_basics():
    assert abs(integrate_interval(lambda t: np.ones_like(t), (0, 1), RULE, 1) - 1.0) < 1e-14
    assert abs(integrate_interval(lambda t: t ** 2, (0, 1), RULE, 1) - 1 / 3) < 1e-12
    with pytest.raises(QuadratureError):
        integrate_interval(lambda t: t, (1, 1), RULE, 1)


def test_singular_integrand_panels():
    # exact value 1/1.25 = 0.8; 64 uniform panels land within 2e-6 (measured
    # 1.5e-6), the graded scheme is exact to roundoff
    v = integrate_interval(lambda t: t ** 0.25, (0, 1), RULE, 64)
    assert abs(v - 0.8) < 2e-6
    ts, ws = graded_nodes(0.0, 1.0)
    assert abs(np.dot(ws, ts ** 0.25) - 0.8) < 1e-12


def test_linearity():
    g = lambda t: t ** 3
    h = lambda t: t ** 2 - 0.5
    lhs = integrate_interval(lambda t: 2.0 * g(t) + 3.0 * h(t), (0, 1), RULE, 2)
    rhs = 2.0 * integrate_interval(g, (0, 1), RULE, 2) + \
        3.0 * integrate_interval(h, (0, 1), RULE, 2)
    assert abs(lhs - rhs) < 1e-12


def test_panel_doubling_consistency():
    g = lambda t: np.sin(3 * t) * np.exp(t)
    v1 = integrate_interval(g, (0, 1), RULE, 4)
    v2 = integrate_interval(g, (0, 1), RULE, 8)
    assert abs(v1 - v2) < 1e-12


def test_simplex_rule_exactness():
    # reference-triangle monomial integrals: int x^a y^b = a! b! / (a+b+2)!
    import math
    r = DEFAULT_SIMPLEX_RULE
    assert abs(r.weights.sum() - 1.0) < 1e-14
    xy = r.barycentric[:, 1:]
    for a in range(7):
        for b in range(7 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            # weights are relative to area 1/2
            approx = 0.5 * np.dot(r.weights, xy[:, 0] ** a * xy[:, 1] ** b)
            assert abs(approx - exact) < 1e-14, (a, b)


def test_integrate_domain_square():
    mesh = TriangleMesh.unit_square()
    mesh = refine_bisection(mesh, range(mesh.size))
    assert abs(integrate_domain(lambda p: np.ones(len(p)), mesh) - 1.0) < 1e-12
    assert abs(integrate_domain(lambda p: p[:, 0], mesh) - 0.5) < 1e-12
    fine = square_grid()            # GRID_DEPTH = 4 levels
    v = np.dot(fine.weights, np.sin(np.pi * fine.points[:, 0]) *
               np.sin(np.pi * fine.points[:, 1]))
    assert abs(v - 4 / np.pi ** 2) < 1e-6


def test_integrate_domain_matches_element_loop():
    # reference: the rule applied element by element, as a loop
    from stgreedy.meshnd import IntervalMesh
    g = lambda p: np.exp(p[:, 0]) * np.cos(3 * p[:, -1])
    rng = np.random.default_rng(5)
    tri, im = TriangleMesh.unit_square(), IntervalMesh()
    for _ in range(6):
        tri = refine_bisection(tri, rng.choice(tri.size, 2, replace=False))
        im = im.refine(rng.choice(im.size, 1))
    want = 0.0
    for verts in tri.element_coords:
        (x0, y0), (x1, y1), (x2, y2) = verts
        area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        pts = DEFAULT_SIMPLEX_RULE.barycentric @ verts
        want += area * np.dot(DEFAULT_SIMPLEX_RULE.weights, g(pts))
    assert integrate_domain(g, tri) == pytest.approx(want, rel=1e-13)
    want = sum(np.dot((b - a) * RULE.weights,
                      g((a + (b - a) * RULE.nodes)[:, None]))
               for a, b in im.element_coords)
    assert integrate_domain(g, im) == pytest.approx(want, rel=1e-13)


def test_x_norm_values():
    grid = interval_grid()
    assert x_norm(lambda p: np.zeros(len(p)), grid) == 0.0
    assert abs(x_norm(lambda p: 2.0 * np.ones(len(p)), grid) - 2.0) < 1e-12
    assert abs(x_norm(lambda p: p[:, 0], grid) - 1 / np.sqrt(3)) < 1e-10


@pytest.mark.parametrize("x0", [-0.5, 1.5, -1e-300, np.nan, np.inf, -np.inf])
def test_interval_grid_rejects_a_point_outside_omega(x0):
    # a grid graded toward x0 = 1.5 lay on [0, 1.5] with weights summing
    # to 1.5; a NaN point ended in "need at least one array to concatenate"
    with pytest.raises(QuadratureError,
                       match=re.escape(f"must lie in [0, 1], got {x0}")):
        interval_grid(singular_at=x0)
    for end in (0.0, 1.0):
        assert abs(interval_grid(singular_at=end).weights.sum() - 1.0) < 1e-15


def test_element_rule_is_the_rule_of_the_fe_elements():
    # one rule per dimension, shared by integrate_domain and the FE layer
    from stgreedy.fem import _reference_element
    for dim, rule in ((1, RULE), (2, DEFAULT_SIMPLEX_RULE)):
        got, ref = quadrature.element_rule(dim)
        assert np.array_equal(got.weights, rule.weights)
        assert ref.shape == (len(rule.weights), dim)
        assert np.array_equal(_reference_element(dim, 2)[0], ref)


def test_x_norm_on_mesh():
    mesh = refine_bisection(TriangleMesh.unit_square(), [0])
    assert abs(x_norm(lambda p: np.ones(len(p)), mesh) - 1.0) < 1e-12
    from stgreedy.meshnd import IntervalMesh
    im = IntervalMesh.unit_interval().refine([0])
    assert abs(x_norm(lambda p: p[:, 0], im) - 1 / np.sqrt(3)) < 1e-12


def test_domain_quadrature_reaches_time_nodes():
    from stgreedy.fields import DomainSpec, FieldError, make_test_field
    from stgreedy.polyspace import as_slicefn
    ts, _ = composite_nodes(0.0, 1.0)
    assert len(ts) == 60
    dom = DomainSpec(quad_points=6, quad_panels=2)
    fn = as_slicefn(make_test_field("tensor-singular", [0.25], dom))
    assert len(fn.quad(0.5, 1.0)[0]) == 12
    assert len(fn.difference(0.1, 2).pullback(0.5, 0.5).quad(0.0, 1.0)[0]) == 12
    # the 1-D spatial grid uses the domain's rule, with its own 48 panels
    assert len(make_test_field("poly", [1, 1], dom).grid.weights) == 48 * 6
    # the defaults are unchanged by any domain built before
    assert len(as_slicefn(make_test_field("poly", [1, 1], DomainSpec()))
               .quad(0.0, 1.0)[0]) == 60
    for bad in ({"quad_points": 1}, {"quad_panels": 0}):
        with pytest.raises(FieldError):
            DomainSpec(**bad)


def test_graded_grid_handles_interior_kink():
    grid = interval_grid(singular_at=0.5)
    assert abs(grid.weights.sum() - 1.0) < 1e-12
    v = np.dot(grid.weights, np.abs(grid.points[:, 0] - 0.5) ** 0.3)
    exact = 2 * 0.5 ** 1.3 / 1.3
    assert abs(v - exact) < 1e-10


def test_graded_nodes_follow_each_fresh_rule():
    # a freed rule's id is reused by the next rule built; the cached graded
    # reference must belong to the rule passed in, not to an earlier one
    rng = np.random.default_rng(0)
    for npoints in rng.integers(2, 15, size=300):
        npoints = int(npoints)
        rule = gauss_interval_rule(npoints)
        ts, ws = graded_nodes(0.0, 1.0, rule=rule, levels=5)
        assert len(ts) == 6 * npoints
        assert np.array_equal(ts[-npoints:], 0.5 + 0.5 * rule.nodes)
        assert abs(ws.sum() - 1.0) < 1e-14
        del rule


def scalar_composite(a, b, rule, panels):
    """The composite rule on one interval, as computed before the rows
    were stacked: one np.linspace of scalar ends."""
    edges = np.linspace(a, b, panels + 1)
    ts = (edges[:-1, None] + np.diff(edges)[:, None] * rule.nodes).ravel()
    ws = (np.diff(edges)[:, None] * rule.weights).ravel()
    return ts, ws


def scalar_graded(a, b, rule, levels=40):
    rts, rws = graded_nodes(0.0, 1.0, rule=rule, levels=levels)
    d = b - a
    return a + d * rts, d * rws


def same_bytes(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("points, panels", [(10, 6), (3, 1), (7, 13)])
def test_stacked_time_nodes_rows_equal_scalar_calls(points, panels):
    rule = gauss_interval_rule(points)
    rng = np.random.default_rng(points)
    a = rng.uniform(-1.0, 1.0, 1000) * 10.0 ** rng.integers(-8, 8, 1000)
    b = a + rng.uniform(0.0, 1.0, 1000) * 10.0 ** rng.integers(-12, 4, 1000)
    a[:3] = [0.0, 1e-322, -1e-320]
    b[:3] = a[:3]
    b = np.where(b > a, b, np.nextafter(a, np.inf))
    assert np.all(b > a)
    assert (panels == 1 or                  # steps that underflow to 0
            np.count_nonzero((b - a) / panels == 0) >= 3)
    ts, ws = composite_nodes(a, b, rule=rule, panels=panels)
    gts, gws = graded_nodes(a, b, rule=rule)
    for i in range(len(a)):
        for got, want in zip((ts[i], ws[i], gts[i], gws[i]),
                             scalar_composite(a[i], b[i], rule, panels)
                             + scalar_graded(a[i], b[i], rule)):
            assert same_bytes(got, want), i
        # a scalar call is the one-row stack
        one = composite_nodes(float(a[i]), float(b[i]), rule=rule,
                              panels=panels)
        assert same_bytes(one[0], ts[i]) and same_bytes(one[1], ws[i])
    with pytest.raises(QuadratureError, match=r"\[2\.0, 2\.0\)"):
        composite_nodes(np.array([0.0, 2.0]), np.array([1.0, 2.0]))


def loop_square_grid(depth, rule=DEFAULT_SIMPLEX_RULE):
    """square_grid as a loop over triangles, one at a time."""
    tris = [np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])]
    for _ in range(depth):
        new = []
        for t in tris:
            m01, m12, m20 = (t[0] + t[1]) / 2, (t[1] + t[2]) / 2, \
                (t[2] + t[0]) / 2
            new += [np.array([t[0], m01, m20]), np.array([m01, t[1], m12]),
                    np.array([m20, m12, t[2]]), np.array([m01, m12, m20])]
        tris = new
    pts, wts = [], []
    for t in tris:
        (x0, y0), (x1, y1), (x2, y2) = t
        area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        pts.append(rule.barycentric @ t)
        wts.append(area * rule.weights)
    return np.vstack(pts), np.concatenate(wts)


@pytest.mark.parametrize("depth", range(6))
def test_square_grid_matches_the_triangle_loop(depth, monkeypatch):
    monkeypatch.setattr(quadrature, "GRID_DEPTH", depth)
    grid = square_grid()
    pts, wts = loop_square_grid(depth)
    assert np.array_equal(grid.points, pts)
    assert np.array_equal(grid.weights, wts)
    assert same_bytes(grid.points, pts) and same_bytes(grid.weights, wts)
