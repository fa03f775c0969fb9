"""Property tests: the array-built FE spaces against per-element loops.

The reference functions below are the element-by-element formulas the
spaces are defined by; the vectorized build must match them bitwise.
A ``greedy_space`` cache shared by several runs must not change them,
and neither may running the greedies in lockstep with ``greedy_spaces``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgreedy.fem import (FemSpace, GreedySpaceCapError, element_indicators,
                          greedy_space, greedy_spaces)
from stgreedy.meshnd import IntervalMesh, TriangleMesh, refine_bisection
from stgreedy.quadrature import DEFAULT_SIMPLEX_RULE, gauss_interval_rule

SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def bisection_meshes(draw):
    dim = draw(st.sampled_from([1, 2]))
    mesh = IntervalMesh.unit_interval() if dim == 1 else \
        TriangleMesh.unit_square()
    for _ in range(draw(st.integers(0, 6))):
        picks = draw(st.lists(st.integers(0, 10 ** 6), min_size=1,
                              max_size=4))
        mesh = refine_bisection(mesh, sorted({p % mesh.size for p in picks}))
    return mesh


orders = st.sampled_from([2, 3, 4])


def element_vertex_list(mesh):
    if mesh.dim == 1:
        return [mesh.interval(c) for c in mesh.cells]
    return [mesh.vertices[list(e)] for e in mesh.elements.tolist()]


def map_points(verts, ref):
    if len(verts) == 2:
        a, b = verts
        return (a + (b - a) * np.asarray(ref)).reshape(-1, 1)
    v0, v1, v2 = np.asarray(verts)
    return v0 + np.outer(ref[:, 0], v1 - v0) + np.outer(ref[:, 1], v2 - v0)


def edge_key(v0, v1, step, d):
    if v0 <= v1:
        return ("e", v0, v1, step, d)
    return ("e", v1, v0, d - step, d)


def reference_dofs(mesh, r2):
    """(eldofs, ndof, dof_points) numbered element by element."""
    key_to_dof, eldofs, coords = {}, [], []

    def dof(key, pt):
        if key not in key_to_dof:
            key_to_dof[key] = len(key_to_dof)
            coords.append(pt)
        return key_to_dof[key]

    d = r2 - 1
    if mesh.dim == 1:
        ref = np.linspace(0.0, 1.0, r2).reshape(-1, 1)
        for e, verts in enumerate(element_vertex_list(mesh)):
            row = []
            for i, pt in enumerate(map_points(verts, ref)):
                key = (("v", float(verts[0])) if i == 0 else
                       ("v", float(verts[1])) if i == d else ("i", e, i))
                row.append(dof(key, pt))
            eldofs.append(row)
    else:
        lattice = [(i, j) for j in range(d + 1) for i in range(d + 1 - j)]
        ref = np.array([(i / d, j / d) for i, j in lattice])
        for e, (elem, verts) in enumerate(zip(mesh.elements.tolist(),
                                              element_vertex_list(mesh))):
            va, vb, vc = elem
            row = []
            for (i, j), pt in zip(lattice, map_points(verts, ref)):
                k = d - i - j
                if (i, j) == (0, 0):
                    key = ("v", va)
                elif (i, j) == (d, 0):
                    key = ("v", vb)
                elif (i, j) == (0, d):
                    key = ("v", vc)
                elif j == 0:
                    key = edge_key(va, vb, i, d)
                elif i == 0:
                    key = edge_key(va, vc, j, d)
                elif k == 0:
                    key = edge_key(vb, vc, j, d)
                else:
                    key = ("i", e, i, j)
                row.append(dof(key, pt))
            eldofs.append(row)
    return np.array(eldofs, dtype=int), len(key_to_dof), np.array(coords)


def reference_areas(mesh):
    out = []
    for verts in element_vertex_list(mesh):
        if mesh.dim == 1:
            a, b = verts
            out.append(b - a)
        else:
            (x0, y0), (x1, y1), (x2, y2) = verts
            out.append(0.5 * abs((x1 - x0) * (y2 - y0)
                                 - (x2 - x0) * (y1 - y0)))
    return np.array(out)


def reference_quad_points(mesh):
    ref = (gauss_interval_rule().nodes.reshape(-1, 1) if mesh.dim == 1
           else DEFAULT_SIMPLEX_RULE.barycentric[:, 1:])
    return np.stack([map_points(v, ref) for v in element_vertex_list(mesh)])


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@SETTINGS
@given(bisection_meshes(), orders)
def test_dofs_match_per_element_numbering(mesh, r2):
    space = FemSpace(mesh, r2)
    eldofs, ndof, dof_points = reference_dofs(mesh, r2)
    assert space.ndof == ndof
    assert_bitwise(space.eldofs, eldofs)
    assert_bitwise(space.dof_points, dof_points)


@SETTINGS
@given(bisection_meshes(), orders)
def test_geometry_matches_per_element_formulas(mesh, r2):
    space = FemSpace(mesh, r2)
    assert_bitwise(mesh.areas(), reference_areas(mesh))
    assert_bitwise(space.measures(), reference_areas(mesh))
    assert_bitwise(space.quad_points(), reference_quad_points(mesh))


def smooth_kink(p):
    r = np.sqrt(((p - 0.3) ** 2).sum(axis=1))
    return r ** 0.6 + np.cos(2.0 * p[:, 0])


@SETTINGS
@given(bisection_meshes(), orders)
def test_indicator_squares_sum_to_projection_error(mesh, r2):
    eta, fem = element_indicators(smooth_kink, mesh, r2)
    # the quadrature-discrete projection is orthogonal, so the squared
    # error is ||g||^2 - ||P g||^2, computed here element by element
    if mesh.dim == 1:
        rule_w = gauss_interval_rule().weights
    else:
        rule_w = DEFAULT_SIMPLEX_RULE.weights
    g_sq = sum(area * rule_w @ smooth_kink(pts) ** 2 for area, pts in
               zip(reference_areas(mesh), reference_quad_points(mesh)))
    err_sq = g_sq - fem.norm() ** 2
    assert abs((eta ** 2).sum() - err_sq) <= 1e-10 * g_sq


@st.composite
def kinks(draw):
    """A smooth function with a point singularity at a random place."""
    x0 = draw(st.floats(0.05, 0.95))
    y0 = draw(st.floats(0.05, 0.95))
    beta = draw(st.sampled_from([0.3, 0.6, 1.5]))

    def g(p):
        r2 = (p[:, 0] - x0) ** 2
        if p.shape[1] == 2:
            r2 = r2 + (p[:, 1] - y0) ** 2
        return np.sqrt(r2) ** beta + np.cos(2.0 * p[:, 0])
    return g


@settings(max_examples=15, deadline=None, database=None)
@given(st.sampled_from([1, 2]), st.sampled_from([2, 3]),
       st.lists(st.tuples(kinks(), st.sampled_from([0.05, 0.02, 0.01])),
                min_size=2, max_size=4))
def test_shared_greedy_space_cache_matches_fresh_runs(n, r2, runs):
    cache = {}
    for g, delta in runs:
        mesh, fem, hist = greedy_space(g, r2, delta, n=n, cache=cache)
        ref_mesh, ref_fem, ref_hist = greedy_space(g, r2, delta, n=n)
        assert mesh.key == ref_mesh.key
        assert fem.dofs.tobytes() == ref_fem.dofs.tobytes()
        assert_bitwise(fem.space.eldofs, ref_fem.space.eldofs)
        assert hist == ref_hist


@settings(max_examples=15, deadline=None, database=None)
@given(st.sampled_from([1, 2]), st.sampled_from([2, 3]),
       st.lists(st.tuples(kinks(), st.floats(0.01, 0.05)), min_size=1,
                max_size=4))
def test_greedy_spaces_match_single_runs(n, r2, runs):
    # every run starts on the initial mesh, so round 0 solves for all of
    # them at once
    gs, deltas = zip(*runs)
    batched = greedy_spaces(gs, r2, deltas, n=n, cache={})
    assert len(batched) == len(runs)
    for g, delta, (mesh, fem, hist) in zip(gs, deltas, batched):
        ref_mesh, ref_fem, ref_hist = greedy_space(g, r2, delta, n=n)
        assert mesh.key == ref_mesh.key
        assert hist == ref_hist
        assert fem.dofs.tobytes() == ref_fem.dofs.tobytes()


def noise(p):
    """Pseudo-random values in [0, 1): no mesh resolves them, and the
    marks fall on a scattered subset of elements in each round."""
    return np.modf(np.abs(np.sin(p[:, 0] * 12.9898) * 43758.5453))[0]


def kink03(p):
    return np.abs(p[:, 0] - 0.3) ** 0.3


def single_failure(g, delta):
    """The cap error of one greedy run alone, and its number of rounds."""
    calls = []

    def counted(p):
        calls.append(len(p))        # one evaluation per round
        return g(p)

    with pytest.raises(GreedySpaceCapError) as info:
        greedy_space(counted, 2, delta, n=1, max_gen=6)
    return info.value, len(calls)


def test_greedy_spaces_raise_the_first_functions_error():
    noise_err, noise_rounds = single_failure(noise, 0.2)
    kink_err, kink_rounds = single_failure(kink03, 1e-6)
    # the kink deepens its cell every round; the noise does not
    assert kink_rounds < noise_rounds
    for gs, deltas, want in (([noise, kink03], [0.2, 1e-6], noise_err),
                             ([kink03, noise], [1e-6, 0.2], kink_err)):
        with pytest.raises(GreedySpaceCapError) as info:
            greedy_spaces(gs, 2, deltas, n=1, max_gen=6)
        assert str(info.value) == str(want)
        assert info.value.offenders == want.offenders
