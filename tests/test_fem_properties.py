"""Property tests: the array-built FE spaces against per-element loops.

The reference functions below are the element-by-element formulas the
spaces are defined by; the vectorized build must match them bitwise.
In 1-D the mass matrix and the load vectors are built from their band;
they must have the bytes of the COO assembly and of ``np.add.at``.
A ``greedy_space`` cache shared by several runs must not change them,
and neither may running the greedies in lockstep with ``greedy_spaces``,
whose rounds do each mesh group's FE work as stacked array passes: each
member must get the bytes of a loop of single-function calls.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from stgreedy.fem import (FemError, FemSpace, GreedySpaceCapError,
                          _project_stack, element_indicators, fem_project,
                          greedy_space, greedy_spaces)
from stgreedy.meshnd import (IntervalMesh, TriangleMesh, initial_mesh,
                             refine_bisection)
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


@st.composite
def interval_meshes(draw):
    mesh = IntervalMesh.unit_interval()
    for _ in range(draw(st.integers(0, 8))):
        picks = draw(st.lists(st.integers(0, 10 ** 6), min_size=1,
                              max_size=8))
        mesh = refine_bisection(mesh, sorted({p % mesh.size for p in picks}))
    return mesh


def reference_mass(space):
    """The COO assembly of the element mass matrices, summed by tocsr."""
    Bq, qw, L = space._Bq, space._qw, space.r2
    mref = Bq.T @ (qw[:, None] * Bq)
    rows = np.repeat(space.eldofs, L, axis=1).ravel()
    cols = np.tile(space.eldofs, (1, L)).ravel()
    vals = (space.measures()[:, None, None] * mref[None, :, :]).ravel()
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(space.ndof, space.ndof)).tocsr()


def reference_load(space, g):
    pts = space.quad_points()
    E, Q, n = pts.shape
    gv = g(pts.reshape(-1, n)).reshape(E, Q)
    weights = space._qw[:, None] * space._Bq
    local = space.measures()[:, None] * (gv @ weights)
    b = np.zeros(space.ndof)
    np.add.at(b, space.eldofs, local)
    return b


def zero_then_kink(p):
    """Signed zeros left of 0.4, a kink and a sign change right of it."""
    x = p[:, 0]
    return np.where(x < 0.4, -0.0, np.abs(x - 0.7) ** 0.3 - 0.5)


def cos_power(p):
    return np.cos(3.0 * p[:, 0]) + p[:, 0] ** 0.6


@SETTINGS
@given(interval_meshes(), orders, st.sampled_from([cos_power, zero_then_kink]))
def test_1d_band_assembly_matches_coo_and_add_at(mesh, r2, g):
    space = FemSpace(mesh, r2)
    M, ref = space.mass_matrix(), reference_mass(space)
    for name in ("data", "indices", "indptr"):
        assert_bitwise(getattr(M, name), getattr(ref, name))
    b = reference_load(space, g)
    assert_bitwise(space.load_vector(g)[0], b)
    fem = fem_project(g, mesh, r2)
    assert_bitwise(fem.dofs, spla.spsolve(ref, b))


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


def single_run(g, r2, delta, n):
    """One greedy run as the loop of single-function calls that the
    stacked rounds of ``greedy_spaces`` replace."""
    mesh, history = initial_mesh(n), []
    while True:
        fem = fem_project(g, mesh, r2)
        eta, _ = element_indicators(g, mesh, r2, fem=fem)
        err = float(np.sqrt((eta ** 2).sum()))
        history.append((mesh.size, err))
        if err <= delta:
            return mesh, fem, history
        marked = np.nonzero(eta > delta / np.sqrt(mesh.size))[0]
        if len(marked) == 0:
            marked = np.array([int(np.argmax(eta))])
        mesh = refine_bisection(mesh, marked)


def hex_history(history):
    return [(size, err.hex()) for size, err in history]


@settings(max_examples=15, deadline=None, database=None)
@given(st.sampled_from([1, 2]), st.sampled_from([2, 3]),
       st.lists(st.tuples(kinks(), st.lists(st.floats(0.01, 0.05),
                                            min_size=1, max_size=3)),
                min_size=1, max_size=3))
def test_stacked_rounds_match_a_loop_of_single_runs(n, r2, runs):
    # one function with several deltas shares its meshes until the
    # largest delta is met, then the runs split up; other functions
    # split off after round 0
    jobs = [(g, delta) for g, deltas in runs for delta in deltas]
    gs, deltas = zip(*jobs)
    batched = greedy_spaces(gs, r2, deltas, n=n)
    for (g, delta), (mesh, fem, hist) in zip(jobs, batched):
        ref_mesh, ref_fem, ref_hist = single_run(g, r2, delta, n)
        assert mesh.key == ref_mesh.key
        assert fem.dofs.tobytes() == ref_fem.dofs.tobytes()
        assert hex_history(hist) == hex_history(ref_hist)


@SETTINGS
@given(bisection_meshes(), orders, st.lists(kinks(), min_size=1, max_size=4))
def test_stacked_loads_and_indicators_match_single_functions(mesh, r2, gs):
    space = FemSpace(mesh, r2)
    values = space.quad_values(gs)
    B = space.load_vectors(values)
    _, X, errors = _project_stack(space, gs)
    assert errors == [None] * len(gs)
    eta = space.indicators(X.T, values)
    for col, g in enumerate(gs):
        # the one-function formulas, with np.add.at for the load
        assert_bitwise(B[:, col], reference_load(space, g))
        fem = fem_project(g, mesh, r2, space=space)
        assert_bitwise(X[:, col], fem.dofs)
        gv = g(space.quad_points().reshape(-1, mesh.dim)).reshape(
            values.shape[1:])
        diff = gv - fem.dofs[space.eldofs] @ space._Bq.T
        eta2 = space.measures() * ((diff ** 2) @ space._qw)
        assert_bitwise(eta[col], np.sqrt(np.maximum(eta2, 0.0)))


def one_nan_value(p):
    v = np.cos(3.0 * p[:, 0])
    v[5] = np.nan
    return v


def inf_beyond_half(p):
    return np.where(p[:, 0] > 0.5, np.inf, np.cos(3.0 * p[:, 0]))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [one_nan_value, inf_beyond_half])
def test_a_non_finite_member_leaves_its_group_alone(n, bad):
    mesh = initial_mesh(n).refine([0])
    space = FemSpace(mesh, 3)
    good = [smooth_kink, np.cos if n == 1 else lambda p: np.cos(p[:, 1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, X, errors = _project_stack(space, [good[0], bad, good[1]])
        assert isinstance(errors[1], FemError)
        ok = [0, 2]
        eta = space.indicators(X.T[ok], values[ok])
        for row, (col, g) in enumerate(zip(ok, good)):
            ref_eta, fem = element_indicators(g, mesh, 3)
            assert_bitwise(X[:, col], fem.dofs)
            assert_bitwise(eta[row], ref_eta)
        # in the greedy, the bad member's error is raised after the good
        # members before it ran to their end, and nothing warns
        with pytest.raises(FemError, match="not finite"):
            greedy_spaces([good[0], good[1], bad], 2, [0.05, 0.05, 0.05],
                          n=n)


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
