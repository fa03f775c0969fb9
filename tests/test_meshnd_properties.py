"""Property tests on random bisection meshes, 1-D and 2-D.

Every mesh is conforming, and no two of its vertices share a
coordinate; a 1-D mesh keeps its cells in position order and gains one
cell per mark.  The overlay must be the smallest common
refinement of its inputs, and it must not depend on their order or on
repeating an input.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from stgreedy.meshnd import initial_mesh, overlay, refine_bisection

SETTINGS = settings(max_examples=60, deadline=None, database=None)


def random_refinement(draw, n):
    mesh = initial_mesh(n)
    for _ in range(draw(st.integers(0, 6))):
        picks = draw(st.lists(st.integers(0, 10 ** 6), min_size=1,
                              max_size=4))
        mesh = refine_bisection(mesh, sorted({p % mesh.size for p in picks}))
    return mesh


@st.composite
def meshes(draw):
    return random_refinement(draw, draw(st.sampled_from([1, 2])))


@st.composite
def interval_marks(draw):
    mesh = random_refinement(draw, 1)
    return mesh, draw(st.sets(st.integers(0, mesh.size - 1)))


@st.composite
def mesh_pairs(draw):
    n = draw(st.sampled_from([1, 2]))
    return random_refinement(draw, n), random_refinement(draw, n)


def leaves(mesh):
    """Each element as its (gen, index) cell in the bisection tree."""
    return set(mesh.cells)


def inside_one_leaf(leaf, mesh_leaves):
    """Exactly one of the cell and its ancestors (g - k, i >> k) is a leaf."""
    g, i = leaf
    return sum((g - k, i >> k) in mesh_leaves for k in range(g + 1)) == 1


@SETTINGS
@given(mesh_pairs())
def test_overlay_is_smallest_common_refinement(pair):
    m1, m2 = pair
    ov = overlay(m1, m2)
    l1, l2, lo = leaves(m1), leaves(m2), leaves(ov)
    assert len(lo) == ov.size
    # every overlay element lies in exactly one element of each input ...
    assert all(inside_one_leaf(leaf, l1) and inside_one_leaf(leaf, l2)
               for leaf in lo)
    # ... and is an element of one of them, so no coarser refinement exists
    assert lo <= l1 | l2
    assert abs(ov.areas().sum() - 1.0) < 1e-12
    assert ov.is_conforming()


@SETTINGS
@given(mesh_pairs())
def test_overlay_is_commutative_and_idempotent(pair):
    m1, m2 = pair
    ov = overlay(m1, m2)
    assert overlay(m2, m1).key == ov.key
    assert leaves(overlay(m1, m1)) == leaves(m1)
    assert overlay(ov, m2).key == ov.key
    assert overlay(m1, ov).key == ov.key


@SETTINGS
@given(meshes())
def test_random_refinement_is_conforming(mesh):
    assert mesh.is_conforming()


def vertex_coords(mesh):
    if mesh.dim == 1:
        return mesh.breakpoints[:, None]
    return mesh.vertices


@SETTINGS
@given(mesh_pairs())
def test_vertices_have_distinct_coordinates_and_are_used(pair):
    # a midpoint looked up by its edge's vertex ids is numbered as a
    # lookup by coordinates would number it only if no two vertex ids
    # share a coordinate, and no unused vertex sits inside an edge
    for mesh in (*pair, overlay(*pair), overlay(pair[1], pair[0])):
        xy = vertex_coords(mesh)
        assert len(set(map(tuple, xy.tolist()))) == len(xy)
        if mesh.dim == 2:
            assert np.array_equal(np.unique(mesh.elements),
                                  np.arange(len(xy)))


@SETTINGS
@given(interval_marks())
def test_interval_mesh_order_breakpoints_and_growth(args):
    mesh, marked = args
    coords = mesh.element_coords
    lefts = [mesh.interval(c)[0] for c in mesh.cells]
    assert lefts == sorted(lefts)
    bps = mesh.breakpoints
    assert bps.tolist() == coords[:, 0].tolist() + [coords[-1, 1]]
    assert np.array_equal(bps[1:], coords[:, 1])
    assert np.all(np.diff(bps) > 0)
    assert mesh.refine(marked).size == mesh.size + len(marked)
