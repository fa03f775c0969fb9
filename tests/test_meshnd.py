import json
from pathlib import Path

import numpy as np
import pytest

from stgreedy.meshnd import (IntervalMesh, MeshndError, TriangleMesh,
                             initial_mesh, overlay, refine_bisection)

GOLDEN = Path(__file__).parent / "golden"


def random_mesh(seed, steps, n=2, marks=2):
    rng = np.random.default_rng(seed)
    mesh = initial_mesh(n)
    for _ in range(steps):
        k = min(marks, mesh.size)
        mesh = refine_bisection(mesh, rng.choice(mesh.size, size=k,
                                                 replace=False))
    return mesh


def test_refine_noop():
    mesh = TriangleMesh.unit_square()
    out = refine_bisection(mesh, [])
    assert out.size == mesh.size
    assert out.is_conforming()


def test_golden_single_mark_closure():
    # both initial triangles share the diagonal refinement edge, so one
    # mark splits both: four triangles around the center vertex
    mesh = refine_bisection(TriangleMesh.unit_square(), [0])
    got = json.loads(mesh.to_json())
    want = json.loads((GOLDEN / "closure_one_mark.json").read_text())
    assert got == want


def test_unknown_element_id():
    mesh = TriangleMesh.unit_square()
    with pytest.raises(MeshndError):
        refine_bisection(mesh, [99])


@pytest.mark.parametrize("mesh", [TriangleMesh.unit_square(),
                                  IntervalMesh.unit_interval()])
def test_both_mesh_types_check_their_marks(mesh):
    for bad in (-1, mesh.size):
        with pytest.raises(MeshndError, match=f"unknown element id {bad}$"):
            mesh.refine([0, bad])


def test_interval_mesh_matches_1d_semantics():
    mesh = IntervalMesh.unit_interval()
    m1 = refine_bisection(mesh, [0])
    assert m1.element_coords.tolist() == [[0.0, 0.5], [0.5, 1.0]]
    m2 = refine_bisection(m1, [0, 1])
    assert m2.size == 4 and m2.is_conforming()


def test_hanging_node_is_not_conforming():
    # triangle 0 of the unit square bisected alone: its midpoint (0.5, 0.5)
    # hangs on the diagonal edge of triangle 1
    mesh = TriangleMesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                         (0.5, 0.5)],
                        [(1, 2, 4), (0, 1, 4), (0, 2, 3)],
                        [(1, 0), (1, 1), (0, 1)])
    assert not mesh.is_conforming()
    assert refine_bisection(TriangleMesh.unit_square(), [0]).is_conforming()


def test_overlapping_intervals_are_not_conforming():
    assert not IntervalMesh([(1, 0), (0, 0)]).is_conforming()
    assert IntervalMesh([(1, 1), (1, 0)]).is_conforming()


def test_conformity_and_area_through_random_refinement():
    rng = np.random.default_rng(11)
    mesh = TriangleMesh.unit_square()
    for step in range(15):
        k = rng.integers(1, 4)
        mesh = refine_bisection(mesh, rng.choice(mesh.size, size=k,
                                                 replace=False))
        assert mesh.is_conforming(), step
        assert abs(mesh.areas().sum() - 1.0) < 1e-12


def test_complexity_bound_no_growth_trend():
    # C_k = (#T_k - #T_0) / sum marks must not trend upward; measured from
    # the stationary regime (12 warm-up steps) so the startup transient of
    # the amortized bound does not masquerade as growth
    rng = np.random.default_rng(23)
    mesh = TriangleMesh.unit_square()
    for _ in range(12):
        mesh = refine_bisection(
            mesh, rng.choice(mesh.size, size=min(10, mesh.size), replace=False))
    base = mesh.size
    consts, total_marked = [], 0
    for _ in range(20):
        marked = rng.choice(mesh.size, size=10, replace=False)
        total_marked += len(marked)
        mesh = refine_bisection(mesh, marked)
        consts.append((mesh.size - base) / total_marked)
    first5, last5 = np.mean(consts[:5]), np.mean(consts[-5:])
    assert last5 <= 1.2 * first5


def test_overlay_identities():
    mesh = random_mesh(2, 6)
    assert_same_elements(overlay(mesh, mesh), mesh)
    assert_same_elements(overlay(mesh, TriangleMesh.unit_square()), mesh)
    assert_same_elements(overlay(TriangleMesh.unit_square(), mesh), mesh)


def assert_same_elements(a, b):
    assert sorted(a.cells) == sorted(b.cells)


def test_overlay_bound_commutative_associative():
    for seed in range(12):
        m1 = random_mesh(seed, 5)
        m2 = random_mesh(100 + seed, 5)
        ov = overlay(m1, m2)
        assert ov.size <= m1.size + m2.size - 2
        assert ov.is_conforming()
        assert_same_elements(ov, overlay(m2, m1))
        m3 = random_mesh(200 + seed, 4)
        assert_same_elements(overlay(overlay(m1, m2), m3),
                             overlay(m1, overlay(m2, m3)))


def test_overlay_interval_meshes():
    m1 = random_mesh(3, 5, n=1)
    m2 = random_mesh(31, 5, n=1)
    ov = overlay(m1, m2)
    assert ov.size <= m1.size + m2.size - 1
    assert ov.is_conforming()
    pts = set(np.round(m1.element_coords[:, 0], 12)) | \
        set(np.round(m2.element_coords[:, 0], 12))
    opts = set(np.round(ov.element_coords[:, 0], 12))
    assert pts == opts


def test_overlay_incompatible():
    with pytest.raises(MeshndError):
        overlay(TriangleMesh.unit_square(), IntervalMesh.unit_interval())


def test_serialization_schema():
    mesh = random_mesh(7, 3)
    data = json.loads(mesh.to_json())
    assert set(data) == {"vertices", "elements"}
    for el in data["elements"]:
        assert set(el) == {"v", "refedge", "gen"}
        assert len(el["v"]) == 3
    im = random_mesh(7, 3, n=1)
    data = json.loads(im.to_json())
    assert set(data) == {"vertices", "elements"}
