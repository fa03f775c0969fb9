"""Computations that only tests read, built from the library's pieces.

The library keeps what a library path, CLI mode, demo or bench reads;
what the tests need beyond that lives here.
"""

import json

import numpy as np

from stgreedy.fem import _lagrange_basis_1d, _lagrange_basis_2d
from stgreedy.fields import DomainSpec, make_test_field
from stgreedy.quadrature import map_to_elements


def standard_corpus(domain=None):
    """The five-family test corpus used by the acceptance experiments."""
    domain = domain or DomainSpec()
    return [
        make_test_field("constant", [3.0], domain),
        make_test_field("poly", [2, 1], domain),
        make_test_field("time-power", [0.25], domain),
        make_test_field("space-power", [0.3] + [0.5] * domain.n, domain),
        make_test_field("tensor-singular", [0.25], domain),
    ]


def mesh_to_json(mesh):
    """The vertices and elements of an interval or triangle mesh as the
    JSON of the golden files: each element's vertex ids and generation
    (and, for triangles, its refinement edge, always the first)."""
    if mesh.dim == 1:
        return json.dumps({
            "vertices": [[float(p)] for p in mesh.breakpoints],
            "elements": [{"v": [i, i + 1], "gen": lvl}
                         for i, lvl in enumerate(mesh.levels)],
        })
    return json.dumps({
        "vertices": mesh.vertices.tolist(),
        "elements": [{"v": v, "refedge": 0, "gen": g}
                     for v, (g, _) in zip(mesh.elements.tolist(),
                                          mesh.cells)],
    })


def lagrange_element(space):
    """(nodes, basis) of the space's reference element: the Lagrange
    nodes (L, n) and the basis at (P, n) reference points as (P, L)."""
    return (_lagrange_basis_1d if space.mesh.dim == 1
            else _lagrange_basis_2d)(space.r2)


def dof_points(space):
    """The coordinates of the dofs, (ndof, n): each dof's Lagrange node in
    the element of its first appearance in ``eldofs``."""
    nodes, _ = lagrange_element(space)
    pts = map_to_elements(space.mesh.element_coords, nodes)
    _, first = np.unique(space.eldofs, return_index=True)
    return pts.reshape(-1, pts.shape[2])[first]


def load_vector(space, g):
    """(load vector, quadrature values) of one point function."""
    values = space.quad_values([(1.0, g)])
    return space.load_vectors(values)[:, 0], values[0]


def projection_indicators(fem, g):
    """Per-element L2 errors of the FE function ``fem`` against ``g``."""
    return fem.space.indicators(fem.dofs, fem.space.quad_values([(1.0, g)])[0])


def fem_norm(fem):
    """||fem||_{L2(Omega)} by the element rule."""
    vals = fem.element_quad_values().ravel()
    return float(np.sqrt(max(vals ** 2 @ fem.space.quad_weights(), 0.0)))


def fem_at_points(fem, points):
    """Values of a 1-D FE function at ``points``, each in its cell."""
    space = fem.space
    _, basis = lagrange_element(space)
    points = np.asarray(points, dtype=float).reshape(-1)
    edges = space.mesh.element_coords
    idx = np.clip(np.searchsorted(edges[:, 0], points, side="right") - 1,
                  0, len(edges) - 1)
    out = np.empty_like(points)
    for e in np.unique(idx):
        m = idx == e
        a, b = edges[e]
        ref = (points[m] - a) / (b - a)
        out[m] = basis(ref.reshape(-1, 1)) @ fem.dofs[space.eldofs[e]]
    return out
