"""Conforming simplicial bisection meshes of Omega (n = 1 or 2).

Both mesh types keep their bisection tree as ``cells``: one
``(gen, index)`` pair per element.  The children of cell ``(g, i)`` are
``(g + 1, 2 i)`` and ``(g + 1, 2 i + 1)``, so its ancestor k generations
up is ``(g - k, i >> k)`` and ``i >> g`` is its root.

For n = 2 the unit square starts as two triangles cut by the diagonal
(0,0)-(1,1), both carrying the diagonal as refinement edge.  A mesh is
stored as arrays: ``vertices`` (V, 2) coordinates and ``elements``
(E, 3) vertex ids, next to its ``cells``.  An element row (a, b, c) has
its refinement edge (a, b) first and its newest vertex c last; it
splits into (c, a, m), cell (g + 1, 2 i), and (b, c, m), cell
(g + 1, 2 i + 1), where m is the midpoint of (a, b).  Bisection is the
recursive newest-vertex scheme: a marked element first forces its edge
neighbor to become compatible, then both split across the shared
midpoint, so every produced mesh is conforming.

A midpoint is looked up by the sorted vertex-id pair of the edge it
splits, not by its coordinates.  On a conforming mesh no vertex lies
inside an element edge (it would be a hanging node), so the midpoint
of an edge exists only once that edge has been split, and the edge
lookup numbers every vertex as a coordinate lookup would.
"""

import json
from functools import cached_property

import numpy as np


class MeshndError(ValueError):
    pass


def _edge(a, b):
    return (a, b) if a < b else (b, a)


def _edges(elem):
    a, b, c = elem
    return _edge(a, b), _edge(b, c), _edge(c, a)


def _bisect(verts, mids, elem, cell):
    """The two children (element, cell) of ``elem`` = (a, b, c).

    The midpoint of (a, b) is found in, or added to, ``verts`` through
    ``mids``, which maps a sorted edge to its midpoint's vertex id.
    """
    a, b, c = elem
    edge = _edge(a, b)
    m = mids.get(edge)
    if m is None:
        m = mids[edge] = len(verts)
        verts.append((verts[a] + verts[b]) / 2.0)
    g, i = cell
    return ((c, a, m), (g + 1, 2 * i)), ((b, c, m), (g + 1, 2 * i + 1))


class _CellMesh:
    """What both mesh types read off their ``(gen, index)`` cells."""

    @property
    def size(self):
        return len(self.cells)

    @property
    def levels(self):
        """Bisection generation of every element."""
        return [g for g, _ in self.cells]


class TriangleMesh(_CellMesh):
    """Newest-vertex bisection mesh of the unit square."""

    dim = 2

    def __init__(self, vertices, elements, cells):
        self.vertices = np.array(vertices, dtype=float).reshape(-1, 2)
        self.elements = np.array(elements, dtype=np.intp).reshape(-1, 3)
        self.cells = list(cells)

    @classmethod
    def unit_square(cls):
        return cls([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                   [(2, 0, 1), (0, 2, 3)], [(0, 0), (0, 1)])

    @cached_property
    def element_coords(self):
        """Vertex coordinates of every element, shape (E, 3, 2)."""
        return self.vertices[self.elements]

    @cached_property
    def key(self):
        """Hashable identity: equal keys mean equal elements and numbering.

        The vertex ids are part of it because the dof numbering reads
        them; two refinement orders can number vertices differently.
        """
        return self.element_coords.tobytes() + self.elements.tobytes()

    def areas(self):
        c = self.element_coords
        x0, y0 = c[:, 0, 0], c[:, 0, 1]
        x1, y1 = c[:, 1, 0], c[:, 1, 1]
        x2, y2 = c[:, 2, 0], c[:, 2, 1]
        return 0.5 * np.abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))

    def refine(self, marked):
        """Conforming refinement: bisect marked elements plus closure."""
        marked = list(marked)
        for m in marked:
            if not 0 <= m < self.size:
                raise MeshndError(f"unknown element id {m}")
        verts, mids = list(self.vertices), {}
        elems = [tuple(e) for e in self.elements.tolist()]
        cells = list(self.cells)
        alive = [True] * len(elems)
        edge_map = {}
        for pos, e in enumerate(elems):
            for edge in _edges(e):
                edge_map.setdefault(edge, set()).add(pos)

        def neighbor_across(pos, edge):
            others = edge_map.get(edge, set()) - {pos}
            return next(iter(others)) if others else None

        def bisect(pos):
            alive[pos] = False
            for edge in _edges(elems[pos]):
                edge_map[edge].discard(pos)
            for child, cell in _bisect(verts, mids, elems[pos], cells[pos]):
                for edge in _edges(child):
                    edge_map.setdefault(edge, set()).add(len(elems))
                elems.append(child)
                cells.append(cell)
                alive.append(True)

        def ensure_refined(pos, depth=0):
            if depth > 500:
                raise MeshndError("bisection recursion exceeded its bound; "
                                  "initial labeling not admissible?")
            ref = _edge(*elems[pos][:2])
            nb = neighbor_across(pos, ref)
            if nb is not None and _edge(*elems[nb][:2]) != ref:
                ensure_refined(nb, depth + 1)
                nb = neighbor_across(pos, ref)
            bisect(pos)
            if nb is not None:
                bisect(nb)

        for pos in marked:
            if alive[pos]:
                ensure_refined(pos)
        keep = [pos for pos, a in enumerate(alive) if a]
        return TriangleMesh(verts, [elems[p] for p in keep],
                            [cells[p] for p in keep])

    def is_conforming(self):
        """Edge-incidence audit: no over-shared edges, no hanging nodes."""
        edges = {}
        for e in self.elements.tolist():
            for edge in _edges(e):
                edges[edge] = edges.get(edge, 0) + 1
        if any(c > 2 for c in edges.values()):
            return False
        vid = {xy: i for i, xy in enumerate(map(tuple, self.vertices.tolist()))}
        for a, b in edges:
            mid = vid.get(tuple(((self.vertices[a] + self.vertices[b]) / 2.0)
                                .tolist()))
            if mid is not None and (_edge(a, mid) in edges or
                                    _edge(mid, b) in edges):
                return False
        return True

    def initial_signature(self):
        return ("square2", tuple(sorted({i >> g for g, i in self.cells})))

    def to_json(self):
        return json.dumps({
            "vertices": self.vertices.tolist(),
            "elements": [{"v": v, "refedge": 0, "gen": g}
                         for v, (g, _) in zip(self.elements.tolist(),
                                              self.cells)],
        })


class IntervalMesh(_CellMesh):
    """Dyadic bisection mesh of [0, T): (level, index) cells by position.

    Cell (level, index) is [T index 2^-level, T (index + 1) 2^-level),
    so every breakpoint is reproducible bit for bit.  The same type
    partitions the time interval and Omega = [0, 1] (T = 1); in 1-D
    bisection needs no closure.  ``trace`` is empty unless a greedy
    driver attached its refinement history to the mesh it returns.
    """

    dim = 1

    def __init__(self, cells=None, T=1.0):
        self.T = T
        self.cells = sorted(cells or [(0, 0)], key=self.interval)
        self.trace = []

    @classmethod
    def unit_interval(cls):
        return cls()

    def interval(self, cell):
        lvl, idx = cell
        w = self.T * 2.0 ** (-lvl)
        return (idx * w, (idx + 1) * w)

    @cached_property
    def key(self):
        """Hashable identity: T and the cells."""
        return (self.T, tuple(self.cells))

    @cached_property
    def element_coords(self):
        """Endpoints (a, b) of every cell, shape (E, 2); same as ``interval``."""
        lvl, idx = np.array(self.cells, dtype=np.int64).T
        w = self.T * np.ldexp(1.0, -lvl)
        return np.stack([idx * w, (idx + 1) * w], axis=1)

    @property
    def breakpoints(self):
        return np.append(self.element_coords[:, 0], self.T)

    def areas(self):
        return self.element_coords[:, 1] - self.element_coords[:, 0]

    def refine(self, marked):
        """Bisect the marked cells; ids are positions in ``cells``."""
        marked = set(marked)
        for m in marked:
            if not 0 <= m < self.size:
                raise MeshndError(f"unknown element id {m}")
        out = []
        for pos, (lvl, idx) in enumerate(self.cells):
            if pos in marked:
                out += [(lvl + 1, 2 * idx), (lvl + 1, 2 * idx + 1)]
            else:
                out.append((lvl, idx))
        return IntervalMesh(out, T=self.T)

    def is_conforming(self):
        c = self.element_coords
        return np.array_equal(c[1:, 0], c[:-1, 1])

    def initial_signature(self):
        return ("interval", self.T)

    def to_json(self):
        return json.dumps({
            "vertices": [[float(p)] for p in self.breakpoints],
            "elements": [{"v": [i, i + 1], "gen": lvl}
                         for i, lvl in enumerate(self.levels)],
        })


def initial_mesh(n):
    if n == 1:
        return IntervalMesh.unit_interval()
    if n == 2:
        return TriangleMesh.unit_square()
    raise MeshndError(f"spatial dimension must be 1 or 2, got {n}")


def refine_bisection(mesh, marked):
    """Bisect the marked elements, closing for conformity (n = 2)."""
    return mesh.refine(marked)


def _proper_ancestors(cells):
    return {(g - k, i >> k) for g, i in cells for k in range(1, g + 1)}


def overlay(mesh1, mesh2):
    """Smallest common refinement of two meshes from the same initial mesh.

    A cell of the merged bisection tree is split iff it is a proper
    ancestor of a cell of either input; the leaves are the cells of
    either input that are not.  Triangles are rebuilt by a depth-first
    walk from the roots, which fixes element and vertex order.
    """
    if mesh1.initial_signature() != mesh2.initial_signature():
        raise MeshndError("meshes do not descend from the same initial mesh")
    split = _proper_ancestors(mesh1.cells) | _proper_ancestors(mesh2.cells)
    if isinstance(mesh1, IntervalMesh):
        return IntervalMesh((set(mesh1.cells) | set(mesh2.cells)) - split,
                            T=mesh1.T)
    base = TriangleMesh.unit_square()
    verts, mids, elems, cells = list(base.vertices), {}, [], []

    def walk(elem, cell):
        if cell in split:
            for child in _bisect(verts, mids, elem, cell):
                walk(*child)
        else:
            elems.append(elem)
            cells.append(cell)

    for elem, cell in zip(base.elements.tolist(), base.cells):
        walk(tuple(elem), cell)
    return TriangleMesh(verts, elems, cells)
