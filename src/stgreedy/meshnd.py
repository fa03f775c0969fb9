"""Conforming simplicial bisection meshes of Omega (n = 1 or 2).

For n = 2 the unit square starts as two triangles cut by the diagonal
(0,0)-(1,1), both carrying the diagonal as refinement edge; elements
are stored as vertex triples (a, b, c) whose refinement edge is (a, b)
and whose newest vertex is c.  Bisection is the recursive
newest-vertex scheme: a marked element first forces its edge neighbor
to become compatible, then both split across the shared midpoint, so
every produced mesh is conforming.  Element genealogy (root + child
path) supports the overlay (smallest common refinement) of two meshes
descending from the same initial mesh.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class MeshndError(ValueError):
    pass


def _coord_key(xy):
    # exact keying: bisection coordinates are dyadic, and the midpoint of
    # one edge is computed from identical operands wherever requested, so
    # float equality is reliable (no rounding tolerance needed)
    return (float(xy[0]), float(xy[1]))


@dataclass
class Element:
    v: tuple          # (a, b, c): refinement edge (a, b), newest vertex c
    gen: int
    root: int
    path: tuple

    @property
    def refedge(self):
        return tuple(sorted((self.v[0], self.v[1])))

    def edges(self):
        a, b, c = self.v
        return [tuple(sorted(e)) for e in ((a, b), (b, c), (c, a))]


class TriangleMesh:
    """Newest-vertex bisection mesh of the unit square."""

    dim = 2

    def __init__(self, vertices, elements):
        self.vertices = list(vertices)
        self.elements = list(elements)
        self._vindex = {_coord_key(v): i for i, v in enumerate(self.vertices)}

    # -- construction -------------------------------------------------------

    @classmethod
    def unit_square(cls):
        verts = [np.array(p, dtype=float) for p in
                 [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]]
        elems = [Element(v=(2, 0, 1), gen=0, root=0, path=()),
                 Element(v=(0, 2, 3), gen=0, root=1, path=())]
        return cls(verts, elems)

    @property
    def size(self):
        return len(self.elements)

    @property
    def levels(self):
        """Bisection generation of every element."""
        return [e.gen for e in self.elements]

    @cached_property
    def element_vertex_ids(self):
        """Vertex ids (a, b, c) of every element, shape (E, 3)."""
        return np.array([e.v for e in self.elements], dtype=np.intp)

    @cached_property
    def element_coords(self):
        """Vertex coordinates of every element, shape (E, 3, 2)."""
        return np.array(self.vertices)[self.element_vertex_ids]

    @cached_property
    def key(self):
        """Hashable identity: equal keys mean equal elements and numbering.

        The vertex ids are part of it because the dof numbering reads
        them; two refinement orders can number vertices differently.
        """
        return self.element_coords.tobytes() + self.element_vertex_ids.tobytes()

    def element_vertices(self):
        return iter(self.element_coords)

    def areas(self):
        c = self.element_coords
        x0, y0 = c[:, 0, 0], c[:, 0, 1]
        x1, y1 = c[:, 1, 0], c[:, 1, 1]
        x2, y2 = c[:, 2, 0], c[:, 2, 1]
        return 0.5 * np.abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))

    # -- refinement ---------------------------------------------------------

    def refine(self, marked):
        """Conforming refinement: bisect marked elements plus closure."""
        marked = list(marked)
        for m in marked:
            if not 0 <= m < len(self.elements):
                raise MeshndError(f"unknown element id {m}")
        verts = list(self.vertices)
        vindex = dict(self._vindex)
        elems = list(self.elements)
        alive = [True] * len(elems)
        edge_map = {}
        for pos, e in enumerate(elems):
            for edge in e.edges():
                edge_map.setdefault(edge, set()).add(pos)

        def midpoint(a, b):
            key = _coord_key((verts[a] + verts[b]) / 2.0)
            if key not in vindex:
                vindex[key] = len(verts)
                verts.append((verts[a] + verts[b]) / 2.0)
            return vindex[key]

        def neighbor_across(pos, edge):
            others = edge_map.get(edge, set()) - {pos}
            return next(iter(others)) if others else None

        def bisect(pos):
            e = elems[pos]
            a, b, c = e.v
            m = midpoint(a, b)
            alive[pos] = False
            for edge in e.edges():
                edge_map[edge].discard(pos)
            for child in (Element(v=(c, a, m), gen=e.gen + 1, root=e.root,
                                  path=e.path + (0,)),
                          Element(v=(b, c, m), gen=e.gen + 1, root=e.root,
                                  path=e.path + (1,))):
                cpos = len(elems)
                elems.append(child)
                alive.append(True)
                for edge in child.edges():
                    edge_map.setdefault(edge, set()).add(cpos)

        def ensure_refined(pos, depth=0):
            if depth > 500:
                raise MeshndError("bisection recursion exceeded its bound; "
                                  "initial labeling not admissible?")
            ref = elems[pos].refedge
            nb = neighbor_across(pos, ref)
            if nb is not None and elems[nb].refedge != ref:
                ensure_refined(nb, depth + 1)
                nb = neighbor_across(pos, ref)
            bisect(pos)
            if nb is not None:
                bisect(nb)

        for pos in marked:
            if alive[pos]:
                ensure_refined(pos)
        new_elems = [e for e, a in zip(elems, alive) if a]
        return TriangleMesh(verts, new_elems)

    # -- audits and genealogy -----------------------------------------------

    def is_conforming(self):
        """Edge-incidence audit: no over-shared edges, no hanging nodes."""
        edges = {}
        for e in self.elements:
            for edge in e.edges():
                edges[edge] = edges.get(edge, 0) + 1
        if any(c > 2 for c in edges.values()):
            return False
        for (a, b) in edges:
            key = _coord_key((self.vertices[a] + self.vertices[b]) / 2.0)
            mid = self._vindex.get(key)
            if mid is None:
                continue
            if tuple(sorted((a, mid))) in edges or tuple(sorted((mid, b))) in edges:
                return False
        return True

    def leaf_paths(self):
        out = {}
        for e in self.elements:
            out.setdefault(e.root, set()).add(e.path)
        return out

    def initial_signature(self):
        roots = sorted({e.root for e in self.elements})
        return ("square2", tuple(roots))

    def to_json(self):
        return json.dumps({
            "vertices": [[float(v[0]), float(v[1])] for v in self.vertices],
            "elements": [{"v": list(e.v), "refedge": 0, "gen": e.gen}
                         for e in self.elements],
        })


class IntervalMesh:
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

    @property
    def size(self):
        return len(self.cells)

    def interval(self, cell):
        lvl, idx = cell
        w = self.T * 2.0 ** (-lvl)
        return (idx * w, (idx + 1) * w)

    @property
    def levels(self):
        return [lvl for lvl, _ in self.cells]

    @cached_property
    def key(self):
        """Hashable identity: T and the cells."""
        return (self.T, tuple(self.cells))

    def element_vertices(self):
        for c in self.cells:
            yield self.interval(c)

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
            if not 0 <= m < len(self.cells):
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

    def trace_json(self):
        """Serialized refinement history: iterations plus breakpoints."""
        return json.dumps({
            "iterations": [{"marked": e.marked, "leaves": e.leaves,
                            "maxerr": e.maxerr} for e in self.trace],
            "breakpoints": [float(t) for t in self.breakpoints],
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


def _internal_nodes(leafsets):
    out = set()
    for root, paths in leafsets.items():
        for p in paths:
            for k in range(len(p)):
                out.add((root, p[:k]))
    return out


def _merge_finer(cells1, cells2):
    """Common refinement of two dyadic partitions of [0, T): a merge of
    the position-ordered cells that keeps the finer cell at each point."""
    a, b = cells1[::-1], cells2[::-1]       # stacks, leftmost cell last
    out = []
    while a:
        if a[-1] == b[-1]:
            out.append(a.pop())
            b.pop()
        else:           # both start here: split the coarser one
            stack = a if a[-1][0] < b[-1][0] else b
            lvl, idx = stack.pop()
            stack += [(lvl + 1, 2 * idx + 1), (lvl + 1, 2 * idx)]
    return out


def overlay(mesh1, mesh2):
    """Smallest common refinement of two meshes from the same initial mesh.

    In 1-D, the finer cell at each position.  For triangles, a node of
    the merged refinement forest is subdivided iff either input
    subdivides it; the leaves of that forest are the overlay.
    """
    if mesh1.initial_signature() != mesh2.initial_signature():
        raise MeshndError("meshes do not descend from the same initial mesh")
    if isinstance(mesh1, IntervalMesh):
        return IntervalMesh(_merge_finer(mesh1.cells, mesh2.cells), T=mesh1.T)
    internal = _internal_nodes(mesh1.leaf_paths()) | _internal_nodes(mesh2.leaf_paths())

    base = TriangleMesh.unit_square()
    verts = list(base.vertices)
    vindex = {_coord_key(v): i for i, v in enumerate(verts)}
    elems = []

    def midpoint(a, b):
        key = _coord_key((verts[a] + verts[b]) / 2.0)
        if key not in vindex:
            vindex[key] = len(verts)
            verts.append((verts[a] + verts[b]) / 2.0)
        return vindex[key]

    def walk(e):
        if (e.root, e.path) in internal:
            a, b, c = e.v
            m = midpoint(a, b)
            walk(Element(v=(c, a, m), gen=e.gen + 1, root=e.root,
                         path=e.path + (0,)))
            walk(Element(v=(b, c, m), gen=e.gen + 1, root=e.root,
                         path=e.path + (1,)))
        else:
            elems.append(e)

    for e in base.elements:
        walk(e)
    return TriangleMesh(verts, elems)
