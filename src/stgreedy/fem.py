"""Continuous finite element spaces on bisection meshes, L2 projection.

Lagrange elements of order r2 (polynomial degree < r2, r2 >= 2: order 1
would collapse the continuous space to global constants, which the
engine rejects).  Projection solves the sparse normal equations
directly and verifies the residual; per-element indicators split the
projection error so that their squares sum to the global square.

A space is built with array operations over all elements, not a loop:
meshes cache their element coordinates, the reference element (basis,
quadrature, mass matrix) is shared per (dim, r2), and each space
computes its dof numbering, element measures, quadrature points and
mass matrix once.

In 1-D the cells are in position order, so the dof numbering is closed
form: node k of element e is dof e (r2 - 1) + k.  The mass matrix is
then banded, and its CSR arrays are written from the band by strided
slices, without COO or a sort; load vectors are summed by r2 strided
adds instead of ``np.add.at``.  Each entry of either sums the term of
one element, or two at a shared vertex.  A float sum of two terms is
the same in either order, so both have the bits of the COO assembly
and of ``np.add.at``, whatever order those sum duplicates in.  In 2-D
an entry may sum many terms, and ``tocsr`` orders duplicates with an
unstable sort, so the 2-D path keeps COO -> CSR.

``greedy_spaces`` runs the greedies of several functions in lockstep
and ``greedy_space`` is its one-function case.  Both take an optional
``cache`` dict, owned by the caller, that reuses work across calls.  It
maps ``("space", r2, mesh.key)`` to the ``FemSpace`` of that mesh and
``("refine", mesh.key, marked.tobytes())`` to the refined mesh, where
``mesh.key`` is the mesh's identity (see ``meshnd``): T and the
position-ordered cells of an interval mesh, the element coordinates and
vertex ids of a triangle mesh.  Marks are element positions in that
order.  Both are pure functions of their key, so a hit returns what a
fresh build would, bit for bit, and one cache may serve any functions
and tolerances.  The cache holds every space and mesh put in it until
the caller drops it: ``build_fully_discrete`` makes one per call and
drops it on return.

One solve per mesh per round; no factor outlives its group.  In each
round of ``greedy_spaces`` the functions on one mesh stack their load
vectors into one right-hand side, and SuperLU factors the mass matrix
once for all of them; each column gets the bits of a one-column solve
(the property tests check this through the greedy).  A projection whose
load vector or residual is not finite fails with ``FemError``: a NaN
residual would pass a plain ``res > tol`` check.  The factorization
is not kept: each live SuperLU object holds about 63 KB of workspace
whatever the matrix size, which outweighs factoring the small matrices
here again in a later round.
"""

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .meshnd import MeshndError, initial_mesh, refine_bisection
from .quadrature import (DEFAULT_INTERVAL_RULE, DEFAULT_SIMPLEX_RULE,
                         map_to_elements)


class FemError(ValueError):
    pass


class GreedySpaceCapError(RuntimeError):
    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


def _lagrange_basis_1d(r2):
    # nodes i/(r2-1) on [0,1]; coefficients of each basis poly in monomials
    nodes = np.linspace(0.0, 1.0, r2)
    V = np.vander(nodes, r2, increasing=True)
    C = np.linalg.inv(V)            # C[:, k] = monomial coeffs of phi_k
    return nodes.reshape(-1, 1), lambda pts: np.vander(
        np.asarray(pts).ravel(), r2, increasing=True) @ C


def _lattice_2d(d):
    return [(i, j) for j in range(d + 1) for i in range(d + 1 - j)]


def _lagrange_basis_2d(r2):
    d = r2 - 1
    lattice = np.array([(i / d, j / d) for i, j in _lattice_2d(d)])
    monos = [(a, b) for b in range(d + 1) for a in range(d + 1 - b)]

    def vander(pts):
        pts = np.asarray(pts)
        return np.stack([pts[:, 0] ** a * pts[:, 1] ** b
                         for a, b in monos], axis=1)

    C = np.linalg.inv(vander(lattice))
    return lattice, lambda pts: vander(np.asarray(pts)) @ C


@lru_cache(maxsize=None)
def _reference_element(dim, r2):
    """Lagrange nodes, basis, quadrature rule, basis at the rule's nodes
    and the reference mass matrix."""
    if dim == 1:
        ref_nodes, basis = _lagrange_basis_1d(r2)
        rule = DEFAULT_INTERVAL_RULE
        qref, qw = rule.nodes.reshape(-1, 1), rule.weights
    else:
        ref_nodes, basis = _lagrange_basis_2d(r2)
        rule = DEFAULT_SIMPLEX_RULE
        qref, qw = rule.barycentric[:, 1:], rule.weights
    Bq = basis(qref)
    return ref_nodes, basis, qref, qw, Bq, Bq.T @ (qw[:, None] * Bq)


def _dof_keys_2d(elems, r2):
    # vertex dofs by vertex id, edge dofs by (sorted edge, position counted
    # from the smaller vertex id), interior dofs by (element, position)
    E = len(elems)
    d = r2 - 1
    nv = int(elems.max()) + 1
    interior_base = nv + nv * nv * max(d - 1, 0)
    n_interior = max((d - 1) * (d - 2) // 2, 0)
    interior = 0
    keys = np.empty((E, len(_lattice_2d(d))), dtype=np.int64)
    for col, (i, j) in enumerate(_lattice_2d(d)):
        k = d - i - j
        if (i, j) == (0, 0):
            keys[:, col] = elems[:, 0]
        elif (i, j) == (d, 0):
            keys[:, col] = elems[:, 1]
        elif (i, j) == (0, d):
            keys[:, col] = elems[:, 2]
        elif j == 0 or i == 0 or k == 0:
            # edge va-vb at i/d, va-vc at j/d, vb-vc at j/d
            p, q, step = ((0, 1, i) if j == 0 else
                          (0, 2, j) if i == 0 else (1, 2, j))
            vp, vq = elems[:, p], elems[:, q]
            edge = np.minimum(vp, vq) * nv + np.maximum(vp, vq)
            pos = np.where(vp <= vq, step, d - step)
            keys[:, col] = nv + edge * (d - 1) + (pos - 1)
        else:
            keys[:, col] = (interior_base + interior +
                            n_interior * np.arange(E, dtype=np.int64))
            interior += 1
    return keys


def _number_by_first_appearance(keys):
    """Global dof per key, numbered in row-major order of first appearance.

    Returns (eldofs, first) where ``first`` holds, per dof, the flat
    position of its first appearance.
    """
    _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()].reshape(keys.shape), first[order]


class FemSpace:
    """Global continuous Lagrange space on a bisection mesh.

    Built with a fixed number of array operations over all elements;
    quadrature points and element measures are computed once per space.
    """

    def __init__(self, mesh, r2):
        if r2 < 2:
            raise FemError(
                "r2 must be >= 2: continuity collapses order-1 elements "
                "to global constants")
        self.mesh = mesh
        self.r2 = int(r2)
        (self._ref_nodes, self._basis, self._qref, self._qw, self._Bq,
         self._mref) = _reference_element(mesh.dim, self.r2)
        self._build_dofs()
        self._measures = mesh.areas()
        self._quad_pts = None
        self._mass = None

    def _build_dofs(self):
        coords = self.mesh.element_coords
        pts = map_to_elements(coords, self._ref_nodes)
        if self.mesh.dim == 1:
            # cells in position order and without gaps: element e's last
            # node is element e + 1's first, so first appearance numbers
            # node k of e as e (r2 - 1) + k
            E, d = len(coords), self.r2 - 1
            self.eldofs = d * np.arange(E)[:, None] + np.arange(self.r2)
            self.ndof = E * d + 1
            self.dof_points = np.concatenate([pts[0, :1],
                                              pts[:, 1:].reshape(-1, 1)])
            return
        # dofs are keyed topologically (vertex id, oriented position on an
        # edge, or element-local), never by rounded coordinates: shared
        # nodes then match exactly at any refinement depth
        keys = _dof_keys_2d(self.mesh.elements, self.r2)
        self.eldofs, first = _number_by_first_appearance(keys)
        self.ndof = len(first)
        self.dof_points = pts.reshape(-1, pts.shape[2])[first]

    def measures(self):
        return self._measures

    def quad_points(self):
        """Physical quadrature points per element, shape (E, Q, n)."""
        if self._quad_pts is None:
            self._quad_pts = map_to_elements(self.mesh.element_coords,
                                             self._qref)
        return self._quad_pts

    def quad_weights(self):
        """Physical quadrature weights matching quad_points, flat (E*Q,)."""
        return (self.measures()[:, None] * self._qw[None, :]).ravel()

    def mass_matrix(self):
        """The sparse (CSR) mass matrix, assembled on the first call."""
        if self._mass is None:
            shape = (self.ndof, self.ndof)
            if self.mesh.dim == 1:
                self._mass = sp.csr_matrix(self._mass_csr_1d(), shape=shape)
            else:
                L = self._mref.shape[0]
                rows = np.repeat(self.eldofs, L, axis=1).ravel()
                cols = np.tile(self.eldofs, (1, L)).ravel()
                vals = (self.measures()[:, None, None] * self._mref).ravel()
                self._mass = sp.coo_matrix((vals, (rows, cols)),
                                           shape=shape).tocsr()
        return self._mass

    def _mass_csr_1d(self):
        """(data, indices, indptr) of the 1-D mass matrix, from its band.

        band[g, c] is entry (g, g + c - d).  Local row i of every element
        is one strided slice of band rows, and ``keep`` marks exactly the
        entries that element pairs create.  An entry sums one element's
        term, or two at a vertex; -0.0 + x is x bit for bit, so each entry
        has the bits of the COO sum.
        """
        E, d = len(self.eldofs), self.r2 - 1
        band = np.full((self.ndof, 2 * d + 1), -0.0)
        keep = np.zeros(band.shape, dtype=bool)
        meas = self.measures()[:, None]
        for i in range(d, -1, -1):
            rows = slice(i, i + E * d, d)
            band[rows, d - i:2 * d - i + 1] += meas * self._mref[i]
            keep[rows, d - i:2 * d - i + 1] = True
        cols = np.arange(-d, self.ndof - d, dtype=np.int32)[:, None] + \
            np.arange(2 * d + 1, dtype=np.int32)
        indptr = np.zeros(self.ndof + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return band[keep], cols[keep], indptr

    def load_vector(self, g):
        pts = self.quad_points()
        E, Q, n = pts.shape
        gv = np.asarray(g(pts.reshape(-1, n))).reshape(E, Q)
        meas = self.measures()
        local = (meas[:, None] * (gv @ (self._qw[:, None] * self._Bq)))
        b = np.zeros(self.ndof)
        if self.mesh.dim == 1:
            # np.add.at's order: a vertex gets element e - 1's term first
            d = self.r2 - 1
            for k in range(d, -1, -1):
                b[k:k + E * d:d] += local[:, k]
        else:
            np.add.at(b, self.eldofs, local)
        return b, gv

    def element_values(self, dofs):
        """Values of the FE function at the element quadrature points."""
        return dofs[self.eldofs] @ self._Bq.T          # (E, Q)


class FemFunction:
    """A member of a continuous FE space: dof values plus its space.

    A projection also keeps the function it projected (``source``) and
    that function's values at the quadrature points (``source_values``),
    so its error indicators need not evaluate it again.  The code that
    owns a projection drops both once it has its indicators, so that kept
    functions do not hold on to them; ``element_indicators`` only reads
    them.
    """

    def __init__(self, space: FemSpace, dofs, source=None, source_values=None):
        self.space = space
        self.dofs = np.asarray(dofs, dtype=float)
        self.source = source
        self.source_values = source_values

    @property
    def mesh(self):
        return self.space.mesh

    def element_quad_values(self):
        return self.space.element_values(self.dofs)

    def norm(self):
        vals = self.element_quad_values()
        meas = self.space.measures()
        return float(np.sqrt(max((meas * (vals ** 2 @ self.space._qw)).sum(), 0.0)))

    def at_points(self, points):
        """Pointwise evaluation (n = 1 only: cells located by bisection)."""
        if self.mesh.dim != 1:
            raise FemError("pointwise evaluation only supported for n = 1")
        points = np.asarray(points, dtype=float).reshape(-1)
        edges = self.mesh.element_coords
        idx = np.clip(np.searchsorted(edges[:, 0], points, side="right") - 1,
                      0, len(edges) - 1)
        out = np.empty_like(points)
        for e in np.unique(idx):
            m = idx == e
            a, b = edges[e]
            ref = (points[m] - a) / (b - a)
            out[m] = self.space._basis(ref.reshape(-1, 1)) @ \
                self.dofs[self.space.eldofs[e]]
        return out


def _project_all(space, gs, rtol=1e-10):
    """L2 projections of every function in ``gs`` onto ``space``.

    The load vectors are the columns of one right-hand side, so the mass
    matrix is factored once for all of them.  Returns, per function, its
    ``FemFunction`` or the ``FemError`` of its failed check (a load
    vector that is not finite, or a residual that is not within ``rtol``
    of the load's norm), so that callers can raise those in their own
    order.
    """
    loads = [space.load_vector(g) for g in gs]
    M = space.mass_matrix()
    B = np.stack([b for b, _ in loads], axis=1)
    X = spla.spsolve(M, B).reshape(B.shape)
    finite = np.isfinite(B).all(axis=0)
    res = np.linalg.norm(M @ X - B, axis=0)
    bnorm = np.linalg.norm(B, axis=0)
    out = []
    for col, (g, (_, gv)) in enumerate(zip(gs, loads)):
        if not finite[col]:
            out.append(FemError(
                "projection load vector is not finite: the function has "
                "non-finite values at quadrature points"))
        elif not res[col] <= rtol * max(bnorm[col], 1e-300):
            out.append(FemError(
                f"projection solve residual {res[col]} above {rtol}"))
        else:
            out.append(FemFunction(space, X[:, col].copy(), source=g,
                                   source_values=gv))
    return out


def fem_project(g, mesh, r2, space=None, rtol=1e-10):
    """L2(Omega)-orthogonal projection of ``g`` onto the order-r2 space.

    Solves the SPD normal equations directly and checks the relative
    residual against ``rtol``.
    """
    fem, = _project_all(space or FemSpace(mesh, r2), [g], rtol)
    if isinstance(fem, FemError):
        raise fem
    return fem


def element_indicators(g, mesh, r2, fem=None):
    """Per-element L2 errors of the projection of ``g``.

    Returns (eta, fem) with eta_K = ||g - P g||_{L2(K)}; the squares sum
    to the global squared projection error by construction.  ``g`` is
    evaluated once: not at all when ``fem`` is a projection of a callable
    equal to ``g`` (``==``, which holds for a re-fetched bound method).
    ``fem`` is not changed, so threads may share it.
    """
    if fem is None:
        fem = fem_project(g, mesh, r2)
    space = fem.space
    if fem.source == g:
        gv = fem.source_values
    else:
        pts = space.quad_points()
        E, Q, n = pts.shape
        gv = np.asarray(g(pts.reshape(-1, n))).reshape(E, Q)
    diff = gv - fem.element_quad_values()
    eta2 = space.measures() * ((diff ** 2) @ space._qw)
    return np.sqrt(np.maximum(eta2, 0.0)), fem


def cached_space(mesh, r2, cache):
    """The order-r2 space on ``mesh``, built once per ``cache`` and mesh key."""
    key = ("space", r2, mesh.key)
    if key not in cache:
        cache[key] = FemSpace(mesh, r2)
    return cache[key]


def _greedy_run(g, r2, delta, n, max_gen, cache):
    """One function's greedy loop, as a generator.

    It yields each mesh it needs ``g`` projected onto, is sent that
    projection back, and returns (mesh, FemFunction, history).
    """
    if not delta > 0:
        raise FemError(f"delta must be positive, got {delta}")
    mesh = initial_mesh(n)
    history = []
    while True:
        fem = yield mesh
        eta, _ = element_indicators(g, mesh, r2, fem=fem)
        fem.source = fem.source_values = None
        err = float(np.sqrt((eta ** 2).sum()))
        history.append((mesh.size, err))
        if err <= delta:
            return mesh, fem, history
        thr = delta / np.sqrt(mesh.size)
        marked = np.nonzero(eta > thr)[0]
        if len(marked) == 0:           # float equal-case guard
            marked = np.array([int(np.argmax(eta))])
        levels = mesh.levels
        blocked = [int(m) for m in marked if levels[m] >= max_gen]
        if blocked:
            raise GreedySpaceCapError(
                f"generation cap {max_gen} hit with error {err} > {delta}",
                offenders=blocked)
        key = ("refine", mesh.key, marked.tobytes())
        if key not in cache:
            cache[key] = refine_bisection(mesh, marked)
        mesh = cache[key]


def greedy_spaces(gs, r2, deltas, n=None, max_gen=40, cache=None):
    """``greedy_space`` for each function of ``gs`` with its delta.

    The runs advance in rounds.  In each round the functions whose
    meshes have one key share that mesh's space and one sparse solve
    for all their projections; then each marks and refines on its own.
    Returns one (mesh, FemFunction, history) per function, each as its
    own ``greedy_space`` call returns it.  If some runs fail (a bad
    delta or n, the generation cap, a solve residual), the error of the
    first of them in ``gs`` is raised, as a loop of single calls would
    raise it; any other error, such as one that evaluating a function
    raises, propagates at once.
    """
    gs, deltas = list(gs), list(deltas)
    if len(gs) != len(deltas):
        raise FemError(f"{len(gs)} functions but {len(deltas)} deltas")
    cache = {} if cache is None else cache
    runs = [_greedy_run(g, r2, delta, n, max_gen, cache)
            for g, delta in zip(gs, deltas)]
    results, failed = [None] * len(runs), {}
    sends = [(i, None) for i in range(len(runs))]
    while sends:
        wanted = {}
        for i, fem in sends:
            try:
                wanted[i] = runs[i].send(fem)
            except StopIteration as done:
                results[i] = done.value
            except (FemError, GreedySpaceCapError, MeshndError) as err:
                failed[i] = err
        # a loop of single calls would never start a run after a failure
        stop = min(failed, default=len(runs))
        groups = {}
        for i, mesh in wanted.items():
            if i < stop:
                groups.setdefault(mesh.key, []).append(i)
        sends = []
        for members in groups.values():
            space = cached_space(wanted[members[0]], r2, cache)
            fems = _project_all(space, [gs[i] for i in members])
            for i, fem in zip(members, fems):
                if isinstance(fem, FemError):
                    failed[i] = fem
                else:
                    sends.append((i, fem))
    if failed:
        raise failed[min(failed)]
    return results


def greedy_space(g, r2, delta, n=None, max_gen=40, cache=None):
    """Adaptive bisection until the global projection error is <= delta.

    Marks every element whose indicator exceeds delta / sqrt(#T) (an
    absolute threshold: if the global error is above delta, at least
    one element must exceed it, so the loop always progresses).
    Returns (mesh, FemFunction, history) where history records
    (#T, error) per iteration.

    ``cache`` (a dict, optional) shares FE spaces, keyed by
    ``("space", r2, mesh.key)``, and refinements, keyed by
    ``("refine", mesh.key, marked.tobytes())``, with other calls that
    pass the same dict.  The caller owns it and decides how long it
    lives; the results are the same with or without it.
    """
    return greedy_spaces([g], r2, [delta], n, max_gen, cache)[0]
