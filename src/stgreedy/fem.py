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
an entry may sum many terms, and scipy's ``tocsr`` orders duplicates
with an unstable sort, so the 2-D path makes the sparsetools calls of
``coo_matrix(...).tocsr()`` and keeps its bytes.

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
round of ``greedy_spaces`` the functions on one mesh are one stack:
their quadrature values (k, E, Q), load vectors, indicators and errors
are each one array pass, and their load vectors are one right-hand side
for which SuperLU factors the mass matrix once.  Each function keeps
the bits of its own single-function pass, since a stacked ``matmul``
makes one BLAS call per function with that function's shapes, and each
column of the solve gets the bits of a one-column solve (the property
tests check both against a loop of single calls).  A projection whose
load vector or residual is not finite fails with ``FemError``: a NaN
residual would pass a plain ``res > tol`` check.  The factorization
is not kept: each live SuperLU object holds about 63 KB of workspace
whatever the matrix size, which outweighs factoring the small matrices
here again in a later round.

The sparse kernels are two of scipy's compiled modules, loaded by file
at the first mass matrix or solve, and not scipy's Python packages:
``scipy.sparse._sparsetools`` (COO -> CSR and the residual's product)
and ``scipy.sparse.linalg._dsolve._superlu`` (SuperLU).  A solve is the
``gssv`` call that ``scipy.sparse.linalg.spsolve`` makes for a canonical
CSR matrix and a dense right-hand side, so it has spsolve's bits.
Importing ``scipy.sparse.linalg`` would load some 150 scipy modules and
about 30 MB for these two; the modes that build no finite element load
neither.  A module that is already in ``sys.modules`` is used as it is,
and a module loaded here is not left there, so a later public import of
scipy binds its own.  A lock makes a first use from several threads
load each module once.
"""

import importlib.machinery
import importlib.util
import os
import sys
import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .meshnd import MeshndError, initial_mesh, refine_bisection
from .quadrature import (DEFAULT_INTERVAL_RULE, DEFAULT_SIMPLEX_RULE,
                         map_to_elements)


class FemError(ValueError):
    pass


class GreedySpaceCapError(RuntimeError):
    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


# the scipy release CI tests the loader and the solve's bytes with
SCIPY_PIN = "1.17.1"
_KERNEL_NAMES = ("scipy.sparse._sparsetools",
                 "scipy.sparse.linalg._dsolve._superlu")
_kernels_lock = threading.Lock()
_kernels_loaded = None


def _load_compiled(name):
    """scipy's compiled module ``name``, loaded from its file.

    ``find_spec`` of the top-level name locates scipy without running
    its ``__init__``.  A single-phase extension module enters itself in
    ``sys.modules``; it is taken out again, since a later ``import
    scipy.sparse`` that found it there would not bind it as an
    attribute of its package.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError(f"stgreedy.fem needs scipy (tested with "
                          f"scipy=={SCIPY_PIN}) for {name}", name=name)
    base = os.path.join(os.path.dirname(spec.origin), *name.split(".")[1:])
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no compiled module {paths[0]}: stgreedy.fem "
                          f"loads it by path, as laid out by "
                          f"scipy=={SCIPY_PIN}", name=name, path=paths[0])
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = loader.create_module(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    if sys.modules.get(name) is module:
        del sys.modules[name]
    return module


def _kernels():
    """(sparsetools, superlu), loaded once per process."""
    global _kernels_loaded
    if _kernels_loaded is None:
        with _kernels_lock:
            if _kernels_loaded is None:
                _kernels_loaded = tuple(_load_compiled(name)
                                        for name in _KERNEL_NAMES)
    return _kernels_loaded


class CsrArrays(NamedTuple):
    """A square CSR matrix in canonical form (sorted indices, no
    duplicates), as scipy's ``csr_matrix`` holds it."""

    data: np.ndarray
    indices: np.ndarray         # int32, as scipy picks at these sizes
    indptr: np.ndarray


def _coo_to_csr(n, rows, cols, vals):
    """``coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()``'s arrays.

    The same sparsetools calls in the same order, so the duplicates are
    summed in the order that ``csr_sort_indices``' unstable sort leaves.
    """
    sparsetools, _ = _kernels()
    nnz = len(vals)
    indptr = np.empty(n + 1, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    sparsetools.coo_tocsr(n, n, nnz, rows.astype(np.int32),
                          cols.astype(np.int32), vals, indptr, indices, data)
    if not sparsetools.csr_has_canonical_format(n, indptr, indices):
        if not sparsetools.csr_has_sorted_indices(n, indptr, indices):
            sparsetools.csr_sort_indices(n, indptr, indices, data)
        sparsetools.csr_sum_duplicates(n, n, indptr, indices, data)
        nnz = indptr[-1]
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return CsrArrays(data, indices, indptr)


def _solve(M, B):
    """X with M X = B for a ``CsrArrays`` M and a dense (n, k) B.

    The SuperLU call of ``spsolve``, so X has its bits; NaN where
    SuperLU finds M singular.
    """
    _, superlu = _kernels()
    X, info = superlu.gssv(len(M.indptr) - 1, int(M.indptr[-1]), M.data,
                           M.indices.astype(np.intc, copy=False),
                           M.indptr.astype(np.intc, copy=False), B, 0,
                           options={"ColPerm": None})
    if info != 0:
        X.fill(np.nan)
    return X.reshape(B.shape)


def _matmul(M, X):
    """M @ X for a ``CsrArrays`` M and a dense (n, k) X, by scipy's kernel."""
    sparsetools, _ = _kernels()
    n, k = X.shape
    out = np.zeros((n, k))
    sparsetools.csr_matvecs(n, n, k, M.indptr, M.indices, M.data,
                            X.ravel(), out.ravel())
    return out


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
        self.check_order(r2)
        self.mesh = mesh
        self.r2 = int(r2)
        (self._ref_nodes, self._basis, self._qref, self._qw, self._Bq,
         self._mref) = _reference_element(mesh.dim, self.r2)
        self._build_dofs()
        self._measures = mesh.areas()
        self._quad_pts = None
        self._mass = None

    @staticmethod
    def check_order(r2):
        """Raise :class:`FemError` unless r2 is an order of these spaces."""
        if r2 < 2:
            raise FemError(
                "r2 must be >= 2: continuity collapses order-1 elements "
                "to global constants")

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
        """The mass matrix as ``CsrArrays``, assembled on the first call."""
        if self._mass is None:
            if self.mesh.dim == 1:
                self._mass = CsrArrays(*self._mass_csr_1d())
            else:
                L = self._mref.shape[0]
                rows = np.repeat(self.eldofs, L, axis=1).ravel()
                cols = np.tile(self.eldofs, (1, L)).ravel()
                vals = (self.measures()[:, None, None] * self._mref).ravel()
                self._mass = _coo_to_csr(self.ndof, rows, cols, vals)
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

    def quad_values(self, gs):
        """The values of each function of ``gs`` at the quadrature points,
        stacked as (k, E, Q)."""
        pts = self.quad_points()
        E, Q, n = pts.shape
        flat = pts.reshape(-1, n)
        values = np.empty((len(gs), E, Q))
        for row, g in zip(values, gs):
            row[...] = np.asarray(g(flat)).reshape(E, Q)
        return values

    def load_vectors(self, values):
        """The load vectors of stacked quadrature values (k, E, Q), as the
        columns of an (ndof, k) array.

        One stacked product gives each function the bits of its own
        (E, Q) @ (Q, L) product; the functions are never flattened into
        the rows of one BLAS call, which would change them.  Each entry
        sums its element terms in the order of ``np.add.at`` on one
        vector: by strided adds in 1-D, by ``np.bincount`` in 2-D.
        """
        k, E, _ = values.shape
        local = self.measures()[:, None] * np.matmul(
            values, self._qw[:, None] * self._Bq)          # (k, E, L)
        if self.mesh.dim == 1:
            B = np.zeros((self.ndof, k))
            # np.add.at's order: a vertex gets element e - 1's term first
            d = self.r2 - 1
            for j in range(d, -1, -1):
                B[j:j + E * d:d] += local[:, :, j].T
            return B
        index = (self.eldofs * k)[..., None] + np.arange(k)
        return np.bincount(index.ravel(), local.transpose(1, 2, 0).ravel(),
                           minlength=self.ndof * k).reshape(self.ndof, k)

    def load_vector(self, g):
        """(load vector, quadrature values) of one function."""
        values = self.quad_values([g])
        return self.load_vectors(values)[:, 0], values[0]

    def element_values(self, dofs):
        """Values at the element quadrature points of the FE function
        ``dofs`` (ndof,), shape (E, Q), or of stacked ones (k, ndof),
        shape (k, E, Q)."""
        return dofs[..., self.eldofs] @ self._Bq.T

    def indicators(self, dofs, values):
        """Per-element L2 errors of the FE functions ``dofs`` against the
        quadrature values ``values``: (E,) for one function, (k, E) for
        stacked ones, each row with the bits of its own."""
        diff = values - self.element_values(dofs)
        eta2 = self.measures() * np.matmul(diff ** 2, self._qw)
        return np.sqrt(np.maximum(eta2, 0.0))


class FemFunction:
    """A member of a continuous FE space: dof values plus its space.

    A projection made by ``fem_project`` also keeps the function it
    projected (``source``) and that function's values at the quadrature
    points (``source_values``), so that ``element_indicators`` need not
    evaluate it again.  The code that owns such a projection drops both
    once it has its indicators, so that kept functions do not hold on to
    them; ``element_indicators`` only reads them.  ``greedy_spaces``
    computes its indicators from the stacked values of a whole group and
    returns projections without either.
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


def _project_stack(space, gs, rtol=1e-10):
    """L2 projections of every function in ``gs`` onto ``space``.

    The load vectors are the columns of one right-hand side, so the mass
    matrix is factored once for all of them.  Returns (values, X,
    errors): the functions' quadrature values (k, E, Q), their dofs as
    the columns of X, and per function None or the ``FemError`` of its
    failed check (a load vector or load norm that is not finite, or a
    residual that is not within ``rtol`` of the load's norm), so that
    callers can raise those in their own order.
    """
    # an infinite value of a function may sum with a term of the other
    # sign to NaN; the finiteness check below rejects that load, so
    # numpy's "invalid value" warning is silenced, once per call
    with np.errstate(invalid="ignore"):
        values = space.quad_values(gs)
        B = space.load_vectors(values)
    M = space.mass_matrix()
    X = _solve(M, B)
    finite = np.isfinite(B).all(axis=0)
    # the squares of a load near the float limit overflow; such a norm
    # is rejected below, since inf <= rtol * inf would pass any residual
    with np.errstate(over="ignore"):
        res = np.linalg.norm(_matmul(M, X) - B, axis=0)
        bnorm = np.linalg.norm(B, axis=0)
    errors = []
    for col in range(len(gs)):
        if not finite[col]:
            errors.append(FemError(
                "projection load vector is not finite: the function has "
                "non-finite values at quadrature points"))
        elif not np.isfinite(bnorm[col]):
            errors.append(FemError(
                "projection load norm is not finite: the function's "
                "values are too large to check the solve"))
        elif not res[col] <= rtol * max(bnorm[col], 1e-300):
            errors.append(FemError(
                f"projection solve residual {res[col]} above {rtol}"))
        else:
            errors.append(None)
    return values, X, errors


def _project_all(space, gs, rtol=1e-10):
    """Per function of ``gs``, its projection onto ``space`` (a
    ``FemFunction`` that keeps its source) or its ``FemError``."""
    values, X, errors = _project_stack(space, gs, rtol)
    return [FemFunction(space, X[:, col].copy(), source=g,
                        source_values=values[col]) if err is None else err
            for col, (g, err) in enumerate(zip(gs, errors))]


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
        values = fem.source_values
    else:
        values = space.quad_values([g])[0]
    return space.indicators(fem.dofs, values), fem


def cached_space(mesh, r2, cache):
    """The order-r2 space on ``mesh``, built once per ``cache`` and mesh key."""
    key = ("space", r2, mesh.key)
    if key not in cache:
        cache[key] = FemSpace(mesh, r2)
    return cache[key]


def greedy_spaces(gs, r2, deltas, n=None, max_gen=40, cache=None):
    """``greedy_space`` for each function of ``gs`` with its delta.

    The runs advance in rounds.  In each round the functions whose
    meshes have one key form a group, and the group's FE work is done
    as array passes over all its members at once: their quadrature
    values, load vectors, one sparse solve, their indicators, errors
    and marks, each member's row with the bits of its own single run.
    Indicators are computed only for the members whose projection
    passed its checks, so a non-finite member raises no numpy warning.
    Then each member refines its own mesh.
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
    results, failed = [None] * len(gs), {}
    histories = [[] for _ in gs]
    live = {}               # run -> the mesh it is projected on next
    for i, delta in enumerate(deltas):
        try:
            if not delta > 0:
                raise FemError(f"delta must be positive, got {delta}")
            live[i] = initial_mesh(n)
        except (FemError, MeshndError) as err:
            failed[i] = err
            break
    while live:
        # a loop of single calls would never start a run after a failure
        stop = min(failed, default=len(gs))
        groups = {}
        for i, mesh in live.items():
            if i < stop:
                groups.setdefault(mesh.key, (mesh, []))[1].append(i)
        live = {}
        for mesh, members in groups.values():
            space = cached_space(mesh, r2, cache)
            values, X, errors = _project_stack(space, [gs[i] for i in members])
            for i, err in zip(members, errors):
                if err is not None:
                    failed[i] = err
            ok = [col for col, err in enumerate(errors) if err is None]
            eta = space.indicators(X.T[ok], values[ok])        # (len(ok), E)
            errs = np.sqrt((eta ** 2).sum(axis=1))
            thr = np.array([deltas[members[col]] for col in ok],
                           dtype=float) / np.sqrt(mesh.size)
            over = eta > thr[:, None]
            for row, col in enumerate(ok):
                i, err = members[col], float(errs[row])
                histories[i].append((mesh.size, err))
                if err <= deltas[i]:
                    results[i] = (mesh, FemFunction(space, X[:, col].copy()),
                                  histories[i])
                    continue
                marked = np.nonzero(over[row])[0]
                if len(marked) == 0:           # float equal-case guard
                    marked = np.array([int(np.argmax(eta[row]))])
                levels = mesh.levels
                blocked = [int(m) for m in marked if levels[m] >= max_gen]
                if blocked:
                    failed[i] = GreedySpaceCapError(
                        f"generation cap {max_gen} hit with error {err} > "
                        f"{deltas[i]}", offenders=blocked)
                    continue
                key = ("refine", mesh.key, marked.tobytes())
                try:
                    if key not in cache:
                        cache[key] = refine_bisection(mesh, marked)
                except MeshndError as exc:
                    failed[i] = exc
                    continue
                live[i] = cache[key]
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
