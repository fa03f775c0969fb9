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
form: node k of element e is dof e (r2 - 1) + k.  Both dimensions
assemble the same way: the mass matrix by the sparsetools calls of
``coo_matrix(...).tocsr()``, whose bytes it keeps, and the load vectors
by ``np.bincount``, which sums each entry's element terms in element
order, as ``np.add.at`` does.

``greedy_spaces`` runs the greedies of several functions in lockstep,
each from its own start mesh, and ``greedy_space`` is its one-function
case from the initial mesh.  A run with delta ``math.inf`` is one
projection onto its start mesh with its error: ``build_fully_discrete``
reprojects a slice's coefficients onto the slice's mesh that way, so
the spatial step has this one FE driver.  Both take an optional
``cache`` dict, owned by the caller, that reuses work across calls.  It
maps ``("space", r2, mesh.key)`` to the ``FemSpace`` of that mesh and
``("refine", mesh.key, marked.tobytes())`` to the refined mesh, where
``mesh.key`` is the mesh's identity (see ``meshnd``): T and the
position-ordered cells of an interval mesh, the element coordinates and
vertex ids of a triangle mesh.  Marks are element positions in that
order.  Both are pure functions of their key, so a hit returns what a
fresh build would, bit for bit, and one cache may serve any functions
and tolerances.  The cache holds every space and mesh put in it until
the caller drops it: ``build_fully_discrete`` keeps one in its time
cache, so its entries live as long as that cache, a whole sweep, and a
build reuses the spaces and refinements of the builds before it.  Over
a geometric sweep of eps they add up to about one finest build's worth
of spaces (1.2 times its elements on the 1-D bench sweep, 1.5 times on
the 2-D one), since each build climbs through the meshes of the coarser
ones.

Every projection is one ``_project_stack`` call on a stack of
functions, with one solve; ``element_indicators`` is its one-function
case, and ``fem_project`` the one-run case of ``greedy_spaces`` at
delta ``inf``.  No factor outlives its stack.  A stack is
given as terms ``(c, g)``, the functions ``c * g`` for a point function
g: ``FemSpace.quad_values`` evaluates each distinct g (by identity)
once per stack and writes each row as ``c * g(points)``, so the
multiples ``mu * g`` of a separable field's one spatial factor cost one
evaluation of g per stack, with the bits of ``mu * g(points)`` each.
The public one-function calls take a point function g, the term
``(1.0, g)``, whose values are g's (multiplying by 1.0 is exact).  In
each round of ``greedy_spaces`` the functions on one mesh are one stack:
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

from .meshnd import GreedyCapError as GreedySpaceCapError  # one class
from .meshnd import MeshndError, initial_mesh, refine_bisection
from .quadrature import (DEFAULT_INTERVAL_RULE, DEFAULT_SIMPLEX_RULE,
                         map_to_elements)


class FemError(ValueError):
    pass


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


def _element_rule(dim):
    """The quadrature rule of the elements of a dim-D mesh."""
    return DEFAULT_INTERVAL_RULE if dim == 1 else DEFAULT_SIMPLEX_RULE


@lru_cache(maxsize=None)
def _reference_element(dim, r2):
    """Lagrange nodes, basis, quadrature rule, basis at the rule's nodes
    and the reference mass matrix."""
    rule = _element_rule(dim)
    if dim == 1:
        ref_nodes, basis = _lagrange_basis_1d(r2)
        qref, qw = rule.nodes.reshape(-1, 1), rule.weights
    else:
        ref_nodes, basis = _lagrange_basis_2d(r2)
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
        self.check_order(r2, mesh.dim)
        self.mesh = mesh
        self.r2 = int(r2)
        (self._ref_nodes, self._basis, self._qref, self._qw, self._Bq,
         self._mref) = _reference_element(mesh.dim, self.r2)
        self._build_dofs()
        self._measures = mesh.areas()
        self._quad_pts = None
        self._mass = None

    @staticmethod
    def check_order(r2, n):
        """Raise :class:`FemError` unless r2 is an order of these spaces
        on an n-D mesh.

        The element rule of dimension n must integrate the mass matrix's
        products of degree 2 (r2 - 1) exactly, else the matrix is
        singular.  It must also have more points than an element has
        basis functions: with as many, a projection interpolates the
        rule's values and its quadrature error reads 0 (so r2 <= 9 in
        1-D, not the 10 that exactness allows).
        """
        if r2 < 2:
            raise FemError(
                "r2 must be >= 2: continuity collapses order-1 elements "
                "to global constants")
        rule = _element_rule(n)
        points = len(rule.weights)
        top = max(k for k in range(2, points + 1)
                  if 2 * (k - 1) <= rule.order
                  and (k if n == 1 else k * (k + 1) // 2) < points)
        if r2 > top:
            raise FemError(
                f"r2 must be at most {top} in {n}-D, where the {points}-point "
                f"element rule (exact to degree {rule.order}) integrates the "
                f"products of degree 2 (r2 - 1) exactly with more points "
                f"than basis functions, got {r2}")

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
            L = self._mref.shape[0]
            rows = np.repeat(self.eldofs, L, axis=1).ravel()
            cols = np.tile(self.eldofs, (1, L)).ravel()
            vals = (self.measures()[:, None, None] * self._mref).ravel()
            self._mass = _coo_to_csr(self.ndof, rows, cols, vals)
        return self._mass

    def quad_values(self, terms):
        """The values ``c * g(points)`` of each term ``(c, g)`` of
        ``terms`` at the quadrature points, stacked as (k, E, Q).

        Each distinct point function ``g`` (by identity) is evaluated
        once, in the order of its first term, and its values are held
        only while its rows are written.  A row is the product of c and
        those values, so a term ``(1.0, g)`` has the bits of ``g`` and a
        term ``(mu, g)`` those of ``mu * g(points)``.
        """
        pts = self.quad_points()
        E, Q, n = pts.shape
        flat = pts.reshape(-1, n)
        values = np.empty((len(terms), E, Q))
        rows = {}
        for row, (_, g) in enumerate(terms):
            rows.setdefault(id(g), (g, []))[1].append(row)
        for g, group in rows.values():
            g_values = np.asarray(g(flat)).reshape(E, Q)
            for row in group:
                values[row] = terms[row][0] * g_values
        return values

    def load_vectors(self, values):
        """The load vectors of stacked quadrature values (k, E, Q), as the
        columns of an (ndof, k) array.

        One stacked product gives each function the bits of its own
        (E, Q) @ (Q, L) product; the functions are never flattened into
        the rows of one BLAS call, which would change them.  Each entry
        sums its element terms by ``np.bincount``, in the order of
        ``np.add.at`` on one vector.
        """
        k = len(values)
        local = self.measures()[:, None] * np.matmul(
            values, self._qw[:, None] * self._Bq)          # (k, E, L)
        index = (self.eldofs * k)[..., None] + np.arange(k)
        return np.bincount(index.ravel(), local.transpose(1, 2, 0).ravel(),
                           minlength=self.ndof * k).reshape(self.ndof, k)

    def load_vector(self, g):
        """(load vector, quadrature values) of one point function."""
        values = self.quad_values([(1.0, g)])
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
    """A member of a continuous FE space: dof values plus its space."""

    def __init__(self, space: FemSpace, dofs):
        self.space = space
        self.dofs = np.asarray(dofs, dtype=float)

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


_RTOL = 1e-10           # relative residual bound of every projection solve


def _project_stack(space, terms):
    """L2 projections of the functions ``c * g`` of ``terms`` onto
    ``space``, one per term ``(c, g)``.

    Their quadrature values come from one ``FemSpace.quad_values`` call,
    which evaluates each distinct point function g once for the whole
    stack.  The load vectors are the columns of one right-hand side, so
    the mass matrix is factored once for all of them.  Returns (values,
    X, errors): the functions' quadrature values (k, E, Q), their dofs
    as the columns of X, and per function None or the ``FemError`` of its
    failed check (a load vector or load norm that is not finite, or a
    residual that is not within ``_RTOL`` of the load's norm), so that
    callers can raise those in their own order.
    """
    # an infinite value of a function may sum with a term of the other
    # sign to NaN; the finiteness check below rejects that load, so
    # numpy's "invalid value" warning is silenced, once per call
    with np.errstate(invalid="ignore"):
        values = space.quad_values(terms)
        B = space.load_vectors(values)
    M = space.mass_matrix()
    X = _solve(M, B)
    finite = np.isfinite(B).all(axis=0)
    # the squares of a load near the float limit overflow; such a norm
    # is rejected below, since inf <= _RTOL * inf would pass any residual
    with np.errstate(over="ignore"):
        res = np.linalg.norm(_matmul(M, X) - B, axis=0)
        bnorm = np.linalg.norm(B, axis=0)
    errors = []
    for col in range(len(terms)):
        if not finite[col]:
            errors.append(FemError(
                "projection load vector is not finite: the function has "
                "non-finite values at quadrature points"))
        elif not np.isfinite(bnorm[col]):
            errors.append(FemError(
                "projection load norm is not finite: the function's "
                "values are too large to check the solve"))
        elif not res[col] <= _RTOL * max(bnorm[col], 1e-300):
            errors.append(FemError(
                f"projection solve residual {res[col]} above {_RTOL}"))
        else:
            errors.append(None)
    return values, X, errors


def fem_project(g, mesh, r2):
    """L2(Omega)-orthogonal projection of ``g`` onto the order-r2 space.

    The one-run case of ``greedy_spaces`` at delta inf: one stacked
    projection, which checks its residual against ``_RTOL``.
    """
    return greedy_spaces([(1.0, g)], r2, [np.inf], [mesh])[0][1]


def element_indicators(g, mesh, r2, fem=None):
    """Per-element L2 errors of the projection of ``g``.

    Returns (eta, fem) with eta_K = ||g - P g||_{L2(K)}; the squares sum
    to the global squared projection error by construction.  ``fem``,
    when given, is taken as that projection; otherwise ``g`` is
    projected onto the order-r2 space on ``mesh``.  ``g`` is evaluated
    once.  ``fem`` is not changed, so threads may share it.
    """
    if fem is None:
        space = FemSpace(mesh, r2)
        values, X, (err,) = _project_stack(space, [(1.0, g)])
        if err is not None:
            raise err
        fem = FemFunction(space, X[:, 0])
    else:
        values = fem.space.quad_values([(1.0, g)])
    return fem.space.indicators(fem.dofs, values[0]), fem


def _cached_space(mesh, r2, cache):
    """The order-r2 space on ``mesh``, built once per ``cache`` and mesh key."""
    key = ("space", r2, mesh.key)
    if key not in cache:
        cache[key] = FemSpace(mesh, r2)
    return cache[key]


def greedy_spaces(terms, r2, deltas, meshes, max_gen=40, cache=None):
    """``greedy_space`` for each function ``c * g`` of ``terms`` with its
    delta and its start mesh, one per term ``(c, g)``.

    Each run starts on its mesh of ``meshes`` and refines from there.  A
    run with delta ``math.inf`` stops after its first round: it is the
    projection onto its start mesh, with that projection's error.
    The runs advance in rounds.  In each round the functions whose
    meshes have one key form a group, and the group's FE work is done
    as array passes over all its members at once: their quadrature
    values (each distinct point function g evaluated once per group, so
    the multiples of one g cost one evaluation), load vectors, one
    sparse solve, their indicators, errors and marks, each member's row
    with the bits of its own single run of ``greedy_space(lambda p: c *
    g(p), ...)``.  The generation cap is read off the group's mesh in
    one array comparison.
    Indicators are computed only for the members whose projection
    passed its checks, so a non-finite member raises no numpy warning.
    Then each member refines its own mesh.  ``cache`` is as in
    :func:`greedy_space`.
    Returns one (mesh, FemFunction, history) per function, each as its
    own ``greedy_space`` call returns it.  If some runs fail (a bad
    delta, the generation cap, a solve residual), the error of the first
    of them in ``terms`` is raised, as a loop of single calls would
    raise it; any other error, such as one that evaluating a function
    raises, propagates at once.
    """
    terms, deltas, meshes = list(terms), list(deltas), list(meshes)
    if not len(terms) == len(deltas) == len(meshes):
        raise FemError(f"{len(terms)} functions but {len(deltas)} deltas "
                       f"and {len(meshes)} meshes")
    per_round = cache is None
    results, failed = [None] * len(terms), {}
    histories = [[] for _ in terms]
    live = {}               # run -> the mesh it is projected on next
    for i, delta in enumerate(deltas):
        if not delta > 0:
            failed[i] = FemError(f"delta must be positive, got {delta}")
            break
        live[i] = meshes[i]
    while live:
        if per_round:       # no caller's cache: hold one round's spaces only
            cache = {}
        # a loop of single calls would never start a run after a failure
        stop = min(failed, default=len(terms))
        groups = {}
        for i, mesh in live.items():
            if i < stop:
                groups.setdefault(mesh.key, (mesh, []))[1].append(i)
        live = {}
        for mesh, members in groups.values():
            space = _cached_space(mesh, r2, cache)
            values, X, errors = _project_stack(space,
                                               [terms[i] for i in members])
            for i, err in zip(members, errors):
                if err is not None:
                    failed[i] = err
            ok = [col for col, err in enumerate(errors) if err is None]
            eta = space.indicators(X.T[ok], values[ok])        # (len(ok), E)
            errs = np.sqrt((eta ** 2).sum(axis=1))
            thr = np.array([deltas[members[col]] for col in ok],
                           dtype=float) / np.sqrt(mesh.size)
            over = eta > thr[:, None]
            at_cap = np.array(mesh.levels) >= max_gen
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
                blocked = marked[at_cap[marked]].tolist()
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
    lives; the results are the same with or without it.  Without it,
    each round has its own, so a call holds the spaces and refinements
    of one round only, not of every round up to the final mesh.
    """
    return greedy_spaces([(1.0, g)], r2, [delta], [initial_mesh(n)],
                         max_gen, cache)[0]
