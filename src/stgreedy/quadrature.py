"""Numerical integration on intervals and simplicial meshes.

This module realizes every integral the rest of the engine needs:

* composite Gauss-Legendre rules on intervals, optionally graded
  geometrically toward the left endpoint for integrands with a power
  singularity there,
* a fixed degree-6 rule on triangles,
* a fixed spatial quadrature grid for the domain Omega (unit interval
  or unit square) that discretizes L2(Omega) norms and inner products.

All routines are pure functions of their arguments and safe to call
concurrently; a field's ``DomainSpec`` carries the interval rule and
panel count of its time quadrature.
"""

from dataclasses import dataclass

import numpy as np

# defaults: 10-node Gauss dominates the local polynomial orders (<= 4)
# used anywhere in the engine
DEFAULT_INTERVAL_POINTS = 10
DEFAULT_SMOOTH_PANELS = 6
GRADED_LEVELS = 40


class QuadratureError(ValueError):
    """Raised on malformed integration requests (empty interval, ...)."""


@dataclass(frozen=True)
class IntervalRule:
    """Quadrature rule on the reference interval (0, 1).

    ``order`` is the polynomial exactness degree.  Weights sum to one.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def gauss_interval_rule(npoints=DEFAULT_INTERVAL_POINTS):
    """Gauss-Legendre rule with `npoints` nodes mapped to (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return IntervalRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0,
                        order=2 * npoints - 1)


DEFAULT_INTERVAL_RULE = gauss_interval_rule(DEFAULT_INTERVAL_POINTS)


def _interval_ends(a, b):
    """(a, b) as float arrays of any shape; raises
    :class:`QuadratureError` on an empty interval."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (b > a).all():
        i = np.flatnonzero(~(b > a))[0]
        raise QuadratureError(
            f"empty interval [{a.flat[i]}, {b.flat[i]})")
    return a, b


def composite_nodes(a, b, rule=DEFAULT_INTERVAL_RULE,
                    panels=DEFAULT_SMOOTH_PANELS):
    """Nodes/weights of a uniform composite rule on [a, b].

    ``a`` and ``b`` may be arrays of L interval ends: the nodes and
    weights are then (L, T) arrays whose row i has the bits of the
    scalar call on [a[i], b[i]).
    """
    a, b = _interval_ends(a, b)
    # the panel edges by np.linspace's arithmetic, row by row: k times
    # its step, or k / panels times the length where the step underflows
    d = b - a
    k = np.arange(panels + 1.0)
    step = d / panels
    edges = k * step[..., None]
    if not step.all():
        edges = np.where((step == 0)[..., None], k / panels * d[..., None],
                         edges)
    edges += a[..., None]
    edges[..., -1] = b
    widths = np.diff(edges)[..., None]
    ts = (edges[..., :-1, None] + widths * rule.nodes).reshape(*a.shape, -1)
    ws = (widths * rule.weights).reshape(*a.shape, -1)
    return ts, ws


def _graded_reference(rule, levels):
    # panels [2^-(k+1), 2^-k] for k = 0..levels-1 plus the remainder [0, 2^-levels]
    edges = [0.0] + [2.0 ** (-k) for k in range(levels, -1, -1)]
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ts.append(lo + (hi - lo) * rule.nodes)
        ws.append((hi - lo) * rule.weights)
    return np.concatenate(ts), np.concatenate(ws)


# keyed by the rule's content: an id() key could be reused by a new rule
# once the old one is freed
_GRADED_CACHE = {}


def graded_nodes(a, b, rule=DEFAULT_INTERVAL_RULE, levels=GRADED_LEVELS):
    """Composite rule on [a, b] with panels geometrically graded toward a.

    Panel widths shrink with ratio 1/2 over `levels` levels, which keeps
    the quadrature error of power-type singularities at a below the
    discretization errors the engine works at.  Arrays ``a`` and ``b``
    give (L, T) rows, as in :func:`composite_nodes`.
    """
    a, b = _interval_ends(a, b)
    key = (rule.nodes.tobytes(), rule.weights.tobytes(), levels)
    if key not in _GRADED_CACHE:
        _GRADED_CACHE[key] = _graded_reference(rule, levels)
    rts, rws = _GRADED_CACHE[key]
    d = (b - a)[..., None]
    return a[..., None] + d * rts, d * rws


def time_nodes(a, b, graded=False, rule=DEFAULT_INTERVAL_RULE,
               panels=DEFAULT_SMOOTH_PANELS):
    """Quadrature nodes for a time integral over [a, b).

    ``graded=True`` selects the geometrically graded scheme (use for
    integrands singular at ``a``); otherwise a uniform composite rule.
    Arrays ``a`` and ``b`` map the rule onto L intervals in one pass:
    the (L, T) rows of nodes and weights have the bits of L scalar calls.
    """
    if graded:
        return graded_nodes(a, b, rule=rule)
    return composite_nodes(a, b, rule=rule, panels=panels)


def integrate_interval(g, interval, rule=DEFAULT_INTERVAL_RULE, panels=1):
    """Composite-rule value of ``int_a^b g(t) dt``.

    ``g`` must accept numpy arrays.  Exact for polynomials up to the
    rule order on each panel.
    """
    a, b = interval
    ts, ws = composite_nodes(a, b, rule=rule, panels=panels)
    return float(np.dot(ws, g(ts)))


# ---------------------------------------------------------------------------
# triangles

@dataclass(frozen=True)
class SimplexRule:
    """Quadrature rule on the reference triangle, barycentric coordinates.

    Weights sum to one (they are relative to the element area).
    """

    barycentric: np.ndarray   # (K, 3)
    weights: np.ndarray       # (K,)
    order: int


def _dunavant6():
    # 12-point degree-6 rule, all weights positive
    groups = [
        (0.116786275726379, (0.501426509658179, 0.249286745170910,
                             0.249286745170910), 3),
        (0.050844906370207, (0.873821971016996, 0.063089014491502,
                             0.063089014491502), 3),
        (0.082851075618374, (0.053145049844816, 0.310352451033785,
                             0.636502499121399), 6),
    ]
    bary, wts = [], []
    for w, (l1, l2, l3), mult in groups:
        if mult == 3:
            perms = [(l1, l2, l3), (l2, l1, l3), (l2, l3, l1)]
        else:
            perms = [(l1, l2, l3), (l1, l3, l2), (l2, l1, l3),
                     (l2, l3, l1), (l3, l1, l2), (l3, l2, l1)]
        for p in perms:
            bary.append(p)
            wts.append(w)
    return SimplexRule(barycentric=np.array(bary), weights=np.array(wts),
                       order=6)


DEFAULT_SIMPLEX_RULE = _dunavant6()


def map_to_elements(coords, ref):
    """Reference points ``ref`` (R, dim) mapped into every element: (E, R, n).

    ``coords`` is a mesh's ``element_coords``: (E, 2) interval endpoints
    or (E, 3, 2) triangle vertices; a triangle's reference point (s, t)
    maps to v0 + s (v1 - v0) + t (v2 - v0).
    """
    if coords.ndim == 2:
        a, b = coords[:, :1], coords[:, 1:]
        return (a + (b - a) * ref[None, :, 0])[:, :, None]
    v0, v1, v2 = coords[:, None, 0], coords[:, None, 1], coords[:, None, 2]
    return v0 + ref[None, :, :1] * (v1 - v0) + ref[None, :, 1:] * (v2 - v0)


def integrate_domain(g, mesh, rule=DEFAULT_SIMPLEX_RULE):
    """Integral of ``g`` over the domain triangulated by ``mesh``.

    ``g`` is called once, on the (E Q, n) rule points of all E elements;
    the element integrals are its values against the rule weights, times
    ``mesh.areas()``.  For n = 1 the rule is an :class:`IntervalRule`
    (the default interval rule unless ``rule`` is one), for n = 2 a
    :class:`SimplexRule`.
    """
    if mesh.dim == 1:
        rule = rule if isinstance(rule, IntervalRule) else DEFAULT_INTERVAL_RULE
        ref = rule.nodes[:, None]
    else:
        ref = rule.barycentric[:, 1:]
    pts = map_to_elements(mesh.element_coords, ref)
    E, Q, n = pts.shape
    vals = np.asarray(g(pts.reshape(-1, n))).reshape(E, Q)
    return float(mesh.areas() @ (vals @ rule.weights))


# ---------------------------------------------------------------------------
# the fixed spatial grid discretizing X = L2(Omega)

@dataclass
class SpatialGrid:
    """Fixed quadrature node set realizing integrals over Omega.

    ``points`` has shape (M, n) and ``weights`` (M,); weights sum to
    |Omega| = 1.  All L2(Omega) norms in the engine are computed on one
    of these grids, keeping them independent of any adaptive mesh.
    """

    points: np.ndarray
    weights: np.ndarray
    dim: int

    def integrate(self, vals):
        return float(np.dot(self.weights, vals))

    def norm(self, vals, p=2):
        """||vals||_{Lp(Omega)} of nodal values; p = inf maxes over nodes."""
        vals = np.asarray(vals)
        if np.isinf(p):
            return float(np.max(np.abs(vals)))
        return float(np.dot(self.weights, np.abs(vals) ** p) ** (1.0 / p))


def interval_grid(panels=48, rule=DEFAULT_INTERVAL_RULE, singular_at=None,
                  levels=20):
    """Spatial grid on Omega = [0, 1], optionally graded around a point.

    ``singular_at`` grades panels geometrically toward an interior or
    boundary point where the target function has a power singularity.
    """
    if singular_at is None:
        pts, wts = composite_nodes(0.0, 1.0, rule=rule, panels=panels)
    else:
        x0 = float(singular_at)
        pieces = []
        if x0 > 0.0:
            ts, ws = graded_nodes(0.0, x0, rule=rule, levels=levels)
            # grade toward x0: mirror the left-graded reference
            pieces.append((x0 - (ts - 0.0), ws))
        if x0 < 1.0:
            ts, ws = graded_nodes(x0, 1.0, rule=rule, levels=levels)
            pieces.append((ts, ws))
        pts = np.concatenate([p for p, _ in pieces])
        wts = np.concatenate([w for _, w in pieces])
        order = np.argsort(pts)
        pts, wts = pts[order], wts[order]
    return SpatialGrid(points=pts.reshape(-1, 1), weights=wts, dim=1)


def square_grid(depth=4, rule=DEFAULT_SIMPLEX_RULE):
    """Spatial grid on the unit square from a uniform triangulation.

    ``depth`` counts uniform quadrisection levels of the two initial
    triangles (the square cut by the diagonal (0,0)-(1,1)).  Each level
    splits all triangles at once, children in the order (v0, m01, m20),
    (m01, v1, m12), (m20, m12, v2), (m01, m12, m20).
    """
    tris = np.array([[[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]],
                     [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
    for _ in range(depth):
        v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
        m01, m12, m20 = (v0 + v1) / 2, (v1 + v2) / 2, (v2 + v0) / 2
        tris = np.stack([np.stack(c, axis=1) for c in
                         ((v0, m01, m20), (m01, v1, m12), (m20, m12, v2),
                          (m01, m12, m20))], axis=1).reshape(-1, 3, 2)
    (x0, y0), (x1, y1), (x2, y2) = tris[:, 0].T, tris[:, 1].T, tris[:, 2].T
    areas = 0.5 * np.abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    # the rule's points in each triangle: one (K, 3) @ (3, 2) product each
    pts = np.matmul(rule.barycentric, tris).reshape(-1, 2)
    return SpatialGrid(points=pts, weights=(areas[:, None]
                                            * rule.weights).ravel(), dim=2)


def x_norm(g, grid_or_mesh, rule=None):
    """L2(Omega) norm of a pointwise map ``g``.

    Accepts either a :class:`SpatialGrid` (fixed-grid evaluation) or a
    mesh (quadrature on its elements, see :func:`integrate_domain`).
    """
    if isinstance(grid_or_mesh, SpatialGrid):
        vals = g(grid_or_mesh.points)
        return grid_or_mesh.norm(vals, p=2)
    sq = integrate_domain(lambda x: np.asarray(g(x)) ** 2, grid_or_mesh,
                          rule or DEFAULT_SIMPLEX_RULE)
    return float(np.sqrt(max(sq, 0.0)))
