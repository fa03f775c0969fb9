"""Two-step fully discrete approximation and global space-time errors.

Step one partitions [0, T) by the time greedy and projects the field
onto order-r1 polynomials per slice; step two approximates each
coefficient field by the spatial greedy, overlays the meshes of one
slice and reprojects.  The result is a per-slice tensor-product
function whose global L2([0,T) x Omega) error splits, by the triangle
inequality, into the two step errors carried in the build report.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fem import cached_space, fem_project, element_indicators, greedy_space
from .mesh1d import MeshError, greedy_time, stamp_time_cache
from .meshnd import initial_mesh, overlay
from .polyspace import as_slicefn, project_time_slice
from .smoothness import BesovParams, SmoothnessParams, besov_seminorm_discrete


class SpacetimeError(ValueError):
    pass


@dataclass
class TimeSpacePartition:
    """A time partition plus one spatial mesh per slice."""

    time: object                 # IntervalMesh of [0, T)
    slice_meshes: list

    def __post_init__(self):
        if len(self.slice_meshes) != self.time.size:
            raise SpacetimeError("one spatial mesh per time slice required")

    @property
    def cardinality(self):
        return sum(m.size for m in self.slice_meshes)


class FullyDiscreteFn:
    """Per-slice sum_j W_j(t) F_j(x) with FE coefficient functions."""

    def __init__(self, partition, bases, coeff_fems):
        self.partition = partition
        self.bases = list(bases)
        self.coeff_fems = [list(fs) for fs in coeff_fems]

    def slice_values(self, i, ts):
        """Values at (ts x slice quadrature points): (len(ts), M_i).

        Also returns the spatial points and weights used, so callers
        can integrate against them.
        """
        fems = self.coeff_fems[i]
        space = fems[0].space
        pts = space.quad_points()
        E, Q, n = pts.shape
        flat = pts.reshape(-1, n)
        wx = space.quad_weights()
        w_mat = self.bases[i].eval(ts)                      # (T, r1)
        cols = np.stack([f.element_quad_values().ravel() for f in fems])
        return w_mat @ cols, flat, wx


def _time_seminorm_estimate(f, r1):
    reg = f.regularity
    s1 = reg.s1 if reg is not None and reg.s1 else float(r1)
    q1 = reg.q1 if reg is not None and reg.q1 else 2.0
    bp = BesovParams(s=s1, q=q1, r=max(math.floor(s1) + 1, 1), kmax=12)
    sp = SmoothnessParams(r=bp.order, p=q1, h_per_octave=8, h_octaves=3)
    sem = besov_seminorm_discrete(f, (0.0, f.domain.T), bp, sp)
    return s1, q1, sem


def build_fully_discrete(f, eps, r1, r2, time_seminorm=None,
                         max_level=30, max_gen=40, time_cache=None):
    """Construct the fully discrete approximant at tolerance eps.

    Each step receives half the error budget.  The time-greedy
    threshold follows the tolerance rule delta = eta^{(s1+1/2)/s1} * B
    with eta = (eps/2)/B and B the (numerically truncated) time Besov
    seminorm estimate of f; spatial tolerances distribute the remaining
    budget over the coefficient fields proportionally to their mass.
    An explicit ``time_seminorm`` replaces the estimate.

    ``time_cache`` (a dict, optional) carries work across a sweep: the
    time greedy's leaf errors, keyed by (level, index) cell, and the
    seminorm estimate (s1, q1, B), keyed by ``("time_seminorm", r1)``,
    which does not depend on eps.  The first call stamps it with ``f``
    and r1 (and p = 2); passing it later with another field object or
    r1 raises :class:`SpacetimeError`.  An explicit ``time_seminorm``
    is neither read from nor stored in it.

    Within one call, all the ``greedy_space`` runs of all slices and
    coefficients, and each slice's final projection, share one space
    cache (see ``fem``): a mesh that several slices reach is built,
    assembled and refined once.  That cache is dropped on return.
    Returns (TimeSpacePartition, FullyDiscreteFn, report).
    """
    if not eps > 0:
        raise SpacetimeError(f"eps must be positive, got {eps}")
    if r2 < 2:
        raise SpacetimeError("r2 must be >= 2")
    n = f.domain.n

    cache = {} if time_cache is None else time_cache
    try:
        stamp_time_cache(cache, f, r1, 2)
    except MeshError as e:
        raise SpacetimeError(str(e)) from e
    if time_seminorm is not None:
        reg = f.regularity
        s1 = reg.s1 if reg is not None and reg.s1 else float(r1)
        sem = float(time_seminorm)
    else:
        key = ("time_seminorm", r1)     # never a (level, index) leaf cell
        if key not in cache:
            cache[key] = _time_seminorm_estimate(f, r1)
        s1, _, sem = cache[key]

    budget = eps / 2.0
    if sem > 1e-12:
        eta = budget / sem
        delta1 = eta ** ((s1 + 0.5) / s1) * sem
    else:
        delta1 = budget
    gt = greedy_time(f, r1, 2, delta1, max_level=max_level, cache=cache)
    part = gt.partition
    err_time = gt.global_error(p=2)

    coeff_norms = np.array([[c.norm(2) for c in piece.coeffs]
                            for piece in gt.pieces])       # (N, r1)
    total_mass = float(np.sqrt((coeff_norms ** 2).sum()))

    space_cache = {}
    slice_meshes, bases, coeff_fems, per_slice = [], [], [], []
    err_space_sq = 0.0
    for i, piece in enumerate(gt.pieces):
        bases.append(piece.basis)
        meshes = []
        for j, coeff in enumerate(piece.coeffs):
            w = coeff_norms[i, j]
            if total_mass <= 1e-14 or w <= 1e-12 * total_mass:
                meshes.append(initial_mesh(n))
                continue
            delta2 = budget * w / total_mass
            mesh_ij, _, _ = greedy_space(coeff.at_points, r2, delta2, n=n,
                                         max_gen=max_gen, cache=space_cache)
            meshes.append(mesh_ij)
        slice_mesh = meshes[0]
        for m in meshes[1:]:
            slice_mesh = overlay(slice_mesh, m)
        space = cached_space(slice_mesh, r2, space_cache)
        fems, errs = [], []
        for coeff in piece.coeffs:
            fem = fem_project(coeff.at_points, slice_mesh, r2, space=space)
            eta_k, _ = element_indicators(coeff.at_points, slice_mesh, r2,
                                          fem=fem)
            fems.append(fem)
            errs.append(float(np.sqrt((eta_k ** 2).sum())))
        err_space_sq += float(np.sum(np.array(errs) ** 2))
        slice_meshes.append(slice_mesh)
        coeff_fems.append(fems)
        per_slice.append({"mesh_size": slice_mesh.size, "errors_per_j": errs})

    partition = TimeSpacePartition(time=part, slice_meshes=slice_meshes)
    fd = FullyDiscreteFn(partition, bases, coeff_fems)
    report = {
        "eps": float(eps),
        "N_time": part.size,
        "per_slice": per_slice,
        "total_cardinality": partition.cardinality,
        "error_time_step": err_time,
        "error_space_step": float(np.sqrt(err_space_sq)),
        "global_error": None,
    }
    report["global_error"] = global_error(f, fd)
    return partition, fd, report


def global_error(f, fd: FullyDiscreteFn) -> float:
    """||f - F||_{L2([0,T) x Omega)} by per-slice quadrature."""
    fn = as_slicefn(f)
    part = fd.partition.time
    total = 0.0
    for i, cell in enumerate(part.cells):
        a, b = part.interval(cell)
        ts, wt = fn.quad(a, b)
        fvals_proxy, pts, wx = fd.slice_values(i, ts)
        fvals = f.sample(ts, pts)
        diff2 = (fvals - fvals_proxy) ** 2
        total += float(wt @ (diff2 @ wx))
    return math.sqrt(max(total, 0.0))


# ---------------------------------------------------------------------------
# spatial Besov norms on a fixed fine grid (directional differences)

def _spatial_norm_rows_1d(vals, s, q, r, kmax=None):
    # vals: (T, M) on a uniform grid over [0, 1]
    T, M = vals.shape
    spacing = 1.0 / (M - 1)
    kmax_grid = int(math.floor(math.log2((M - 1) / r)))
    kmax = kmax_grid if kmax is None else min(kmax, kmax_grid)
    if np.isinf(q):
        lq = np.max(np.abs(vals), axis=1)
    else:
        lq = (spacing * np.sum(np.abs(vals) ** q, axis=1)) ** (1.0 / q)
    terms = []
    for k in range(kmax + 1):
        step = max(int(round(2.0 ** (-k) * (M - 1))), 1)
        d = vals.copy()
        for _ in range(r):
            d = d[:, step:] - d[:, :-step]
        if np.isinf(q):
            om = np.max(np.abs(d), axis=1)
        else:
            om = (spacing * np.sum(np.abs(d) ** q, axis=1)) ** (1.0 / q)
        terms.append(2.0 ** (k * s) * om)
    terms = np.stack(terms)                      # (K, T)
    if np.isinf(q):
        sem = np.max(terms, axis=0)
    else:
        sem = np.sum(terms ** q, axis=0) ** (1.0 / q)
    return lq + sem


_DIRECTIONS_2D = [(1, 0), (0, 1), (1, 1), (1, -1)]


def _spatial_norm_rows_2d(vals, s, q, r, grid_n, kmax=None):
    # vals: (T, (grid_n+1)**2) on the lattice of the unit square
    T = vals.shape[0]
    V = vals.reshape(T, grid_n + 1, grid_n + 1)    # [t, iy, ix]
    cell = 1.0 / grid_n
    if np.isinf(q):
        lq = np.max(np.abs(vals), axis=1)
    else:
        lq = (cell ** 2 * np.sum(np.abs(vals) ** q, axis=1)) ** (1.0 / q)
    kmax_grid = int(math.floor(math.log2(grid_n / r)))
    kmax = kmax_grid if kmax is None else min(kmax, kmax_grid)

    def shift_diff(oi, oj, order):
        d = V
        for _ in range(order):
            ny, nx = d.shape[1], d.shape[2]
            ylo, yhi = (0, ny - oj) if oj >= 0 else (-oj, ny)
            xlo, xhi = (0, nx - oi) if oi >= 0 else (-oi, nx)
            d = d[:, ylo + oj:yhi + oj, xlo + oi:xhi + oi] - d[:, ylo:yhi,
                                                               xlo:xhi]
        return d

    terms = []
    for k in range(kmax + 1):
        u = 2.0 ** (-k)
        best = np.zeros(T)
        for di, dj in _DIRECTIONS_2D:
            length = math.hypot(di, dj) * cell
            c = max(int(math.floor(u / length)), 1)
            d = shift_diff(c * di, c * dj, r)
            if np.isinf(q):
                om = np.max(np.abs(d.reshape(T, -1)), axis=1)
            else:
                om = (cell ** 2 * np.sum(np.abs(d.reshape(T, -1)) ** q,
                                         axis=1)) ** (1.0 / q)
            best = np.maximum(best, om)
        terms.append(2.0 ** (k * s) * best)
    terms = np.stack(terms)
    if np.isinf(q):
        sem = np.max(terms, axis=0)
    else:
        sem = np.sum(terms ** q, axis=0) ** (1.0 / q)
    return lq + sem


def _fine_grid(n, grid_n):
    if n == 1:
        return np.linspace(0.0, 1.0, grid_n + 1).reshape(-1, 1)
    ax = np.linspace(0.0, 1.0, grid_n + 1)
    gx, gy = np.meshgrid(ax, ax)                 # gy varies along rows
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def projection_stability_check(f, interval, r1, s2, q2, grid_n=None) -> float:
    """Ratio of L2(I, B-norm) of the time projection G over that of f.

    Spatial Besov norms are computed by directional differences on a
    fixed fine grid.  Requires q2 >= 1; raises on a vanishing
    denominator.
    """
    if q2 < 1:
        raise SpacetimeError(f"stability check requires q2 >= 1, got {q2}")
    n = f.domain.n
    grid_n = grid_n or (1024 if n == 1 else 64)
    r_b = math.floor(s2) + 1
    pts = _fine_grid(n, grid_n)

    fn = as_slicefn(f)
    a, b = float(interval[0]), float(interval[1])
    ts, wt = fn.quad(a, b)
    poly = project_time_slice(f, interval, r1)
    fvals = f.sample(ts, pts)
    w_mat = poly.basis.eval(ts)
    gcols = np.stack([c.at_points(pts) for c in poly.coeffs])
    gvals = w_mat @ gcols

    if n == 1:
        nf = _spatial_norm_rows_1d(fvals, s2, q2, r_b)
        ng = _spatial_norm_rows_1d(gvals, s2, q2, r_b)
    else:
        nf = _spatial_norm_rows_2d(fvals, s2, q2, r_b, grid_n)
        ng = _spatial_norm_rows_2d(gvals, s2, q2, r_b, grid_n)
    den = math.sqrt(max(float(wt @ nf ** 2), 0.0))
    num = math.sqrt(max(float(wt @ ng ** 2), 0.0))
    if den < 1e-14:
        raise SpacetimeError("zero denominator in stability check")
    return num / den
