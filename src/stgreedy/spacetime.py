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

from .fem import FemError, FemSpace, greedy_spaces
# unused here; kept bound for bench/tracer.py
from .fem import element_indicators, fem_project, greedy_space  # noqa: F401
from .mesh1d import MeshError, greedy_time, stamp_time_cache
from .meshnd import initial_mesh, overlay
from .polyspace import PolyspaceError, as_slicefn, check_order, \
    project_time_slice, time_blocks
from .quadrature import _power_root
from .smoothness import BesovParams, SmoothnessParams, besov_seminorm_discrete
from .xvalued import budget_rows, row_blocks


class SpacetimeError(ValueError):
    pass


# key of the FE space cache within a time cache; no (level, index) cell
# equals it
_SPACE_CACHE = ("fem spaces",)


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

    def slice_parts(self, i):
        """(basis, cols, points, weights) of slice i.

        ``cols`` holds the coefficient functions' values at the slice's
        quadrature points, shape (r1, P); the values on (ts x points)
        are ``basis.eval(ts) @ cols``.
        """
        fems = self.coeff_fems[i]
        space = fems[0].space
        pts = space.quad_points()
        cols = np.stack([f.element_quad_values().ravel() for f in fems])
        return (self.bases[i], cols, pts.reshape(-1, pts.shape[-1]),
                space.quad_weights())


def time_seminorm_params(reg, r1):
    """(BesovParams, SmoothnessParams) of the time seminorm estimate.

    s1 and q1 are those the Regularity ``reg`` declares, or r1 and 2
    where it declares none (None); BesovParams checks them.
    """
    s1 = float(r1) if reg is None or reg.s1 is None else reg.s1
    q1 = 2.0 if reg is None or reg.q1 is None else reg.q1
    # BesovParams checks s1 before its order floor(s1) + 1 is taken
    bp = BesovParams(s=s1, q=q1, kmax=12)
    return bp, SmoothnessParams(r=bp.order, p=q1, h_per_octave=8,
                                h_octaves=3)


def build_fully_discrete(f, eps, r1, r2, time_cache=None):
    """Construct the fully discrete approximant at tolerance eps.

    Each step receives half the error budget.  The time-greedy
    threshold follows the tolerance rule delta = eta^{(s1+1/2)/s1} * B
    with eta = (eps/2)/B and B the (numerically truncated) time Besov
    seminorm estimate of f; spatial tolerances distribute the remaining
    budget over the coefficient fields proportionally to their mass.

    ``time_cache`` (a dict, optional) carries work across a sweep: the
    time greedy's ``(error, piece)`` per (level, index) cell (see
    ``greedy_time``; the pieces are shared by every call that reads the
    cache and are read-only), the seminorm estimate B, keyed by
    ``("time_seminorm", r1)``, which does not depend on eps, and the
    space cache of the spatial greedies (see below).
    The first call stamps it with ``f`` and r1 (and p = 2); passing it
    later with another field object or r1 raises
    :class:`SpacetimeError`.

    The spatial step is two ``greedy_spaces`` calls.  The first runs the
    greedies of all (slice, coefficient) pairs with mass from the
    initial mesh, in lockstep, so the functions that reach one mesh in
    a round share one sparse solve.  A coefficient whose greedy mesh is
    its slice's overlaid mesh (always so with r1 = 1) keeps its greedy
    projection and last error.  The second call projects the others
    onto their slice meshes, as runs at delta ``math.inf`` that start
    there: one stack and one solve per distinct slice mesh.  Each
    coefficient goes to both as its FE term (see ``XVal.term``): for a
    separable field, a multiple of its one spatial factor, which each
    stack then evaluates once.  Both calls share one space cache (see
    ``fem``): a mesh that several slices reach is built, assembled and
    refined once.  That cache lives in ``time_cache``, as long as it
    does, so a sweep builds each space and refinement once: both are
    pure functions of their keys, which hold r2 where it matters, and
    depend on neither the field nor eps.  Over a geometric sweep its
    entries add up to about one finest build's worth of spaces.
    Without ``time_cache`` it is dropped on return.
    Returns (TimeSpacePartition, FullyDiscreteFn, report).
    """
    if not eps > 0:
        raise SpacetimeError(f"eps must be positive, got {eps}")
    n = f.domain.n

    cache = {} if time_cache is None else time_cache
    try:
        check_order(r1, f.domain.rule)
        FemSpace.check_order(r2, n)
        stamp_time_cache(cache, f, r1, 2)
    except (PolyspaceError, FemError, MeshError) as e:
        raise SpacetimeError(str(e)) from e
    bp, sp = time_seminorm_params(f.regularity, r1)
    s1 = bp.s
    key = ("time_seminorm", r1)     # never a (level, index) leaf cell
    if key not in cache:
        cache[key] = besov_seminorm_discrete(f, (0.0, f.domain.T), bp, sp)
    sem = cache[key]

    budget = eps / 2.0
    if sem > 1e-12:
        eta = budget / sem
        delta1 = eta ** ((s1 + 0.5) / s1) * sem
    else:
        delta1 = budget
    gt = greedy_time(f, r1, 2, delta1, cache=cache)
    part = gt.partition
    err_time = gt.global_error(p=2)

    coeff_norms = np.array([[c.norm(2) for c in piece.coeffs]
                            for piece in gt.pieces])       # (N, r1)
    total_mass = float(np.sqrt((coeff_norms ** 2).sum()))

    # one spatial greedy per (slice, coefficient) with mass, all in lockstep
    jobs, deltas = [], []
    for i, piece in enumerate(gt.pieces):
        for j in range(len(piece.coeffs)):
            w = coeff_norms[i, j]
            if not (total_mass <= 1e-14 or w <= 1e-12 * total_mass):
                jobs.append((i, j))
                deltas.append(budget * w / total_mass)
    # the FE spaces and refinements depend on neither the field nor eps
    space_cache = cache.setdefault(_SPACE_CACHE, {})
    runs = dict(zip(jobs, greedy_spaces(
        [gt.pieces[i].coeffs[j].term for i, j in jobs], r2, deltas,
        [initial_mesh(n)] * len(jobs), cache=space_cache)))

    slice_meshes, redo = [], []
    for i, piece in enumerate(gt.pieces):
        meshes = [runs[i, j][0] if (i, j) in runs else initial_mesh(n)
                  for j in range(len(piece.coeffs))]
        slice_mesh = meshes[0]
        for m in meshes[1:]:
            slice_mesh = overlay(slice_mesh, m)
        slice_meshes.append(slice_mesh)
        # a greedy on the slice mesh made its last projection onto it
        redo += [(i, j) for j, m in enumerate(meshes)
                 if (i, j) not in runs or m.key != slice_mesh.key]
    # the others are projected onto their slice mesh: a run at delta inf
    runs.update(zip(redo, greedy_spaces(
        [gt.pieces[i].coeffs[j].term for i, j in redo], r2,
        [math.inf] * len(redo), [slice_meshes[i] for i, _ in redo],
        cache=space_cache)))

    coeff_fems, per_slice = [], []
    err_space_sq = 0.0
    for i, piece in enumerate(gt.pieces):
        fems = [runs[i, j][1] for j in range(len(piece.coeffs))]
        errs = [runs[i, j][2][-1][1] for j in range(len(piece.coeffs))]
        err_space_sq += float(np.sum(np.array(errs) ** 2))
        coeff_fems.append(fems)
        per_slice.append({"mesh_size": slice_meshes[i].size,
                          "errors_per_j": errs})

    partition = TimeSpacePartition(time=part, slice_meshes=slice_meshes)
    fd = FullyDiscreteFn(partition, [piece.basis for piece in gt.pieces],
                         coeff_fems)
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


def _combine(w, cols):
    """w @ cols; with one time coefficient the broadcast product, which
    has the bits of the (rows, 1) @ (1, P) gemm at a fraction of its
    call cost."""
    return w * cols[0] if len(cols) == 1 else w @ cols


def global_error(f, fd: FullyDiscreteFn) -> float:
    """||f - F||_{L2([0,T) x Omega)} by per-slice quadrature.

    The time nodes and bases of the slices come from one array pass per
    block of ``polyspace.time_blocks``, each slice with the bits of its
    own ``quad`` and ``basis.eval``.  Each slice streams its time nodes
    in row blocks sized by its quadrature points (see
    ``xvalued.row_blocks``), and samples f through the ``Field.sampler``
    of its space's quadrature points.  The slices that share one FE
    space (an equal overlaid mesh, from one space cache) share one
    sampler, so a separable field's spatial factor is computed once per
    distinct slice space, not per slice or block.  The slices'
    integrals are summed in slice order, as one at a time.
    """
    fn = as_slicefn(f)
    part = fd.partition.time
    a, b = np.array([part.interval(cell) for cell in part.cells]).T
    total, samplers = 0.0, {}
    # the graded group, only ever the slice at t = 0, comes first: so the
    # slices come in order, and the sum keeps the bits of one at a time
    for rows, ts, wt, w_rows in time_blocks(fn, a, b, fd.bases[0].r):
        for j, i in enumerate(rows):
            _, cols, pts, wx = fd.slice_parts(i)
            w_mat = w_rows[j].T
            space = fd.coeff_fems[i][0].space
            if space not in samplers:
                samplers[space] = f.sampler(pts)
            sample = samplers[space]
            blocks = row_blocks(ts.shape[1], budget_rows(len(pts)))
            err2 = np.concatenate([
                ((sample(ts[j, lo:hi]) - _combine(w_mat[lo:hi], cols)) ** 2)
                @ wx for lo, hi in blocks])
            total += float(wt[j] @ err2)
    return math.sqrt(max(total, 0.0))


# ---------------------------------------------------------------------------
# spatial Besov norms on a fixed fine lattice (directional differences)

# lattice directions per dimension, as (x, y) offsets in cells
_DIRECTIONS = {1: [(1,)], 2: [(1, 0), (0, 1), (1, 1), (1, -1)]}


def _shifted(o):
    # the slices of p + o and of p along one lattice axis: d[o:], d[:-o]
    # for o > 0; both are empty when |o| reaches past the axis
    return (slice(max(o, 0), min(o, 0) or None),
            slice(max(-o, 0), min(-o, 0) or None))


def _lattice_norm_rows(vals, s, q, r, n, grid_n):
    """Per-row Besov norm ||g||_q + |g|_{B^s_q} on the (grid_n+1)^n lattice.

    vals: (T, (grid_n+1)**n), x varying fastest.  For each level k and
    direction the step is the longest lattice step of length at most
    2^-k; an r-th difference whose domain is empty contributes 0.
    """
    T = vals.shape[0]
    V = vals.reshape((T,) + (grid_n + 1,) * n)     # [t, (iy,) ix]
    cell = 1.0 / grid_n

    def lq_rows(d):
        return _power_root(lambda y: cell ** n * np.sum(y, axis=1),
                           np.abs(d.reshape(T, -1)), q, axis=1)

    terms = []
    for k in range(int(math.floor(math.log2(grid_n / r))) + 1):
        best = np.zeros(T)
        for direction in _DIRECTIONS[n]:
            length = math.hypot(*direction) * cell
            c = max(int(math.floor(2.0 ** (-k) / length)), 1)
            hi, lo = zip(*[_shifted(c * o) for o in reversed(direction)])
            d = V
            for _ in range(r):
                d = d[(...,) + hi] - d[(...,) + lo]
            best = np.maximum(best, lq_rows(d))
        terms.append(2.0 ** (k * s) * best)
    sem = _power_root(lambda y: np.sum(y, axis=0), np.stack(terms), q,
                      axis=0)                    # terms: (K, T)
    return lq_rows(vals) + sem


def _fine_grid(n, grid_n):
    ax = np.linspace(0.0, 1.0, grid_n + 1)
    return np.stack(np.meshgrid(*[ax] * n), axis=-1).reshape(-1, n)


# Cells per side of the lattice of projection_stability_check's spatial
# Besov norms, per dimension n: (STABILITY_GRID[n] + 1)^n points.
STABILITY_GRID = {1: 1024, 2: 64}


def projection_stability_check(f, interval, r1, s2, q2) -> float:
    """Ratio of L2(I, B-norm) of the time projection G over that of f.

    Spatial Besov norms are computed by directional differences on the
    fixed fine lattice of ``STABILITY_GRID`` (n = 1 and 2).  Requires a
    finite s2 > 0 and q2 >= 1, with the difference order floor(s2) + 1
    at most the lattice's cells per side; raises on a vanishing
    denominator.
    """
    if not (math.isfinite(s2) and s2 > 0):
        raise SpacetimeError(
            f"stability check requires a finite s2 > 0, got {s2}")
    if not q2 >= 1:
        raise SpacetimeError(f"stability check requires q2 >= 1, got {q2}")
    n = f.domain.n
    grid_n = STABILITY_GRID[n]
    r_b = math.floor(s2) + 1
    if not r_b <= grid_n:
        raise SpacetimeError(
            f"stability check requires floor(s2) + 1 <= {grid_n}, the "
            f"lattice's cells per side, got s2 = {s2}")
    pts = _fine_grid(n, grid_n)

    ts, wt = as_slicefn(f).quad(float(interval[0]), float(interval[1]))
    gvals = project_time_slice(f, interval, r1).values(ts, pts)
    nf = _lattice_norm_rows(f.sample(ts, pts), s2, q2, r_b, n, grid_n)
    ng = _lattice_norm_rows(gvals, s2, q2, r_b, n, grid_n)
    den = math.sqrt(max(float(wt @ nf ** 2), 0.0))
    num = math.sqrt(max(float(wt @ ng ** 2), 0.0))
    if den < 1e-14:
        raise SpacetimeError("zero denominator in stability check")
    return num / den
