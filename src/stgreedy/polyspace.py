"""Vector-valued polynomial spaces on a time interval.

Orthonormal time bases, L2(I, X) projections, best-approximation
errors, the constructive quasi-best approximant driven by near-median
constants, and the node-value norm equivalent to integral norms on the
polynomial space.
"""

import math

import numpy as np

from .fields import Field
from .quadrature import time_nodes
from .xvalued import SliceFn, XVal, leaf_blocks, pairwise_lp_distance

DEFAULT_MEDIAN_SAMPLES = 129
MEDIAN_TIE_RTOL = 1e-12     # relative tie tolerance of median_constant

# An r-th difference sums r + 1 values with signs whose magnitudes add to
# 2^r, so its roundoff reaches 2^r units of 2^-53 relative to the values:
# from order 53 on, no digit of the difference is left.
MAX_DIFFERENCE_ORDER = 52

# jackson_construct peels monomials off one by one, dividing the near-median
# of the k-th difference by h^k k! with h = 1/(2r), so its error grows about
# tenfold per order past the best error.  Scanned over the corpus (the five
# families and poly(d, 1) for d < 8, on [0, 1) and [0.5, 1), p in {0.5, 1,
# 2, inf}, Gauss rules of 10, 12, 16, 24 and 64 points), its Lp error is
# within CONSTRUCT_ERROR_RATIO times that of the L2 projection of the same
# order (floored at 1e-13 ||f||_p, where both are roundoff) up to r = 10, at
# most 1.9e4; r = 11 reaches 1.3e5 and r = 12 7.7e5, and by r = 20 the error
# is O(1) where the best error is 1e-15.
CONSTRUCT_ERROR_RATIO = 1e5
MAX_CONSTRUCT_ORDER = 10


class PolyspaceError(ValueError):
    pass


def check_order(r, rule, p=2):
    """Raise :class:`PolyspaceError` unless ``slice_approximant`` can
    build an order-r approximant in Lp with the time rule ``rule``.

    Its integrals take products of degree 2 r - 2, which the rule must
    integrate exactly (r <= points for a Gauss rule); for p != 2 it is
    the constructive approximant, whose order ``check_construct_order``
    bounds.
    """
    if not (1 <= r and 2 * r - 2 <= rule.order):
        raise PolyspaceError(
            f"order r must be in [1, {rule.order // 2 + 1}], where the time "
            f"rule (exact to degree {rule.order}) integrates the products "
            f"of degree 2 r - 2 exactly, got {r}")
    if p != 2:
        check_construct_order(r)


def check_construct_order(r):
    """Raise :class:`PolyspaceError` unless ``jackson_construct`` keeps
    order r within ``CONSTRUCT_ERROR_RATIO`` of the best error (in any
    norm)."""
    if r > MAX_CONSTRUCT_ORDER:
        raise PolyspaceError(
            f"order r must be at most {MAX_CONSTRUCT_ORDER} for the "
            f"constructive approximant, whose error is within "
            f"{CONSTRUCT_ERROR_RATIO:g} times the best error only up to "
            f"there, got {r}")


def as_slicefn(f) -> SliceFn:
    if isinstance(f, SliceFn):
        return f
    if isinstance(f, Field):
        return SliceFn.from_field(f)
    raise PolyspaceError(f"cannot view {type(f).__name__} as a slice function")


class TimeBasis:
    """Orthonormal polynomial family on [a, b): shifted Legendre.

    ``eval(ts)`` returns the (len(ts), r) matrix of basis values; the
    Gram matrix of the family in L2([a, b)) is the identity.
    """

    def __init__(self, interval, r):
        if r < 1:
            raise PolyspaceError(f"polynomial order must be >= 1, got {r}")
        a, b = float(interval[0]), float(interval[1])
        if not b > a:
            raise PolyspaceError(f"degenerate interval [{a}, {b})")
        self.interval = (a, b)
        self.r = int(r)
        self._a, self._d = a, b - a

    def eval(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return basis_rows(np.array([self._a]), np.array([self._d]), self.r,
                          ts[None])[0].T


def basis_rows(a, d, r, ts):
    """The order-r orthonormal bases of L intervals at their time nodes.

    ``a`` and ``d`` hold the L left ends and lengths and ``ts`` the
    (L, T) nodes.  Returns (L, r, T) values: slab i is, bit for bit, the
    transpose of the ``eval`` of ``[a[i], a[i] + d[i])``'s TimeBasis at
    ts[i], and is C-contiguous, as that transpose is.
    """
    xi = 2.0 * (ts - a[:, None]) / d[:, None] - 1.0
    v = np.polynomial.legendre.legvander(xi, r - 1)       # (L, T, r)
    w = np.ascontiguousarray(v.transpose(0, 2, 1))
    w *= np.sqrt((2 * np.arange(r) + 1) / d[:, None])[:, :, None]
    return w


def time_blocks(fn, a, b, r):
    """Time nodes, weights and order-r basis values of many intervals.

    Yields (rows, ts, ws, w_rows) over the intervals [a[i], b[i)) of the
    slice function ``fn``: rows indexes a and b, ts and ws are (L, T)
    and w_rows the (L, r, T) ``basis_rows``.  The intervals go in
    blocks of whole intervals, in order, with one pass per time rule in
    each block (``SliceFn.quad_groups``, graded rule first).  A block's
    arrays, with the (L, T) and (L, r, T) temporaries of its basis, hold
    about ``xvalued._BLOCK_BYTES``.
    """
    T = len(fn.rule.weights) * fn.panels
    for lo, hi in leaf_blocks(len(a), (2 * r + 4) * T):
        for rows, ts, ws in fn.quad_groups(a[lo:hi], b[lo:hi]):
            rows = rows + lo
            yield rows, ts, ws, basis_rows(a[rows], b[rows] - a[rows], r, ts)


def orthonormal_time_basis(interval, r) -> TimeBasis:
    return TimeBasis(interval, r)


class SlicePoly:
    """Polynomial P(t) = sum_j W_j(t) G_j with X-valued coefficients."""

    def __init__(self, basis: TimeBasis, coeffs):
        if len(coeffs) != basis.r:
            raise PolyspaceError("coefficient count must equal the order r")
        self.basis = basis
        self.coeffs = list(coeffs)

    @property
    def interval(self):
        return self.basis.interval

    def value_at(self, t) -> XVal:
        w = self.basis.eval([t])[0]
        return xval_combination(self.coeffs, w)

    def values(self, ts, points):
        """Dense evaluation on ts x points, shape (len(ts), len(points))."""
        w = self.basis.eval(ts)
        cols = np.stack([c.at_points(points) for c in self.coeffs])
        return w @ cols

    def residual(self, fn: SliceFn) -> SliceFn:
        """fn - P as a new slice function."""
        return fn.minus_expansion(self.basis.eval, self.coeffs)


def xval_combination(xvals, weights):
    """Linear combination of X values, preserving a shared profile."""
    grid = xvals[0].grid
    terms = list(zip(weights, xvals))

    def vals():
        return sum(w * x.vals for w, x in terms)
    profile = xvals[0].profile
    if profile is not None and all(x.separable and x.profile is profile
                                   for x in xvals):
        mu = float(sum(w * x.mu for w, x in terms))
        return XVal(grid, vals, mu=mu, profile=profile)

    def evaluable(x):
        return x.fn is not None or (x.separable and x.profile.fn is not None)

    fn = None
    if all(evaluable(x) for x in xvals):
        def fn(points):
            acc = 0.0
            for w, x in terms:
                acc = acc + w * x.at_points(points)
            return acc
    return XVal(grid, vals(), fn=fn)


def _projected_poly(fn, basis, ts, g, wts) -> SlicePoly:
    """The projection on one interval as a SlicePoly: nodes ``ts``, (r, k)
    coefficients ``g`` and ``wts``, the rows ws * W_j at the nodes.

    A coefficient evaluates off the grid by the same quadrature
    combination of the backing field's samples, when there is one.
    """
    coeffs = []
    for j in range(basis.r):
        off_grid = None
        if fn.source is not None:
            def off_grid(points, _ts=ts, _w=wts[j]):
                # same quadrature combination at arbitrary points
                return _w @ fn.sample_at(_ts, points)
        coeffs.append(fn.factor.xval(g[j], off_grid))
    return SlicePoly(basis, coeffs)


def _projection_error(total, gsq, residual) -> float:
    """||f - P||_{L2(I, X)} from ||f||^2 (``total``) and sum_j ||G_j||^2.

    Computed by orthogonality as sqrt(||f||^2 - sum_j ||G_j||^2); a
    radicand below -1e-10 signals inconsistent quadrature.  When the
    radicand sits below the cancellation floor of that difference the
    residual norm ``residual()`` is integrated directly instead.
    """
    rad = total - gsq
    if rad < -1e-10 * max(1.0, total):
        raise PolyspaceError(f"negative best-error radicand {rad}")
    if rad > 1e-12 * max(1.0, total):
        return math.sqrt(rad)
    # near-exact reproduction: integrate the residual, no cancellation
    return math.sqrt(max(residual(), 0.0))


def _project_slices(f, intervals, r):
    """[(P, ||f - P||_{L2(I, X)})] of the projection on each interval I.

    The nodes and bases of many intervals come from one array pass per
    ``time_blocks`` block.  The field is sampled in blocks of whole
    intervals within ``xvalued._BLOCK_BYTES`` (one interval at a time on
    a spatial grid, a whole batch for a separable field); each block's
    G = W^T diag(ws) C is one stacked matmul, one BLAS call per interval
    with its own shapes, and its squared norms one reduction per
    interval.  So every result has the bits of its one-interval call.
    Overflow there is not warned about: the error is then not finite,
    which the callers report.
    """
    fn = as_slicefn(f)
    check_order(r, fn.rule)
    bases = [TimeBasis((float(iv[0]), float(iv[1])), r) for iv in intervals]
    a, b = np.array([basis.interval for basis in bases]).reshape(-1, 2).T
    k = fn.factor.width
    out = [None] * len(bases)
    for rows, ts, ws, w_rows in time_blocks(fn, a, b, r):
        T = ts.shape[1]
        for lo, hi in leaf_blocks(len(rows), T * k):
            coef = fn.coef(ts[lo:hi].ravel()).reshape(hi - lo, T, -1)
            w, wq = w_rows[lo:hi], ws[lo:hi]
            with np.errstate(over="ignore"):
                g = np.matmul(w, wq[:, :, None] * coef)      # (L, r, k)
                totals = fn.factor.sq_sum(coef, wq).tolist()
                gsqs = fn.factor.sq_sum(g).tolist()
                wts = w * wq[:, None, :]                  # ws * W_j rows
                for j, i in enumerate(rows[lo:hi]):
                    def residual(j=j):
                        res = coef[j] - w[j].T @ g[j]
                        return fn.factor.sq_sum(res[None], wq[j][None])[0]
                    err = _projection_error(totals[j], gsqs[j], residual)
                    out[i] = (_projected_poly(fn, bases[i], ts[lo + j], g[j],
                                              wts[j]), err)
    return out


def project_time_slice(f, interval, r) -> SlicePoly:
    """L2(I, X)-orthogonal projection of f onto polynomials of order r.

    Coefficients are the time integrals of f against the orthonormal
    basis, computed by quadrature (graded when the slice touches a
    declared singularity at t = 0); a one-interval call of the stacked
    projection of ``slice_approximants``.
    """
    return _project_slices(f, [interval], r)[0][0]


def best_error(f, interval, r) -> float:
    """E_r(f, I)_2: distance of f to order-r polynomials in L2(I, X)."""
    return _project_slices(f, [interval], r)[0][1]


def median_constant(f, interval, p, samples=DEFAULT_MEDIAN_SAMPLES) -> XVal:
    """Near-best constant approximation a0 = f(z) in Lp(I, X).

    z minimizes g(y) = ||f - f(y)||_{Lp(I, X)} (for p = inf, the max
    over quadrature nodes) over a uniform grid of `samples` midpoints of
    I.  Candidates whose g is not finite are skipped; if none is finite,
    PolyspaceError is raised.  Values of g^p within a relative
    MEDIAN_TIE_RTOL of the minimum count as tied (so values of g within
    a factor (1 + MEDIAN_TIE_RTOL)^(1/p), and p = inf maxima within 1 +
    MEDIAN_TIE_RTOL), so that roundoff cannot decide, and ties break
    toward the smallest z.  So g(z)^p is at most (1 + MEDIAN_TIE_RTOL)
    times the mean of g^p, which bounds ||f - a0||^p_p by the double
    integral mean.
    """
    if samples < 8:
        raise PolyspaceError(f"need at least 8 candidate samples, got {samples}")
    if not 0 < p:
        raise PolyspaceError(f"p must be positive, got {p}")
    fn = as_slicefn(f)
    a, b = float(interval[0]), float(interval[1])
    d = b - a
    ys = a + (np.arange(samples) + 0.5) * d / samples
    ts, ws = fn.quad(a, b)
    g = pairwise_lp_distance(fn, ts, ws, ys, p)
    finite = np.isfinite(g)
    if not np.any(finite):
        raise PolyspaceError("all median candidates are non-finite")
    # NaN and inf compare False, so only finite candidates can tie
    tol = (1.0 + MEDIAN_TIE_RTOL) ** (1.0 if np.isinf(p) else 1.0 / p)
    tied = g <= np.min(g[finite]) * tol
    return fn.value_at(ys[np.flatnonzero(tied)[0]])


def jackson_construct(f, interval, r, p,
                      samples=DEFAULT_MEDIAN_SAMPLES) -> SlicePoly:
    """Constructive quasi-best polynomial approximant in Lp(I, X).

    Works on the pullback to [0, 1): with h = 1/(2r), the leading
    coefficient comes from a near-median constant of the (r-1)-th
    difference, is peeled off, and the recursion descends to the
    constant term.  The Lp error is bounded by a fixed multiple of the
    averaged modulus of order r at h (checked by the test-suite, not
    assumed here).  Orders past ``MAX_CONSTRUCT_ORDER`` raise
    :class:`PolyspaceError` in every norm, p = 2 included.
    """
    fn = as_slicefn(f)
    check_order(r, fn.rule)
    check_construct_order(r)
    a, b = float(interval[0]), float(interval[1])
    d = b - a
    phat = fn.pullback(a, d)
    h = 1.0 / (2 * r)
    coeffs = {}
    work = phat
    for k in range(r - 1, 0, -1):
        delta = work.difference(h, k)
        med = median_constant(delta, (0.0, 1.0 - k * h), p, samples=samples)
        a_k = med.scaled(1.0 / (h ** k * math.factorial(k)))
        coeffs[k] = a_k
        work = work.minus_monomials([a_k], [k])
    coeffs[0] = median_constant(work, (0.0, 1.0), p, samples=samples)

    # convert sum_k a_k theta^k into the orthonormal representation on I
    basis = TimeBasis((a, b), r)
    ts, ws = time_nodes(a, b, graded=False, rule=fn.rule, panels=2)
    w_mat = basis.eval(ts)
    theta = (ts - a) / d
    gcoeffs = []
    for j in range(r):
        lam = [float(np.dot(ws * w_mat[:, j], theta ** k)) for k in range(r)]
        gcoeffs.append(xval_combination([coeffs[k] for k in range(r)], lam))
    return SlicePoly(basis, gcoeffs)


def lp_error(f, poly: SlicePoly, p) -> float:
    """||f - P||_{Lp(I, X)} by quadrature."""
    fn = as_slicefn(f)
    a, b = poly.interval
    return poly.residual(fn).lp_norm(a, b, p)


def slice_approximants(f, intervals, r, p):
    """[(P, ||f - P||_{Lp(I, X)})] of the approximant the greedy loops
    use, for each interval I of ``intervals``.

    For p = 2, P is the L2(I, X) projection and the error its best
    error, all intervals in one stacked pass whose results have the bits
    of one-interval calls; otherwise P is ``jackson_construct`` and the
    error its ``lp_error``, one interval after the other.
    """
    if p == 2:
        return _project_slices(f, intervals, r)
    out = []
    for interval in intervals:
        poly = jackson_construct(f, interval, r, p)
        out.append((poly, lp_error(f, poly, p)))
    return out


def slice_approximant(f, interval, r, p):
    """(P, ||f - P||_{Lp(I, X)}): the one-interval ``slice_approximants``.

    For p = 2, P is ``project_time_slice`` and the error ``best_error``;
    otherwise P is ``jackson_construct`` and the error its ``lp_error``.
    """
    return slice_approximants(f, [interval], r, p)[0]


def slice_error(f, interval, r, p):
    """The error of ``slice_approximant``: the exact best error for p = 2
    (orthogonal projection), that of the constructive approximant
    otherwise."""
    return slice_approximant(f, interval, r, p)[1]


def node_norm(poly: SlicePoly) -> float:
    """max_j ||P(t_j)||_X over the r equispaced nodes of I.

    Equivalent to the integral norms on the polynomial space; for r = 1
    the single node is the left endpoint.
    """
    a, b = poly.interval
    r = poly.basis.r
    if r == 1:
        nodes = np.array([a])
    else:
        nodes = a + (b - a) * np.arange(r) / (r - 1)
    return max(poly.value_at(t).norm(2) for t in nodes)
