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
from .xvalued import SliceFn, XVal, pairwise_lp_distance

DEFAULT_MEDIAN_SAMPLES = 129
MEDIAN_TIE_RTOL = 1e-12     # relative tie tolerance of median_constant


class PolyspaceError(ValueError):
    pass


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
        d = b - a
        self._scale = np.sqrt((2 * np.arange(r) + 1) / d)
        self._a, self._d = a, d

    def eval(self, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        xi = 2.0 * (ts - self._a) / self._d - 1.0
        return np.polynomial.legendre.legvander(xi, self.r - 1) * self._scale

    def functions(self):
        """The basis as a list of scalar callables W_j."""
        return [(lambda ts, _j=j: self.eval(ts)[:, _j]) for j in range(self.r)]


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
        fns = self.basis.functions()
        return fn.minus_expansion(fns, self.coeffs)


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


def _projection(f, interval, r):
    """Quadrature data (fn, basis, ts, ws, W, C, G) of the projection.

    W holds the basis and C the coefficients of f at the nodes ts; row
    j of G = W^T diag(ws) C is the coefficient of W_j in L2(I, X).
    """
    fn = as_slicefn(f)
    basis = TimeBasis((float(interval[0]), float(interval[1])), r)
    ts, ws = fn.quad(*basis.interval)
    w_mat = basis.eval(ts)          # (T, r)
    coef = fn.coef(ts)              # (T, k)
    return fn, basis, ts, ws, w_mat, coef, w_mat.T @ (ws[:, None] * coef)


def _projected_poly(fn, basis, ts, ws, w_mat, g) -> SlicePoly:
    """The projection as a SlicePoly, from the data of ``_projection``.

    A coefficient evaluates off the grid by the same quadrature
    combination of the backing field's samples, when there is one.
    """
    coeffs = []
    for j in range(basis.r):
        off_grid = None
        if fn.source is not None:
            def off_grid(points, _ts=ts, _w=ws * w_mat[:, j]):
                # same quadrature combination at arbitrary points
                return _w @ fn.sample_at(_ts, points)
        coeffs.append(fn.factor.xval(g[j], off_grid))
    return SlicePoly(basis, coeffs)


def _projection_error(fn, ws, w_mat, coef, g) -> float:
    """||f - P||_{L2(I, X)} from the data of ``_projection``.

    Computed by orthogonality as sqrt(||f||^2 - sum_j ||G_j||^2); a
    radicand below -1e-10 signals inconsistent quadrature.  When the
    radicand sits below the cancellation floor of that difference the
    residual norm is integrated directly instead.
    """
    total = fn.factor.sq_sum(coef, ws)
    rad = total - fn.factor.sq_sum(g)
    if rad < -1e-10 * max(1.0, total):
        raise PolyspaceError(f"negative best-error radicand {rad}")
    if rad > 1e-12 * max(1.0, total):
        return math.sqrt(rad)
    # near-exact reproduction: integrate the residual, no cancellation
    return math.sqrt(max(fn.factor.sq_sum(coef - w_mat @ g, ws), 0.0))


def project_time_slice(f, interval, r) -> SlicePoly:
    """L2(I, X)-orthogonal projection of f onto polynomials of order r.

    Coefficients are the time integrals of f against the orthonormal
    basis, computed by quadrature (graded when the slice touches a
    declared singularity at t = 0).
    """
    fn, basis, ts, ws, w_mat, _, g = _projection(f, interval, r)
    return _projected_poly(fn, basis, ts, ws, w_mat, g)


def best_error(f, interval, r) -> float:
    """E_r(f, I)_2: distance of f to order-r polynomials in L2(I, X)."""
    fn, _, _, ws, w_mat, coef, g = _projection(f, interval, r)
    return _projection_error(fn, ws, w_mat, coef, g)


def median_constant(f, interval, p, samples=DEFAULT_MEDIAN_SAMPLES) -> XVal:
    """Near-best constant approximation a0 = f(z) in Lp(I, X).

    z minimizes g(y) = int_I ||f(t) - f(y)||_X^p dt (for p = inf, the
    max over quadrature nodes) over a uniform candidate grid of
    `samples` midpoints of I.  Candidates whose g is not finite are
    skipped; if none is finite, PolyspaceError is raised.  Values of g
    within a relative MEDIAN_TIE_RTOL of the minimum count as tied, so
    that roundoff cannot decide, and ties break toward the smallest z.
    By construction g(z) is at most (1 + MEDIAN_TIE_RTOL) times the
    mean of g, which bounds ||f - a0||^p_p by the double integral mean.
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
    tied = g <= np.min(g[finite]) * (1.0 + MEDIAN_TIE_RTOL)
    return fn.value_at(ys[np.flatnonzero(tied)[0]])


def jackson_construct(f, interval, r, p,
                      samples=DEFAULT_MEDIAN_SAMPLES) -> SlicePoly:
    """Constructive quasi-best polynomial approximant in Lp(I, X).

    Works on the pullback to [0, 1): with h = 1/(2r), the leading
    coefficient comes from a near-median constant of the (r-1)-th
    difference, is peeled off, and the recursion descends to the
    constant term.  The Lp error is bounded by a fixed multiple of the
    averaged modulus of order r at h (checked by the test-suite, not
    assumed here).
    """
    fn = as_slicefn(f)
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


def slice_approximant(f, interval, r, p, samples=DEFAULT_MEDIAN_SAMPLES):
    """(P, ||f - P||_{Lp(I, X)}) of the approximant the greedy loops use.

    For p = 2, P is ``project_time_slice`` and the error ``best_error``,
    both from one projection; otherwise P is ``jackson_construct`` and
    the error its ``lp_error``.
    """
    if p == 2:
        fn, basis, ts, ws, w_mat, coef, g = _projection(f, interval, r)
        return (_projected_poly(fn, basis, ts, ws, w_mat, g),
                _projection_error(fn, ws, w_mat, coef, g))
    poly = jackson_construct(f, interval, r, p, samples=samples)
    return poly, lp_error(f, poly, p)


def slice_error(f, interval, r, p, samples=DEFAULT_MEDIAN_SAMPLES):
    """The error of ``slice_approximant``, without its P for p = 2.

    Exact best error for p = 2 (orthogonal projection), the error of
    the constructive approximant otherwise.
    """
    if p == 2:
        return best_error(f, interval, r)
    return slice_approximant(f, interval, r, p, samples=samples)[1]


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
