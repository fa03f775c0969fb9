"""Vector-valued views of fields: maps t -> X, X = L2(Omega) on a grid.

A :class:`SliceFn` views f(t, x) as a function of t with values in X,
discretized on the field's fixed spatial grid, in the tensor form
sum_j c_j(t) B_j(x).  Differences, polynomial subtraction and pullbacks
act on the coefficients c_j only; a spatial factor B, the only code that
knows the format, turns them into values and norms.  The grid factor
holds nodal values; a separable tau(t) g(x) is the one-term case, with
a :class:`SpaceProfile` g as factor.

Reductions to one value per time node (X norms, the spatial error
integral of ``spacetime.global_error``) stream the nodes in row blocks
(see :func:`row_blocks`), so that a grid slice holds a few (rows, M)
arrays at a time instead of (T, M) ones.  BLAS reduces a ``(rows, K)
@ (K,)`` product in groups of _BLAS_GROUP rows: a row past a block's
last full group comes out differently, and differently again in a
block without a full group.  So every block is whole groups, and the
last one keeps its 1-3 tail rows together with a full group, as one
unsplit block does; a streamed reduction then has the bits of the
unsplit one.  Reductions across the time nodes, such as the ``(r, T)
@ (T, M)`` projection, are not blocked: that would move their bits.
Work on many time intervals at once stacks whole intervals instead, in
blocks of :func:`leaf_blocks`, and reduces each (T, k) slab by itself.
"""

import math
from functools import partial

import numpy as np

from .quadrature import DEFAULT_INTERVAL_RULE, DEFAULT_SMOOTH_PANELS, \
    _TINY, _power_root, time_nodes

# rows that BLAS reduces together in a (rows, K) @ (K,) product
_BLAS_GROUP = 4
# candidate rows per block of pairwise_lp_distance
_BLOCK_ROWS = 8
# bytes of one (rows, K) float array of a streamed reduction: 4 rows at
# the 2-D grid's K = 6144 points, 68 at the 1-D grid's 480
_BLOCK_BYTES = 256 * 1024


def _totals(sq, ws):
    """sum_t ws[i, t] sq[i, t] of each row i, or the plain row sums when
    ws is None: one dot product or sum per row, as for one row alone."""
    if ws is None:
        return np.sum(sq, axis=-1)
    return np.matmul(ws[:, None, :], sq[:, :, None])[:, 0, 0]


def lp_rows(x, ws, p):
    """``_power_root(lambda y: np.dot(ws[i], y), x[i], p)`` of each row i
    of the (L, T) arrays, with its bits.

    The sums of p-th powers are one dot per row (:func:`_totals`), and
    each root is taken on its numpy scalar sum: numpy's array power
    differs from the scalar one in the last bit.  A row whose sum is out
    of the normal range takes the range-safe path of its own call.
    """
    if np.isinf(p):
        return np.max(x, axis=-1, initial=0.0)
    e = 1.0 / p
    with np.errstate(over="ignore", under="ignore"):
        sums = _totals(x ** p, ws)
        return np.array([s ** e if _TINY <= s < np.inf
                         else _power_root(partial(np.dot, w), row, p)
                         for s, row, w in zip(sums, x, ws)])


class GridFactor:
    """Spatial factor whose coefficients are the nodal values (k = M)."""

    def __init__(self, grid):
        self.grid = grid

    @property
    def width(self):
        """k, the floats of one row of coefficients."""
        return len(self.grid.points)

    def values(self, coef):
        return coef

    def norms(self, coef):
        """||c||_X of each row of coef (..., k); a stacked (L, T, k) array
        is reduced slab by slab, one gemv each, as a (T, k) one is."""
        return np.sqrt(np.maximum(coef ** 2 @ self.grid.weights, 0.0))

    def distances(self, ct, cy):
        """||ct[t] - cy[y]||_X as a (len(cy), len(ct)) array."""
        # one expression, so that numpy squares the temporary in place
        d2 = ((ct[None] - cy[:, None]) ** 2) @ self.grid.weights
        return np.sqrt(np.maximum(d2, 0.0))

    def sq_sum(self, coef, ws=None):
        """sum_t ws[i, t] ||c_t||_X^2 of each stacked (T, k) slab i of
        ``coef`` (L, T, k), as an (L,) array; unweighted when ws is None."""
        return _totals(coef ** 2 @ self.grid.weights, ws)

    def xval(self, row, fn=None):
        return XVal(self.grid, row, fn=fn)

    def row_of(self, x):
        return x.vals


class SpaceProfile:
    """Spatial factor g of a separable function (k = 1), with cached norms.

    Norms are |c| * ||g||, never a quadrature sum over the grid.
    """

    width = 1

    def __init__(self, grid, vals, fn=None):
        self.grid = grid
        self.vals = np.asarray(vals, dtype=float)
        self.fn = fn
        self._norms = {}

    def norm(self, p=2):
        key = float(p)
        if key not in self._norms:
            self._norms[key] = self.grid.norm(self.vals, p=p)
        return self._norms[key]

    def values(self, coef):
        return coef * self.vals

    def norms(self, coef):
        return np.abs(coef[..., 0]) * self.norm(2)

    def distances(self, ct, cy):
        return np.abs(ct[None, :, 0] - cy[:, None, 0]) * self.norm(2)

    def sq_sum(self, coef, ws=None):
        return _totals(coef[..., 0] ** 2, ws) * self.norm(2) ** 2

    def xval(self, row, fn=None):
        mu = float(row[0])      # off-grid values come from self.fn
        return XVal(self.grid, lambda: mu * self.vals, mu=mu, profile=self)

    def row_of(self, x):
        """[mu] for x = mu * g, None when x is not a multiple of g."""
        return [x.mu] if x.separable and x.profile is self else None


class XVal:
    """Element of discretized X: nodal values plus optional structure.

    ``mu``/``profile`` tag multiples of a shared spatial profile (kept
    by every combinator on separable inputs); ``fn`` allows evaluation
    at arbitrary points of Omega when available.  ``vals`` may be a
    function of no arguments instead of an array: the nodal values are
    then computed by it each time they are read, and not held.  The
    separable values of the library are built that way, so that a kept
    one costs its mu and not a grid array.
    """

    def __init__(self, grid, vals, fn=None, mu=None, profile=None):
        self.grid = grid
        self._vals = vals if callable(vals) else np.asarray(vals, dtype=float)
        self.fn = fn
        self.mu = mu
        self.profile = profile

    @property
    def vals(self):
        return self._vals() if callable(self._vals) else self._vals

    @property
    def separable(self):
        return self.mu is not None and self.profile is not None

    def norm(self, p=2):
        if self.separable:
            return abs(self.mu) * self.profile.norm(p)
        return self.grid.norm(self.vals, p=p)

    def at_points(self, points):
        if self.separable and self.profile.fn is not None:
            return self.mu * self.profile.fn(points)
        if self.fn is not None:
            return self.fn(points)
        raise ValueError("X value has no off-grid evaluator")

    @property
    def term(self):
        """The FE projection term ``(c, g)`` of this value, whose values
        ``c * g(points)`` are those of ``at_points``, bit for bit: ``(mu,
        profile.fn)`` for a multiple of a profile, so that a projection
        stack evaluates the profile once for all its multiples, and
        ``(1.0, at_points)`` otherwise."""
        if self.separable and self.profile.fn is not None:
            return self.mu, self.profile.fn
        return 1.0, self.at_points

    def scaled(self, c):
        fn = (lambda pts, _f=self.fn, _c=c: _c * _f(pts)) if self.fn else None
        vals = (lambda: c * self.vals) if callable(self._vals) else \
            c * self.vals
        return XVal(self.grid, vals, fn=fn,
                    mu=None if self.mu is None else c * self.mu,
                    profile=self.profile)


class SliceFn:
    """Map from a time interval into discretized X.

    ``gen(ts) -> (len(ts), k)`` gives the coefficients and the spatial
    factor reads them: ``profile`` (k = 1) for separable functions, the
    grid factor (k = M, nodal values) when ``profile`` is None.  Every
    combinator keeps ``graded_t0`` and the time ``rule`` and ``panels``.
    """

    def __init__(self, grid, profile=None, gen=None, graded_t0=False,
                 source=None, rule=DEFAULT_INTERVAL_RULE,
                 panels=DEFAULT_SMOOTH_PANELS):
        self.grid = grid
        self.profile = profile
        self.factor = GridFactor(grid) if profile is None else profile
        self.gen = gen
        self.graded_t0 = graded_t0
        self.source = source    # backing Field when off-grid sampling works
        self.rule = rule
        self.panels = panels

    @classmethod
    def from_field(cls, field):
        grid, dom = field.grid, field.domain
        kw = dict(graded_t0=field.singular_t0, source=field, rule=dom.rule,
                  panels=dom.quad_panels)
        if field.separable:
            profile = SpaceProfile(grid, field.grid_space_values,
                                   fn=field.space_fn)
            return cls(grid, profile=profile,
                       gen=lambda ts: field.time_values(ts)[:, None], **kw)
        return cls(grid, gen=lambda ts: field.sample(ts, grid.points), **kw)

    def _derived(self, gen, **kw):
        """A slice function on the same grid and time quadrature."""
        kw = {"profile": self.profile, "graded_t0": self.graded_t0, **kw}
        return SliceFn(self.grid, gen=gen, rule=self.rule, panels=self.panels,
                       **kw)

    @property
    def separable(self):
        return self.profile is not None

    # -- evaluation ---------------------------------------------------------

    def coef(self, ts):
        """Coefficients at each t in ts, shape (len(ts), k)."""
        return np.asarray(self.gen(np.asarray(ts, dtype=float)), dtype=float)

    def values(self, ts):
        return self.factor.values(self.coef(ts))

    def xnorms(self, ts):
        """||f(t)||_X for each t in ts (the X norm is always L2(Omega)).

        ts streams in blocks of :func:`budget_rows` rows of the factor's
        width: one block for a separable slice's (T, 1) coefficients at
        every time rule a ``DomainSpec`` admits (at most 10,000 nodes).
        """
        ts = np.asarray(ts, dtype=float)
        rows = budget_rows(self.factor.width)
        return np.concatenate([self.factor.norms(self.coef(ts[lo:hi]))
                               for lo, hi in row_blocks(len(ts), rows)])

    def value_at(self, t) -> XVal:
        return self.factor.xval(self.coef(np.array([t]))[0])

    # -- norms in time ------------------------------------------------------

    def quad(self, a, b):
        graded = self.graded_t0 and a == 0.0
        return time_nodes(a, b, graded=graded, rule=self.rule,
                          panels=self.panels)

    def quad_groups(self, a, b):
        """``quad`` of the intervals [a[i], b[i]) in one pass per rule.

        A list of (rows, ts, ws): ``rows`` indexes a and b, and row j of
        the (len(rows), T) arrays ts and ws has the bits of
        ``quad(a[rows[j]], b[rows[j]])``.  The graded rule (an interval
        at t = 0 of a field singular there) has its own group, listed
        first: for the cells of a partition in position order, the rows
        of the groups then come in that order.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        graded = self.graded_t0 & (a == 0.0)
        groups = []
        for flag in (True, False):
            rows = np.flatnonzero(graded == flag)
            if len(rows):
                groups.append((rows, *time_nodes(
                    a[rows], b[rows], graded=flag, rule=self.rule,
                    panels=self.panels)))
        return groups

    def lp_norm(self, a, b, p):
        """||f||_{Lp([a,b),X)}; for p = inf the max over quadrature nodes."""
        if not b > a:
            return 0.0
        ts, ws = self.quad(a, b)
        return float(_power_root(lambda y: np.dot(ws, y), self.xnorms(ts), p))

    # -- combinators --------------------------------------------------------

    def difference(self, h, r):
        """r-th order forward difference with step h, as a new SliceFn.

        The result is meaningful on the shrunken interval [a, b - r h).
        """
        signs = np.array([math.comb(r, i) * (-1) ** (r - i)
                          for i in range(r + 1)], dtype=float)

        def gen(ts, _g=self.gen):
            acc = None
            for i, c in enumerate(signs):
                v = c * np.asarray(_g(ts + i * h), dtype=float)
                acc = v if acc is None else acc + v
            return acc
        return self._derived(gen)

    def minus_expansion(self, fns, coeffs):
        """Subtract sum_k coeffs[k] * W_k(t) (coeffs are X values), where
        ``fns(ts)`` is the (len(ts), K) matrix of the W_k at ts."""
        rows = [self.factor.row_of(c) for c in coeffs]
        if any(row is None for row in rows):
            # a coefficient off self's profile: continue on nodal values
            return self._derived(self.values, profile=None).minus_expansion(
                fns, coeffs)

        def gen(ts, _g=self.gen):
            acc = np.array(_g(ts), dtype=float)
            for row, col in zip(rows, fns(ts).T):
                acc -= np.outer(col, row)
            return acc
        return self._derived(gen)

    def minus_monomials(self, coeffs, powers):
        """Subtract sum_k coeffs[k] * t^powers[k] (coeffs are X values)."""
        return self.minus_expansion(
            lambda ts: np.stack([np.asarray(ts) ** k for k in powers], 1),
            coeffs)

    def pullback(self, a, d):
        """View on [0, 1): theta -> f(a + theta d)."""
        return self._derived(lambda th, _g=self.gen: _g(a + d * th),
                             graded_t0=self.graded_t0 and a == 0.0)


def budget_rows(width):
    """Rows of a (rows, width) float array within _BLOCK_BYTES.

    Whole groups of _BLAS_GROUP rows, and at least one group.
    """
    rows = _BLOCK_BYTES // (8 * max(width, 1))
    return max(rows - rows % _BLAS_GROUP, _BLAS_GROUP)


def leaf_blocks(count, width):
    """(lo, hi) ranges of whole leaves, each leaf ``width`` floats, with
    at most _BLOCK_BYTES to a block, and at least one leaf."""
    per = max(_BLOCK_BYTES // (8 * max(width, 1)), 1)
    return [(lo, min(lo + per, count)) for lo in range(0, count, per)]


def row_blocks(count, rows):
    """(lo, hi) ranges of ``rows``-row blocks covering ``count`` rows.

    The blocks of a row-wise BLAS reduction that keep the bits of one
    unsplit block (see the module docstring).  ``rows`` must be whole
    groups of _BLAS_GROUP rows.  A tail of 1-3 rows joins the block
    before it, so a block holds at most rows + 3 rows.
    """
    stops = list(range(rows, count, rows)) + [count]
    if len(stops) > 1 and count - stops[-2] < _BLAS_GROUP:
        del stops[-2]
    return list(zip([0] + stops[:-1], stops))


def pairwise_lp_distance(fn: SliceFn, ts, ws, ys, p):
    """g(y) = (int ||f(t) - f(y)||_X^p dt)^(1/p) for each candidate y.

    ``ts, ws`` are the quadrature nodes/weights of the integral and
    ``ys`` the candidate time points; for p = inf, g(y) is the max of
    ||f(t) - f(y)||_X over the nodes.  Returns an array of len(ys).
    Candidates stream in blocks of (rows, T, k) values; a one-term
    slice (k = 1) is one block.
    """
    ct, ys = fn.coef(ts), np.asarray(ys)
    rows = max(len(ys), 1) if ct.shape[1] == 1 else _BLOCK_ROWS
    out = np.empty(len(ys))
    for lo, hi in row_blocks(len(ys), rows):
        # cy lives until the next block: freed sooner, it moved the big
        # temporary on the heap and time-p1-moving ran 5% slower (bimodal)
        cy = fn.coef(ys[lo:hi])
        dist = fn.factor.distances(ct, cy)
        out[lo:hi] = _power_root(lambda y: y @ ws, dist, p, axis=1)
    return out
