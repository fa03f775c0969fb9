"""Moduli of smoothness and discrete Besov seminorms in time.

The order-r modulus is the sup over step sizes h <= u of the Lp norm of
the r-th finite difference; its averaged companion integrates the same
norms in h.  Both are computed for vector-valued slices (values in
X = L2(Omega)), discretized on the field's spatial grid.  The discrete
Besov seminorm sums dyadic modulus samples, and the Whitney ratio
compares best polynomial errors against the seminorm scaling.
"""

import contextvars
import math
import os
import sys
import threading
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .polyspace import MAX_DIFFERENCE_ORDER, as_slicefn, slice_error
from .quadrature import _TINY, _power_root, composite_nodes
from .xvalued import budget_rows, leaf_blocks, lp_rows, row_blocks


class SmoothnessError(ValueError):
    pass


@dataclass(frozen=True)
class SmoothnessParams:
    """Difference order, integrability and discretization knobs.

    The sup over h in the modulus is taken on a geometric grid with
    ``h_per_octave`` points per octave spanning ``h_octaves`` octaves
    below u (endpoint u always included); the h-average uses
    ``avg_panels`` composite panels on [0, u] of the slice's interval
    rule.
    """

    r: int = 1
    p: float = 2.0
    h_per_octave: int = 16
    h_octaves: int = 3
    avg_panels: int = 8

    def __post_init__(self):
        if not 1 <= self.r <= MAX_DIFFERENCE_ORDER:
            raise SmoothnessError(
                f"difference order must be in [1, {MAX_DIFFERENCE_ORDER}], "
                f"got {self.r}")
        if not self.p > 0:
            raise SmoothnessError(f"p must be positive, got {self.p}")
        if self.h_per_octave < 1 or self.h_octaves < 0 or self.avg_panels < 1:
            raise SmoothnessError(
                "need h_per_octave >= 1, h_octaves >= 0 and avg_panels >= 1, "
                f"got {self.h_per_octave}, {self.h_octaves}, {self.avg_panels}")

    def h_grid(self, u):
        n = self.h_per_octave * self.h_octaves
        return u * 2.0 ** (-np.arange(n + 1) / self.h_per_octave)


@dataclass(frozen=True)
class BesovParams:
    """Smoothness s, summability q, difference order and dyadic depth."""

    s: float
    q: float
    r: Optional[int] = None
    kmax: int = 14

    def __post_init__(self):
        if not 0 < self.s < math.inf:      # NaN fails too
            raise SmoothnessError(
                f"s must be finite and positive, got {self.s}")
        if not self.q > 0:          # NaN fails too; inf is the sup norm
            raise SmoothnessError(f"q must be positive, got {self.q}")
        if self.kmax < 4:
            raise SmoothnessError(f"kmax must be >= 4, got {self.kmax}")
        if self.order > MAX_DIFFERENCE_ORDER:
            raise SmoothnessError(
                f"difference order {self.order} above {MAX_DIFFERENCE_ORDER}"
                f" (s = {self.s})")
        if self.order <= self.s:
            raise SmoothnessError(f"need s < r, got s={self.s}, r={self.order}")
        if not self.kmax * self.s < sys.float_info.max_exp:
            # the weight 2^(kmax s) of the last term must be a finite float
            raise SmoothnessError(
                f"need kmax s < {sys.float_info.max_exp}, where 2^(kmax s) "
                f"overflows, got kmax={self.kmax}, s={self.s}")

    @property
    def order(self):
        return self.r if self.r is not None else math.floor(self.s) + 1


def difference(f, t, h, r):
    """r-th order difference of the slice map at time t, an X value."""
    fn = as_slicefn(f)
    if f is not fn and hasattr(f, "domain") and t + r * h >= f.domain.T + 1e-12:
        raise SmoothnessError(f"t + r h = {t + r * h} leaves the time domain")
    delta = fn.difference(h, r)
    return delta.value_at(t)


def _clamped(u, interval, r):
    a, b = interval
    top = (b - a) / r
    return min(u, top * (1.0 - 1e-12))


# where the cgroup file systems are mounted
_CGROUP = "/sys/fs/cgroup"


def _quota_cpus(root):
    """CPUs' worth of time the cgroup quota under ``root`` grants, rounded
    up, or None where no quota is set or none can be read.

    cgroup v2 states it in ``cpu.max`` as "quota period" ("max 100000"
    is no quota), cgroup v1 in ``cpu/cpu.cfs_quota_us`` (-1 is no quota)
    over ``cpu/cpu.cfs_period_us``.  The files read are those at the
    mount root, which is the process's own cgroup inside a cgroup
    namespace, as in a container.  Missing, unreadable or malformed
    files count as no quota.
    """
    def words(*parts):
        with open(os.path.join(root, *parts), "rb") as fh:
            return fh.read().split()

    try:
        # tested, not caught: a FileNotFoundError on every call raised the
        # peak RSS of the moduli-2d-moving bench pass by about 0.1 MB
        if os.path.exists(os.path.join(root, "cpu.max")):
            text = words("cpu.max")
        else:
            text = (words("cpu", "cpu.cfs_quota_us")
                    + words("cpu", "cpu.cfs_period_us"))
        quota, period = (int(w) for w in text)
    except (OSError, ValueError):       # "max" and garbage alike
        return None
    if quota <= 0 or period <= 0:
        return None
    return -(-quota // period)


def _cpus():
    """CPUs this process may run on: the affinity mask's count, capped
    by the cgroup CPU quota rounded up (see :func:`_quota_cpus`)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _quota_cpus(_CGROUP)
    return cpus if quota is None else min(cpus, quota)


def _threaded_map(fn, items, threads):
    """``fn``'s results on ``items`` (floats or 1-D arrays), joined in
    item order into one float array, on ``threads`` threads.

    The caller works next to ``threads - 1`` helper threads, each run in
    a copy of the caller's contextvars context (so that, say, an
    ``np.errstate`` holds in them too).  Threads claim items in order
    from a shared counter and write each result to its own slot.  After
    an error no thread claims another item; every helper is joined, and
    the error of the earliest failing item is raised, as the serial loop
    would raise it: all items before it were claimed, so all ran.
    """
    out = [None] * len(items)
    errors = {}             # item index -> its exception
    lock = threading.Lock()
    claimed = 0

    def work():
        nonlocal claimed
        while True:
            with lock:
                if errors or claimed == len(items):
                    return
                i = claimed
                claimed += 1
            try:
                out[i] = fn(items[i])
            except BaseException as e:      # raised by the caller below
                with lock:
                    errors[i] = e
                return

    helpers = []            # the started ones: a failed start joins these
    try:
        for _ in range(threads - 1):
            t = threading.Thread(target=contextvars.copy_context().run,
                                 args=(work,))
            t.start()
            helpers.append(t)
        work()
    finally:
        with lock:          # an interrupted caller stops the helpers too
            claimed = len(items)
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return np.hstack([np.empty(0), *out])   # the empty one: no items


def _difference_norms(fn, interval, hs, r, p, u):
    """||Delta_h^r f||_{Lp(a, b - r h)} for each h in hs, as an array.

    The steps are taken in blocks of whole steps (:func:`leaf_blocks`
    of their (T, k) coefficients), each block in one array pass: one
    evaluation of fn per shift on the stacked nodes of its intervals
    [a, b - r h) (they share a, so one ``quad_groups`` call maps one rule
    onto all of them), the X norms of every (h, t) row, and one dot and
    one root per step (:func:`xvalued.lp_rows`).  A step whose coefficients
    exceed the block budget is a block of its own, and its rows stream
    in row blocks as in :meth:`SliceFn.xnorms`.  Each norm has the bits
    of its own ``fn.difference(h, r).lp_norm(a, b - r h, p)``; a step
    with an empty interval has norm 0.

    The blocks are independent, so they are computed on up to one
    thread per CPU (see :func:`_threaded_map`), unless each norm takes
    its X norms in one row block.  Such norms are too little work
    to share: threads made the ``st-1d-moving`` bench pass (60 nodes on
    the 1-D grid) 4% slower, and ``st-2d-tensor`` (separable) 6%.  Each
    block is computed as on one thread, so no bit depends on the thread
    count.

    A NaN norm raises :class:`SmoothnessError` naming h and its u (one
    ``u`` for all steps, or a sequence of one per step); an infinite one
    is returned.
    """
    a, b = interval
    hs = np.asarray(hs, dtype=float)
    ends = b - r * hs
    live = np.flatnonzero(ends > a)
    norms = np.zeros(len(hs))
    if len(live):
        steps, ends = hs[live], ends[live]
        T = len(fn.quad(a, ends[0])[0])     # every step's node count
        rows = budget_rows(fn.factor.width)

        def block(lo_hi):
            lo, hi = lo_hi
            [(_, ts, ws)] = fn.quad_groups(np.full(hi - lo, a), ends[lo:hi])
            xs = []
            for j0, j1 in row_blocks(T, rows):
                delta = fn.difference(np.repeat(steps[lo:hi], j1 - j0), r)
                xs.append(fn.factor.norms(delta.coef(
                    ts[:, j0:j1].ravel()).reshape(hi - lo, j1 - j0, -1)))
            return lp_rows(np.concatenate(xs, axis=1), ws, p)

        blocks = leaf_blocks(len(live), T * fn.factor.width)
        threads = (1 if len(row_blocks(T, rows)) == 1
                   else min(_cpus(), len(blocks)))
        norms[live] = _threaded_map(block, blocks, threads)
    bad = np.flatnonzero(np.isnan(norms))
    if len(bad):
        u = u if np.isscalar(u) else u[bad[0]]
        raise SmoothnessError(
            f"difference norm is NaN at u={u}, h={hs[bad[0]]}")
    return norms


def _roundoff_floor(fn, interval, params):
    """1e-14 * 2^r * ||f||_Lp(I): differences at or below it cancel to 0."""
    norm = fn.lp_norm(*interval, params.p)
    if math.isnan(norm):
        raise SmoothnessError(f"||f|| is NaN on {tuple(interval)}")
    return 1e-14 * (2.0 ** params.r) * norm


def _sup(norms, floor):
    """The largest norm, or exactly 0 when it does not exceed the floor.

    An infinite ||f|| gives no floor, so overflowed norms stay infinite.
    """
    best = float(max(norms, default=0.0))
    if best <= floor and not math.isinf(floor):
        return 0.0
    return best


def modulus_sup(f, interval, u, params: SmoothnessParams) -> float:
    """omega_r(f, I, u)_p: sup over the h-grid of ||Delta_h^r f||_Lp.

    Values of h beyond |I|/r contribute nothing (the difference domain
    is empty), so u is clamped there; the result is nondecreasing in u.
    Differences that cancel to the roundoff floor (relative 1e-14 of
    ||f||) report exactly zero, keeping annihilated polynomials exact.
    A NaN difference norm or a NaN ||f|| raises :class:`SmoothnessError`.
    """
    if not u > 0:
        raise SmoothnessError(f"u must be positive, got {u}")
    fn = as_slicefn(f)
    hs = params.h_grid(_clamped(u, interval, params.r))
    norms = _difference_norms(fn, interval, hs, params.r, params.p, u)
    return _sup(norms, _roundoff_floor(fn, interval, params))


def modulus_avg(f, interval, u, params: SmoothnessParams) -> float:
    """w_r(f, I, u)_p: the h-average of the difference norms.

    ((1/u) int_0^u ||Delta_h^r f||^p dh)^(1/p) by composite quadrature;
    for p = inf this degenerates to the sup over the h nodes.  A NaN
    difference norm raises :class:`SmoothnessError`.
    """
    if not u > 0:
        raise SmoothnessError(f"u must be positive, got {u}")
    fn = as_slicefn(f)
    hs, ws = composite_nodes(0.0, _clamped(u, interval, params.r),
                             rule=fn.rule, panels=params.avg_panels)
    norms = _difference_norms(fn, interval, hs, params.r, params.p, u)
    return float(_power_root(lambda y: np.dot(ws, y) / u, norms, params.p))


def besov_terms(f, interval, bp: BesovParams, params=None):
    """The dyadic terms 2^{ks} omega_r(f, I, 2^{-k})_p, k = 0..kmax.

    Equal to ``2^{ks} * modulus_sup(f, I, 2^{-k}, params)`` term by term.
    The h-grids of neighbouring levels overlap: the distinct steps h of
    all levels are evaluated in one :func:`_difference_norms` call, a
    NaN norm naming the u of the first level that holds its h, and
    ||f|| (for the roundoff floor) once.
    """
    sp = (SmoothnessParams(r=bp.order) if params is None
          else replace(params, r=bp.order))
    fn = as_slicefn(f)
    ks = np.arange(bp.kmax + 1)
    first, grids = {}, []           # h (exact float) -> u of its first level
    for k in ks:
        u = 2.0 ** (-k)
        hs = sp.h_grid(_clamped(u, interval, sp.r)).tolist()
        for h in hs:
            first.setdefault(h, u)
        grids.append(hs)
    norms = dict(zip(first, _difference_norms(
        fn, interval, list(first), sp.r, sp.p, list(first.values()))))
    floor = _roundoff_floor(fn, interval, sp)
    return np.array([2.0 ** (k * bp.s) * _sup([norms[h] for h in hs], floor)
                     for k, hs in zip(ks, grids)])


def besov_seminorm_discrete(f, interval, bp: BesovParams, params=None) -> float:
    """Discrete Besov seminorm: lq sum of the dyadic modulus terms.

    Truncated at bp.kmax; use :func:`besov_terms` to inspect the tail
    contribution of the truncation.
    """
    return float(lq_sum(besov_terms(f, interval, bp, params), bp.q))


def lq_sum(terms, q, partial=False):
    """(sum_k terms[k]^q)^(1/q), the max for q = inf, by the range-safe
    ``quadrature._power_root``.  With ``partial``, its partial sums for
    k = 0, 1, ...: the root of the plain cumsum where that is a normal
    float, else ``lq_sum(terms[:k + 1], q)``, scaled by its own top."""
    terms = np.asarray(terms, dtype=float)
    if not partial:
        return _power_root(np.sum, terms, q)
    if np.isinf(q):
        return np.maximum.accumulate(terms)
    with np.errstate(over="ignore", under="ignore"):
        s = np.cumsum(terms ** q)
        out = s ** (1.0 / q)
    for k in np.flatnonzero(~((s >= _TINY) & (s < np.inf))):
        out[k] = _power_root(np.sum, terms[:k + 1], q)
    return out


def whitney_ratio(f, interval, r, p, q, s, params=None) -> float:
    """Best-error over seminorm-scaling ratio for the Whitney bound.

    Returns E_r(f, I)_p / (|I|^{s + 1/p - 1/q} |f|_{B^s_{q,q}(I,X)}),
    with the 0/0 convention -> 0.  A vanishing seminorm with a nonzero
    error signals misused parameters.
    """
    if s >= r:
        raise SmoothnessError(f"need s < r, got s={s}, r={r}")
    bp = BesovParams(s=s, q=q)
    gap = (1.0 / q - 1.0 / p) if not np.isinf(q) else -1.0 / p
    if max(gap, 0.0) > s:
        raise SmoothnessError(f"need (1/q - 1/p)+ <= s, got s={s}, p={p}, q={q}")
    a, b = interval
    err = slice_error(f, interval, r, p)
    qparams = SmoothnessParams(r=bp.order, p=q)
    sem = besov_seminorm_discrete(f, interval, bp, qparams)
    scale = (b - a) ** (s + 1.0 / p - 1.0 / q)
    if sem * scale < 1e-9:      # roundoff floor of annihilated differences
        if err < 1e-7:
            return 0.0
        raise SmoothnessError(
            f"zero seminorm with nonzero error {err}: parameter misuse")
    return err / (scale * sem)


def jackson_ratio(err, w, p, L):
    """(err / w)^p of an approximant's error err on [0, L) over the
    averaged modulus w; 0 when w == 0 and err < 1e-9.  Raises
    :class:`SmoothnessError` naming L and p where it is not a finite
    float (w == 0 with a larger err, or an overflow)."""
    if w == 0 and err < 1e-9:
        return 0.0
    try:
        ratio = (err / w) ** p
    except (OverflowError, ZeroDivisionError):
        ratio = math.inf
    if not math.isfinite(ratio):
        raise SmoothnessError(f"Jackson ratio ({err} / {w})^p is not a "
                              f"finite float at L={L}, p={p}")
    return ratio
