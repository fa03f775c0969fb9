"""The greedy driver on dyadic partitions of the time interval.

A partition of [0, T) is a ``meshnd.IntervalMesh`` of (level, index)
cells.  The greedy loop marks every leaf whose local best-error
exceeds the threshold, bisects all marked leaves, and repeats until no
leaf is marked.
"""

from dataclasses import dataclass

import numpy as np

from .meshnd import GreedyCapError, IntervalMesh
from .polyspace import slice_approximants
from .smoothness import lq_sum
# unused here; kept bound for bench/tracer.py
from .polyspace import jackson_construct, project_time_slice  # noqa: F401
from .polyspace import slice_error  # noqa: F401


class MeshError(ValueError):
    pass


@dataclass
class TraceEntry:
    marked: int
    leaves: int
    maxerr: float
    min_marked_err: float = float("nan")


def complexity_ratio(partition: IntervalMesh) -> float:
    """(#T - #T0) / total marks of a greedy partition; #T0 = 1, and the
    ratio equals 1 exactly for 1-D bisection."""
    total_marked = sum(e.marked for e in partition.trace)
    grown = partition.size - 1
    if total_marked == 0:
        return 0.0
    return grown / total_marked


@dataclass
class GreedyTimeResult:
    partition: IntervalMesh
    pieces: list               # one SlicePoly per leaf, in interval order
    errors: dict                # (level, index) -> local error

    def global_error(self, p=2):
        errs = np.array([self.errors[c] for c in self.partition.cells])
        return float(lq_sum(errs, p))


# Most leaves a greedy_time partition may have, to bound a run's time
# and memory, which grow with its leaves (the time cache keeps the piece
# of every visited cell, about two per leaf).
# On time-power(0.25) (r = 1, p = 2), whose leaves grow like
# delta^(-2/3), it admits delta = 1e-7 (23,997 leaves in about 1.3 s)
# and ends smaller tolerances, which ran for minutes, in about 2 s.  The
# bench sweeps need at most 255 leaves.
MAX_LEAVES = 2 ** 15


# key of the stamp that ties a time cache to what filled it; no
# (level, index) cell equals it
_CACHE_STAMP = ("filled for",)


def stamp_time_cache(cache, f, r, p):
    """Tie ``cache`` to (f, r, p) on first use.

    Raises :class:`MeshError` if it was filled for another field object
    or another r or p: its leaf errors would be stale.
    """
    stamp = cache.setdefault(_CACHE_STAMP, (f, r, p))
    if stamp[0] is not f or stamp[1:] != (r, p):
        raise MeshError(
            f"time cache was filled for {getattr(stamp[0], 'name', stamp[0])} "
            f"with (r, p) = {stamp[1:]}, not for "
            f"{getattr(f, 'name', f)} with {(r, p)}")


def greedy_time(f, r, p, delta, max_level=30, cache=None) -> GreedyTimeResult:
    """Greedy bisection of [0, T) until every leaf error is <= delta.

    The per-leaf approximant is the L2(I, X) projection for p = 2 and
    the constructive approximant otherwise; the leaf error is its error.
    Both are built once per (level, index) cell and memoized in
    ``cache`` as ``(error, piece)``, to share them across runs (other
    keys are left alone).  Each round builds the leaves without an entry
    in one ``slice_approximants`` call: for p = 2 one stacked projection
    whose results have the bits of one-leaf calls.  Cells keep their
    entry after they are bisected, so a later run with a larger delta
    finds its leaves there.
    The pieces are shared by every run that reads the cache and must be
    treated as read-only.  The first call stamps the dict with the
    field object, r and p; a later call with any of them
    different raises :class:`MeshError`.  Raises
    :class:`GreedyCapError` with the offending intervals if the level
    cap is hit first or a round would take the partition past
    ``MAX_LEAVES`` leaves (before that round builds a leaf), and
    :class:`MeshError` naming the interval if a leaf error, fresh or
    cached, is NaN.
    """
    if not delta > 0:
        raise MeshError(f"delta must be positive, got {delta}")
    part = IntervalMesh(T=f.domain.T)
    cache = cache if cache is not None else {}
    stamp_time_cache(cache, f, r, p)

    def leaf_error(cell):
        err = cache[cell][0]
        if not np.isfinite(err):
            # "err > delta" is False for NaN, so the leaf would pass; an
            # infinite error marks every leaf down to 2^max_level cells
            a, b = part.interval(cell)
            what, why = (("NaN", "the field has non-finite values there")
                         if np.isnan(err) else
                         ("infinite", "it overflows the float range"))
            raise MeshError(f"leaf error is {what} on [{a!r}, {b!r}): {why}")
        return err

    trace = []
    while True:
        fresh = [c for c in part.cells if c not in cache]
        if fresh:
            pairs = slice_approximants(
                f, [part.interval(c) for c in fresh], r, p)
            for cell, (piece, err) in zip(fresh, pairs):
                cache[cell] = (err, piece)
        errs = [leaf_error(c) for c in part.cells]
        marked = [i for i, e in enumerate(errs) if e > delta]
        if not marked:
            break
        blocked = [part.cells[i] for i in marked
                   if part.cells[i][0] >= max_level]
        if blocked:
            raise GreedyCapError(
                f"level cap {max_level} reached with {len(blocked)} intervals "
                f"above delta={delta}", offenders=blocked)
        if part.size + len(marked) > MAX_LEAVES:
            raise GreedyCapError(
                f"leaf cap {MAX_LEAVES} reached: {len(marked)} of "
                f"{part.size} intervals above delta={delta}",
                offenders=[part.cells[i] for i in marked])
        trace.append(TraceEntry(marked=len(marked),
                                leaves=part.size + len(marked),
                                maxerr=max(errs),
                                min_marked_err=min(errs[i] for i in marked)))
        part = part.refine(marked)
    part.trace = trace
    return GreedyTimeResult(partition=part,
                            pieces=[cache[c][1] for c in part.cells],
                            errors={c: cache[c][0] for c in part.cells})


def uniform_time_error(f, r, p, m) -> float:
    """Error of the best order-r piecewise polynomial on m equal intervals.

    Independent oracle used as the non-adaptive baseline in the rate
    experiments.  The m intervals go to one ``slice_approximants`` call,
    so each error has the bits of its ``slice_error``.
    """
    edges = np.linspace(0.0, f.domain.T, m + 1)
    pairs = slice_approximants(f, list(zip(edges[:-1], edges[1:])), r, p)
    return float(lq_sum(np.array([err for _, err in pairs]), p))
