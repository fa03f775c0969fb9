"""The greedy driver on dyadic partitions of the time interval.

A partition of [0, T) is a ``meshnd.IntervalMesh`` of (level, index)
cells.  The greedy loop marks every leaf whose local best-error
exceeds the threshold, bisects all marked leaves, and repeats until no
leaf is marked.
"""

from dataclasses import dataclass

import numpy as np

from .meshnd import IntervalMesh
from .polyspace import jackson_construct, project_time_slice, slice_error


class MeshError(ValueError):
    pass


class GreedyCapError(RuntimeError):
    """Refinement hit the safety cap before reaching the tolerance."""

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


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
        if np.isinf(p):
            return float(np.max(errs))
        return float(np.sum(errs ** p) ** (1.0 / p))


# key of the stamp that ties a time cache to what filled it; no
# (level, index) cell equals it
_CACHE_STAMP = ("filled for",)


def stamp_time_cache(cache, f, r, p, samples=None):
    """Tie ``cache`` to (f, r, p, samples) on first use.

    Raises :class:`MeshError` if it was filled for another field object
    or another r, p or samples: its leaf errors would be stale.
    """
    stamp = cache.setdefault(_CACHE_STAMP, (f, r, p, samples))
    if stamp[0] is not f or stamp[1:] != (r, p, samples):
        raise MeshError(
            f"time cache was filled for {getattr(stamp[0], 'name', stamp[0])} "
            f"with (r, p, samples) = {stamp[1:]}, not for "
            f"{getattr(f, 'name', f)} with {(r, p, samples)}")


def greedy_time(f, r, p, delta, max_level=30, cache=None,
                samples=None) -> GreedyTimeResult:
    """Greedy bisection of [0, T) until every leaf error is <= delta.

    The per-leaf error functional is the exact best error for p = 2 and
    the constructive-approximant error otherwise.  Leaf errors are
    memoized in ``cache`` under their (level, index) cells, to share
    them across runs (other keys are left alone).  The first call
    stamps the dict with the field object, r, p and samples; a later
    call with any of them different raises :class:`MeshError`.  Raises
    :class:`GreedyCapError` with the offending intervals if the level
    cap is hit first.
    """
    if not delta > 0:
        raise MeshError(f"delta must be positive, got {delta}")
    part = IntervalMesh(T=f.domain.T)
    cache = cache if cache is not None else {}
    stamp_time_cache(cache, f, r, p, samples)
    kw = {} if samples is None else {"samples": samples}

    def leaf_error(cell):
        if cell not in cache:
            cache[cell] = slice_error(f, part.interval(cell), r, p, **kw)
        return cache[cell]

    trace = []
    while True:
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
        trace.append(TraceEntry(marked=len(marked),
                                leaves=part.size + len(marked),
                                maxerr=max(errs),
                                min_marked_err=min(errs[i] for i in marked)))
        part = part.refine(marked)
    part.trace = trace

    pieces = []
    for c in part.cells:
        interval = part.interval(c)
        if p == 2:
            pieces.append(project_time_slice(f, interval, r))
        else:
            pieces.append(jackson_construct(f, interval, r, p, **kw))
    errors = {c: cache[c] for c in part.cells}
    return GreedyTimeResult(partition=part, pieces=pieces, errors=errors)


def uniform_time_error(f, r, p, m) -> float:
    """Error of the best order-r piecewise polynomial on m equal intervals.

    Independent oracle used as the non-adaptive baseline in the rate
    experiments.
    """
    T = f.domain.T
    edges = np.linspace(0.0, T, m + 1)
    errs = np.array([slice_error(f, (edges[i], edges[i + 1]), r, p)
                     for i in range(m)])
    if np.isinf(p):
        return float(np.max(errs))
    return float(np.sum(errs ** p) ** (1.0 / p))
