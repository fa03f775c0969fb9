"""Bisection partitions of the time interval and the greedy driver.

Intervals are tracked as (level, index) pairs, so every cell is exactly
[T i 2^-level, T (i+1) 2^-level) and breakpoints are reproducible
bit-for-bit.  The greedy loop marks every leaf whose local best-error
exceeds the threshold, bisects all marked leaves, and repeats until no
leaf is marked.
"""

import json
from dataclasses import dataclass, field as dfield

import numpy as np

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


@dataclass
class TimePartition:
    """Dyadic partition of [0, T): ordered (level, index) cells."""

    T: float = 1.0
    cells: list = dfield(default_factory=lambda: [(0, 0)])
    trace: list = dfield(default_factory=list)
    initial_size: int = 1

    def __post_init__(self):
        self.cells = sorted(self.cells, key=self.interval)

    @property
    def size(self):
        return len(self.cells)

    def interval(self, cell):
        lvl, idx = cell
        w = self.T * 2.0 ** (-lvl)
        return (idx * w, (idx + 1) * w)

    @property
    def breakpoints(self):
        pts = [self.interval(c)[0] for c in self.cells]
        pts.append(self.T)
        return np.array(pts)

    @property
    def levels(self):
        return [c[0] for c in self.cells]

    def refine(self, marked, trace_entry=None):
        """New partition with every marked cell replaced by its children."""
        marked = set(marked)
        unknown = marked.difference(self.cells)
        if unknown:
            raise MeshError(f"unknown interval ids: {sorted(unknown)}")
        cells = []
        for c in self.cells:
            if c in marked:
                lvl, idx = c
                cells += [(lvl + 1, 2 * idx), (lvl + 1, 2 * idx + 1)]
            else:
                cells.append(c)
        entry = trace_entry or TraceEntry(marked=len(marked), leaves=0,
                                          maxerr=float("nan"))
        entry.leaves = len(cells)
        return TimePartition(T=self.T, cells=cells,
                             trace=self.trace + [entry],
                             initial_size=self.initial_size)

    def trace_json(self):
        """Serialized refinement history: iterations plus breakpoints."""
        return json.dumps({
            "iterations": [{"marked": e.marked, "leaves": e.leaves,
                            "maxerr": e.maxerr} for e in self.trace],
            "breakpoints": [float(t) for t in self.breakpoints],
        })


def refine_1d(partition: TimePartition, marked) -> TimePartition:
    return partition.refine(marked)


def complexity_ratio(partition: TimePartition) -> float:
    """(#T - #T0) / total marks; equals 1 exactly for 1-D bisection."""
    total_marked = sum(e.marked for e in partition.trace)
    grown = partition.size - partition.initial_size
    if total_marked == 0:
        return 0.0
    return grown / total_marked


@dataclass
class GreedyTimeResult:
    partition: TimePartition
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
    T = f.domain.T
    part = TimePartition(T=T)
    cache = cache if cache is not None else {}
    stamp_time_cache(cache, f, r, p, samples)
    kw = {} if samples is None else {"samples": samples}

    def leaf_error(cell):
        if cell not in cache:
            cache[cell] = slice_error(f, part.interval(cell), r, p, **kw)
        return cache[cell]

    while True:
        errs = {c: leaf_error(c) for c in part.cells}
        marked = [c for c in part.cells if errs[c] > delta]
        if not marked:
            break
        blocked = [c for c in marked if c[0] >= max_level]
        if blocked:
            raise GreedyCapError(
                f"level cap {max_level} reached with {len(blocked)} intervals "
                f"above delta={delta}", offenders=blocked)
        entry = TraceEntry(marked=len(marked), leaves=0,
                           maxerr=max(errs.values()),
                           min_marked_err=min(errs[c] for c in marked))
        part = part.refine(marked, trace_entry=entry)

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
