"""Timing spans around the public functions of each stgreedy module.

Only the traced run installs the wrappers; they rebind public names at
their import sites and on classes, from outside the package, and
``Tracer.uninstall`` puts the original objects back.  Each span records
its name, start, end and parent span, in memory.  A span's self time is
its duration minus the time its child spans cover (the run is single
threaded, so children never overlap).  Counters are measured at the same
boundaries so that per-unit costs come from where the work happens.
"""

import functools
import gc
import json
from collections import defaultdict
from time import perf_counter

from stgreedy import (fem, fields, harness, mesh1d, meshnd, polyspace,
                      quadrature, smoothness, spacetime, xvalued)


def _pairwise_bytes(args, kwargs, result):
    fn, ts, _, ys = args[:4]
    m = 1 if fn.separable else len(fn.grid.weights)
    return {"bytes_computed": 8 * len(ys) * len(ts) * m}


def _greedy_time_sizes(args, kwargs, result):
    trace = result.partition.trace
    return {"iterations": len(trace), "leaves": result.partition.size,
            # every loop body looks up each leaf of its partition once
            "lookups": 1 + sum(e.leaves for e in trace)}


def _refine_sizes(args, kwargs, result):
    mesh, marked = args[:2]
    return {"marked": len(marked), "elements": result.size,
            "closure_added": result.size - mesh.size - len(marked)}


def _avg_h_points(args, kwargs, result):
    params = args[3]
    return {"h_points": len(quadrature.composite_nodes(
        0.0, 1.0, panels=params.avg_panels)[0])}


# (span name, owner, attribute, other import sites, counters)
TARGETS = [
    ("fields.sample", fields.Field, "sample", [],
     lambda a, k, r: {"values": r.size}),
    ("quadrature.time_nodes", quadrature, "time_nodes", [xvalued, polyspace],
     lambda a, k, r: {"nodes": len(r[0])}),
    ("xvalued.lp_norm", xvalued.SliceFn, "lp_norm", [], None),
    ("xvalued.pairwise_lp_distance", xvalued, "pairwise_lp_distance",
     [polyspace], _pairwise_bytes),
    ("smoothness.modulus_sup", smoothness, "modulus_sup", [harness],
     lambda a, k, r: {"h_points": len(a[3].h_grid(a[2]))}),
    ("smoothness.modulus_avg", smoothness, "modulus_avg", [harness],
     _avg_h_points),
    ("smoothness.besov_seminorm_discrete", smoothness,
     "besov_seminorm_discrete", [spacetime], None),
    ("polyspace.best_error", polyspace, "best_error", [], None),
    ("polyspace.project_time_slice", polyspace, "project_time_slice",
     [mesh1d, spacetime], None),
    ("polyspace.median_constant", polyspace, "median_constant", [], None),
    ("polyspace.jackson_construct", polyspace, "jackson_construct",
     [mesh1d, harness], None),
    # rebound only where greedy_time calls it, so its calls are cache misses
    ("mesh1d.slice_error", mesh1d, "slice_error", [], None),
    ("mesh1d.greedy_time", mesh1d, "greedy_time", [spacetime, harness],
     _greedy_time_sizes),
    ("meshnd.refine_bisection", meshnd, "refine_bisection", [fem],
     _refine_sizes),
    ("meshnd.overlay", meshnd, "overlay", [spacetime],
     lambda a, k, r: {"elements": r.size}),
    ("fem.FemSpace", fem.FemSpace, "__init__", [],
     lambda a, k, r: {"elements": a[0].mesh.size, "dofs": a[0].ndof}),
    ("fem.fem_project", fem, "fem_project", [spacetime],
     lambda a, k, r: {"dofs": r.space.ndof}),
    ("fem.element_indicators", fem, "element_indicators", [spacetime], None),
    ("fem.greedy_space", fem, "greedy_space", [spacetime, harness],
     lambda a, k, r: {"iterations": len(r[2])}),
    ("spacetime.build_fully_discrete", spacetime, "build_fully_discrete",
     [harness], None),
    ("spacetime.global_error", spacetime, "global_error", [], None),
    ("harness.run_experiment", harness, "run_experiment", [], None),
    ("harness.emit_report", harness, "emit_report", [], None),
    ("harness.fit_rate", harness, "fit_rate", [], None),
]


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = defaultdict(int)


class Tracer:
    """In-memory spans plus per-name call, time and counter totals."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.stats = defaultdict(Stat)
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._stack = []         # [span index, time covered by children]
        self._saved = []
        self._gc_start = None

    def span(self, name, fn, counters=None):
        """``fn`` wrapped so that each call records one span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
                stat = self.stats[name]
                stat.calls += 1
                stat.total_s += end - start
                stat.self_s += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    stat.counters[key] += value
            return result
        return traced

    def install(self):
        for name, owner, attr, sites, counters in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self.span(name, original, counters)
            for target in [owner] + sites:
                self._saved.append((target, attr, target.__dict__[attr]))
                setattr(target, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_start
            self._gc_start = None

    def snapshot(self):
        """Totals so far, as {name: (calls, total_s, self_s, counters)}."""
        return {name: (s.calls, s.total_s, s.self_s, dict(s.counters))
                for name, s in self.stats.items()}

    def write(self, path):
        """All spans, with names as indices into a name table."""
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], start, end, parent]
                                 for n, start, end, parent in self.spans]},
                      fh, separators=(",", ":"))
