"""greedy_time outputs against a golden, bit for bit.

Covers p in {1, 2, inf} on the 1-D moving singularity (non-separable),
on tensor-singular(0.25) (graded time nodes at t = 0) and on
space-power (a singular spatial grid), each with one time cache shared
by a sweep of deltas, once in decreasing and once in increasing order.
Leaf errors and the values of the pieces, on the spatial grid at a
fixed set of times and, where the pieces evaluate off the grid, at
fixed points, are stored as ``float.hex`` once per (field, p, r,
delta), and the runs of both orders must match them exactly.

Record the golden again with
``PYTHONPATH=src python tests/test_time_greedy_golden.py``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from stgreedy.fields import DomainSpec, Field, Regularity, make_test_field
from stgreedy.mesh1d import greedy_time

GOLDEN = Path(__file__).parent / "golden" / "time_greedy.json"
DOM = DomainSpec(T=1.0, n=1)
# fixed evaluation times (one per leaf they fall in) and off-grid points
TS = (np.arange(8) + 0.37) / 8
XS = np.array([[0.03], [0.2501], [0.5], [0.71], [0.98]])
# every GRID_STEP-th point of the spatial grid
GRID_STEP = 40
RUNS = {1: {1: (0.02, 0.008, 0.003), 2: (0.01, 0.003, 0.001)},
        2: {1: (0.01, 0.003, 0.001), 2: (0.003, 0.001, 0.0003)},
        math.inf: {1: (0.05, 0.02, 0.01)}}


def moving_field_1d(x0=0.25, v=0.5):
    return Field(DOM, lambda t, x: np.abs(x - x0 - v * t) ** 0.5,
                 regularity=Regularity(s1=1, q1=1, s2=2, q2=2),
                 name="moving-1d", params=(x0, v))


def fields():
    return {"moving": moving_field_1d(),
            "tensor-singular": make_test_field("tensor-singular", [0.25],
                                               DOM),
            "space-power": make_test_field("space-power", [0.5, 0.3], DOM)}


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def piece_values(res, f):
    """Values of the pieces at TS: on the grid, and at XS if they can."""
    bps = res.partition.breakpoints
    leaf = np.searchsorted(bps, TS, side="right") - 1
    on_grid, off_grid = [], []
    for t, i in zip(TS, leaf):
        poly = res.pieces[i]
        w = poly.basis.eval([t])
        vals = w @ np.stack([c.vals for c in poly.coeffs])
        on_grid += hexes(vals[0, ::GRID_STEP])
        try:
            off_grid += hexes(poly.values([t], XS))
        except ValueError:      # a piece without an off-grid evaluator
            off_grid = None
            break
    return on_grid, off_grid


def capture():
    out = []
    for name, f in fields().items():
        for p, by_r in RUNS.items():
            for r, deltas in by_r.items():
                for order in ("decreasing", "increasing"):
                    sweep = sorted(deltas, reverse=(order == "decreasing"))
                    cache = {}
                    for delta in sweep:
                        res = greedy_time(f, r, p, delta, cache=cache)
                        on_grid, off_grid = piece_values(res, f)
                        out.append({
                            "field": name, "p": str(p), "r": r,
                            "delta": delta, "order": order,
                            "cells": [list(c) for c in res.partition.cells],
                            "errors": hexes([res.errors[c]
                                             for c in res.partition.cells]),
                            "values_on_grid": on_grid,
                            "values_off_grid": off_grid})
    return out


def key(run):
    return run["field"], run["p"], run["r"], run["delta"]


OUTPUTS = ("cells", "errors", "values_on_grid", "values_off_grid")


@pytest.fixture(scope="module")
def runs():
    return capture(), {key(w): w for w in json.loads(GOLDEN.read_text())}


def test_time_greedy_matches_golden(runs):
    got, want = runs
    assert {key(g) for g in got} == set(want)
    for g in got:
        w = want[key(g)]
        for k in OUTPUTS:
            assert g[k] == w[k], (key(g), g["order"], k)


def record():
    """One line per (field, p, r, delta); both orders must agree."""
    golden = {}
    for run in capture():
        rec = {k: v for k, v in run.items() if k != "order"}
        assert golden.setdefault(key(rec), rec) == rec, key(rec)
    lines = ",\n".join(json.dumps(rec) for rec in golden.values())
    GOLDEN.write_text("[\n" + lines + "\n]\n")


if __name__ == "__main__":
    record()
