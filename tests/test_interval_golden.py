"""1-D space outputs against a golden recorded before the interval mesh
kept its cells in position order.

Element order sets the dof numbering and the order of the indicator
sum, so reordering the cells may move last bits but nothing else.
Every count and every greedy_space mesh must match exactly; the
top-level errors and the greedy_space histories within relative 1e-13,
and the per-slice errors within relative 1e-12.

Record the golden again with
``PYTHONPATH=src python tests/test_interval_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from stgreedy.fem import greedy_space
from stgreedy.fields import DomainSpec, Field, Regularity, make_test_field
from stgreedy.spacetime import build_fully_discrete

GOLDEN = Path(__file__).parent / "golden" / "interval_1d.json"
DOM = DomainSpec(T=1.0, n=1)
TOP_RTOL = 1e-13
SLICE_RTOL = 1e-12


def moving_field_1d(x0=0.25, v=0.5):
    return Field(DOM, lambda t, x: np.abs(x - x0 - v * t) ** 0.5,
                 regularity=Regularity(s1=1, q1=1, s2=2, q2=2),
                 name="moving-1d", params=(x0, v))


def fields():
    return {"moving": moving_field_1d(),
            "tensor-singular": make_test_field("tensor-singular", [0.25],
                                               DOM)}


def capture():
    out = {"greedy_space": [], "build_fully_discrete": []}
    space_fns = {"moving": lambda p: np.abs(p[:, 0] - 0.4) ** 0.5,
                 "tensor-singular": lambda p: np.sin(np.pi * p[:, 0])}
    for name, g in space_fns.items():
        for r2, delta in ((2, 2e-3), (3, 2e-4)):
            mesh, _, history = greedy_space(g, r2, delta, n=1)
            out["greedy_space"].append({
                "field": name, "r2": r2, "delta": delta,
                "cells": sorted(map(list, mesh.cells)),
                "sizes": [s for s, _ in history],
                "errors": [e for _, e in history]})
    for name, f in fields().items():
        for r1 in (1, 2):
            for r2 in (2, 3):
                _, _, rep = build_fully_discrete(f, 0.05, r1, r2)
                out["build_fully_discrete"].append({
                    "field": name, "r1": r1, "r2": r2, "eps": 0.05,
                    **{k: rep[k] for k in (
                        "N_time", "total_cardinality", "error_time_step",
                        "error_space_step", "global_error", "per_slice")}})
    return out


@pytest.fixture(scope="module")
def runs():
    return capture(), json.loads(GOLDEN.read_text())


def test_greedy_space_matches_golden(runs):
    got, want = runs
    assert len(got["greedy_space"]) == len(want["greedy_space"])
    for g, w in zip(got["greedy_space"], want["greedy_space"]):
        assert g["cells"] == w["cells"]
        assert g["sizes"] == w["sizes"]
        assert g["errors"] == pytest.approx(w["errors"], rel=TOP_RTOL, abs=0)


def test_build_fully_discrete_matches_golden(runs):
    got, want = runs
    assert len(got["build_fully_discrete"]) == \
        len(want["build_fully_discrete"])
    for g, w in zip(got["build_fully_discrete"], want["build_fully_discrete"]):
        for k in ("N_time", "total_cardinality"):
            assert g[k] == w[k]
        for k in ("error_time_step", "error_space_step", "global_error"):
            assert g[k] == pytest.approx(w[k], rel=TOP_RTOL, abs=0)
        assert [s["mesh_size"] for s in g["per_slice"]] == \
            [s["mesh_size"] for s in w["per_slice"]]
        for gs, ws in zip(g["per_slice"], w["per_slice"]):
            assert gs["errors_per_j"] == pytest.approx(
                ws["errors_per_j"], rel=SLICE_RTOL, abs=0)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
