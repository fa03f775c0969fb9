"""2-D space outputs against a golden recorded before the triangle mesh
moved to array storage.

The golden holds 2-D greedy_space meshes and histories, and 2-D
build_fully_discrete reports with their slice meshes (r1 = 2 overlays
the meshes of two coefficients).  Every mesh and every count must
match exactly; errors within relative 1e-13, so that the test holds
on other CPUs' BLAS too.

Record the golden again with
``PYTHONPATH=src python tests/test_triangle_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from stgreedy.fem import greedy_space
from stgreedy.fields import DomainSpec, Field, Regularity, make_test_field
from stgreedy.spacetime import build_fully_discrete

GOLDEN = Path(__file__).parent / "golden" / "triangle_2d.json"
DOM = DomainSpec(T=1.0, n=2)
RTOL = 1e-13
EPS = 0.1


def moving_field_2d(x0=0.25, v=0.5):
    return Field(DOM, lambda t, x, y: np.hypot(x - x0 - v * t, y - 0.5) ** 0.5,
                 regularity=Regularity(s1=1, q1=1, s2=2, q2=2),
                 name="moving-2d", params=(x0, v))


def fields():
    return {"moving": moving_field_2d(),
            "tensor-singular": make_test_field("tensor-singular", [0.25],
                                               DOM)}


def capture():
    out = {"greedy_space": [], "build_fully_discrete": []}
    space_fns = {
        "corner": lambda p: np.hypot(p[:, 0] - 0.3, p[:, 1] - 0.6) ** 0.5,
        "smooth": lambda p: np.sin(np.pi * p[:, 0]) * np.cos(p[:, 1])}
    for name, g in space_fns.items():
        for r2, delta in ((2, 4e-3), (3, 5e-4)):
            mesh, _, history = greedy_space(g, r2, delta, n=2)
            out["greedy_space"].append({
                "function": name, "r2": r2, "delta": delta,
                "mesh": json.loads(mesh.to_json()),
                "sizes": [s for s, _ in history],
                "errors": [e for _, e in history]})
    for name, f in fields().items():
        for r1 in (1, 2):
            for r2 in (2, 3):
                part, _, rep = build_fully_discrete(f, EPS, r1, r2)
                out["build_fully_discrete"].append({
                    "field": name, "r1": r1, "r2": r2, "eps": EPS,
                    "slice_meshes": [json.loads(m.to_json())
                                     for m in part.slice_meshes],
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
        assert g["mesh"] == w["mesh"]
        assert g["sizes"] == w["sizes"]
        assert g["errors"] == pytest.approx(w["errors"], rel=RTOL, abs=0)


def test_build_fully_discrete_matches_golden(runs):
    got, want = runs
    assert len(got["build_fully_discrete"]) == \
        len(want["build_fully_discrete"])
    for g, w in zip(got["build_fully_discrete"], want["build_fully_discrete"]):
        for k in ("N_time", "total_cardinality", "slice_meshes"):
            assert g[k] == w[k]
        for k in ("error_time_step", "error_space_step", "global_error"):
            assert g[k] == pytest.approx(w[k], rel=RTOL, abs=0)
        assert [s["mesh_size"] for s in g["per_slice"]] == \
            [s["mesh_size"] for s in w["per_slice"]]
        for gs, ws in zip(g["per_slice"], w["per_slice"]):
            assert gs["errors_per_j"] == pytest.approx(
                ws["errors_per_j"], rel=RTOL, abs=0)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
