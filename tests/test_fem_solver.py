"""The direct solve path: scipy's compiled kernels loaded by file.

``fem`` assembles, solves and checks with scipy's sparsetools and
SuperLU modules, not through ``scipy.sparse``.  The arrays, solutions
and residuals must have the bytes of the public scipy calls they stand
for, the loader must coexist with a public import of scipy in either
order, and a first use from several threads must load each module once.
The loader checks run in fresh interpreters, since this process has
loaded both modules already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from stgreedy.fem import (SCIPY_PIN, CsrArrays, FemSpace, _load_compiled,
                          _matmul, _solve)
from stgreedy.meshnd import IntervalMesh, TriangleMesh, refine_bisection

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def meshes(draw):
    dim = draw(st.sampled_from([1, 2]))
    mesh = IntervalMesh.unit_interval() if dim == 1 else \
        TriangleMesh.unit_square()
    for _ in range(draw(st.integers(0, 5))):
        picks = draw(st.lists(st.integers(0, 10 ** 6), min_size=1,
                              max_size=6))
        mesh = refine_bisection(mesh, sorted({p % mesh.size for p in picks}))
    return mesh


def public_mass(space):
    """The COO assembly of the element mass matrices, summed by tocsr."""
    L = space._mref.shape[0]
    rows = np.repeat(space.eldofs, L, axis=1).ravel()
    cols = np.tile(space.eldofs, (1, L)).ravel()
    vals = (space.measures()[:, None, None] * space._mref).ravel()
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(space.ndof, space.ndof)).tocsr()


def assert_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=40, deadline=None, database=None)
@given(meshes(), st.sampled_from([2, 3]), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_solve_has_the_bytes_of_public_scipy(mesh, r2, k, seed):
    space = FemSpace(mesh, r2)
    M, ref = space.mass_matrix(), public_mass(space)
    for name in ("data", "indices", "indptr"):
        assert_bytes(getattr(M, name), getattr(ref, name))
    # load vectors of a kink plus columns spread over magnitudes
    rng = np.random.default_rng(seed)
    kink, _ = space.load_vector(
        lambda p: np.abs(p[:, 0] - 0.3) ** 0.5 + p[:, -1] ** 2)
    B = np.column_stack([kink] + [
        rng.standard_normal(space.ndof) * 10.0 ** rng.integers(-3, 4)
        for _ in range(k - 1)])
    X = _solve(M, B)
    assert_bytes(X, spla.spsolve(ref, B).reshape(B.shape))
    assert_bytes(_matmul(M, X), ref @ X)


def test_a_singular_matrix_solves_to_nan():
    # spsolve warns and returns NaN; the residual check then fails
    ones = CsrArrays(np.ones(4), np.array([0, 1, 0, 1], dtype=np.int32),
                     np.array([0, 2, 4], dtype=np.int32))
    X = _solve(ones, np.ones((2, 3)))
    assert X.shape == (2, 3) and np.isnan(X).all()


def test_a_missing_module_names_its_path_and_the_scipy_pin():
    with pytest.raises(ImportError) as err:
        _load_compiled("scipy.sparse._no_such_module")
    path = Path(err.value.path)
    assert path.parent.name == "sparse" and \
        path.name.startswith("_no_such_module.")
    assert str(path) in str(err.value) and f"scipy=={SCIPY_PIN}" in str(err.value)


def run_child(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return json.loads(done.stdout)


# a 2-D projection, its solve by public scipy, and what sys.modules holds
COMMON = """
import json, sys
import numpy as np
from stgreedy import fem
from stgreedy.meshnd import TriangleMesh, refine_bisection

mesh = refine_bisection(
    refine_bisection(TriangleMesh.unit_square(), [0, 1]), [0, 3])
g = lambda p: np.hypot(p[:, 0] - 0.3, p[:, 1] - 0.5) ** 0.5

def library():
    return fem.fem_project(g, mesh, 3).dofs.tobytes().hex()

def public():
    import scipy.sparse as sp, scipy.sparse.linalg as spla
    space = fem.FemSpace(mesh, 3)
    L = space._mref.shape[0]
    rows = np.repeat(space.eldofs, L, axis=1).ravel()
    cols = np.tile(space.eldofs, (1, L)).ravel()
    vals = (space.measures()[:, None, None] * space._mref).ravel()
    M = sp.coo_matrix((vals, (rows, cols)),
                      shape=(space.ndof, space.ndof)).tocsr()
    return spla.spsolve(M, space.load_vector(g)[0]).tobytes().hex()
"""


def test_library_first_then_public_scipy():
    out = run_child(COMMON + """
first = library()
held = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.sparse, scipy.sparse.linalg
# attribute access once failed when the loader left its modules behind
kernels = [scipy.sparse._sparsetools.__name__,
           scipy.sparse.linalg._dsolve._superlu.__name__]
print(json.dumps([first, held, kernels, public(), library()]))
""")
    first, held, kernels, public, again = out
    assert held == []
    assert kernels == ["scipy.sparse._sparsetools",
                       "scipy.sparse.linalg._dsolve._superlu"]
    assert public == first and again == first


def test_public_scipy_first_then_library():
    out = run_child(COMMON + """
reference = public()
import scipy.sparse._sparsetools as st
import scipy.sparse.linalg._dsolve._superlu as lu
first = library()
print(json.dumps([reference, first,
                  list(fem._kernels_loaded) == [st, lu]]))
""")
    reference, first, shared = out
    assert first == reference and shared


def test_first_use_from_four_threads_loads_once():
    out = run_child(COMMON + """
import threading, time
from concurrent.futures import ThreadPoolExecutor

loads = []
real = fem._load_compiled

def slow_load(name):
    loads.append(name)
    time.sleep(0.05)          # widen the window for a second loader
    return real(name)

fem._load_compiled = slow_load
start = threading.Barrier(4)

def job(_):
    start.wait()
    return library()

with ThreadPoolExecutor(4) as pool:
    results = list(pool.map(job, range(4)))
print(json.dumps([loads, results, public()]))
""")
    loads, results, reference = out
    assert loads == ["scipy.sparse._sparsetools",
                     "scipy.sparse.linalg._dsolve._superlu"]
    assert results == [reference] * 4
