"""The time-side modes never load scipy; the FE modes load two of its
compiled modules at first use, and none of its Python packages.

Each check runs in a fresh interpreter: the test process has scipy
loaded already, so ``sys.modules`` here cannot show an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from stgreedy.xvalued import SliceFn

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import stgreedy
out = {"import": scipy_modules()}
from stgreedy.cli import main
for mode, cfg in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([mode, "--config", cfg])
    out[mode] = [code, scipy_modules()]
from stgreedy import fem
out["kernels"] = [m.__name__ for m in fem._kernels_loaded or ()]
print(json.dumps(out))
"""

BASE = """
field.name = tensor-singular
field.params = 0.25
r = 2
p = 2
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 4
"""


def run_fresh(tmp_path, modes, extra=""):
    runs = []
    for mode in modes:
        cfg = tmp_path / f"{mode}.txt"
        cfg.write_text(f"mode = {mode}\n{BASE}{extra}"
                       f"out.dir = {tmp_path / mode}\n")
        runs.append([mode, str(cfg)])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    return json.loads(done.stdout)


TIME_SIDE_MODES = ["moduli", "besov", "jackson", "whitney", "greedy-time"]


def test_time_side_modes_load_no_scipy(tmp_path):
    out = run_fresh(tmp_path, TIME_SIDE_MODES, "kmax = 4\n")
    assert out.pop("import") == []
    assert out.pop("kernels") == []
    assert out == {mode: [0, []] for mode in TIME_SIDE_MODES}


def test_greedy_space_loads_the_sparse_solver(tmp_path):
    # the solver is scipy's compiled sparsetools and SuperLU, loaded by
    # path: no scipy package, not even scipy itself, enters sys.modules
    out = run_fresh(tmp_path, ["greedy-space", "greedy-st"])
    assert out.pop("import") == []
    assert out.pop("kernels") == ["scipy.sparse._sparsetools",
                                  "scipy.sparse.linalg._dsolve._superlu"]
    assert out == {"greedy-space": [0, []], "greedy-st": [0, []]}


def test_difference_signs_are_the_binomial_table():
    # gen(t) is the unit row e_t, so the difference at 0 with h = 1 is
    # the row of its signs
    row = [1]
    for r in range(1, 9):
        row = [a + b for a, b in zip([0] + row, row + [0])]
        fn = SliceFn(None, gen=lambda ts, r=r: (
            ts[:, None] == np.arange(r + 1)).astype(float))
        signs = fn.difference(1.0, r).coef([0.0])[0]
        expected = [c * (-1) ** (r - i) for i, c in enumerate(row)]
        assert signs.tolist() == expected
