"""Each demo prints the bytes recorded in ``demos/expected``.

A demo runs as a script in a fresh interpreter, with ``src`` on the
path and RuntimeWarnings turned into errors, so a demo that warns or
fails, or whose numbers move in any digit it prints, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_its_expected_output():
    expected = sorted((ROOT / "demos" / "expected").glob("*.txt"))
    assert [p.stem for p in expected] == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_its_expected_bytes(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    want = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
    assert done.stdout == want
