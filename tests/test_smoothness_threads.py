"""The step sizes h of a modulus run on several threads: same bytes as the
serial loop, the serial loop's errors, the caller's numpy error state,
and no thread left behind."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from stgreedy import smoothness
from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.smoothness import (BesovParams, SmoothnessParams, besov_terms,
                                 modulus_avg, modulus_sup)

SRC = Path(__file__).resolve().parents[1] / "src"

# the 2-D moving field and a graded one, on a 4-point time rule (24
# uniform and 164 graded nodes, both past the 2-D grid's 4-row blocks)
CHILD = """
import json, sys
import numpy as np
from stgreedy import smoothness
from stgreedy.fields import DomainSpec, Field
from stgreedy.smoothness import (BesovParams, SmoothnessParams, besov_terms,
                                 modulus_avg, modulus_sup)

dom = DomainSpec(T=1.0, n=2, quad_points=4)
moving = Field(dom, lambda t, x, y: np.hypot(x - 0.25 - 0.5 * t, y - 0.5)
               ** 0.5)
graded = Field(dom, lambda t, x, y: t ** 0.25
               * np.hypot(x - 0.3 - 0.2 * t, y - 0.5) ** 0.5,
               singular_t0=True)
sp = SmoothnessParams(r=2, p=2.0, h_per_octave=2, h_octaves=1, avg_panels=1)
bp = BesovParams(s=1.0, q=1.0, kmax=4)
bsp = SmoothnessParams(h_per_octave=1, h_octaves=1)

threaded = smoothness._threaded_map
threads = []

def counted(fn, items, n):
    threads.append(n)
    return threaded(fn, items, n)

smoothness._threaded_map = counted
out = {}
for cpus in (1, 2):
    smoothness._cpus = lambda: cpus
    threads.clear()
    vals = []
    for f in (moving, graded):
        for u in (0.25, 0.0625):
            vals += [modulus_sup(f, (0.0, 1.0), u, sp),
                     modulus_avg(f, (0.0, 1.0), u, sp)]
        vals += besov_terms(f, (0.0, 1.0), bp, bsp).tolist()
    out[cpus] = [[float(v).hex() for v in vals], max(threads)]
print(json.dumps(out))
"""


@pytest.mark.parametrize("blas", ["1", "2"])
def test_threaded_norms_keep_the_serial_bytes(blas):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    (serial, serial_threads), (threaded, threads) = out["1"], out["2"]
    assert serial_threads == 1 and threads == 2
    assert threaded == serial


def test_earliest_failing_item_is_raised():
    # three threads take items 0, 1 and 2 (0 and 1 wait for 2, so each
    # is on its own thread); item 2 fails first in time, item 1 after
    # it, and the serial loop would raise item 1's error; the thread of
    # item 0 then finds an error and claims no further item
    started, second_failed = [], threading.Event()

    def fn(i):
        started.append(i)
        if i in (0, 1):
            second_failed.wait(10.0)
            time.sleep(0.1)
            if i == 1:
                raise ValueError("item 1")
        if i == 2:
            second_failed.set()
            raise ValueError("item 2")
        return float(i)

    before = threading.active_count()
    with pytest.raises(ValueError, match="item 1"):
        smoothness._threaded_map(fn, list(range(8)), 3)
    assert sorted(started) == [0, 1, 2]
    assert threading.active_count() == before


def test_no_item_is_claimed_after_a_helper_fails():
    # the helper fails at once; the caller finds the error after its
    # current item or the next, instead of working through all ten
    caller, started = threading.get_ident(), []

    def fn(i):
        started.append(i)
        if threading.get_ident() != caller:
            raise ValueError("helper")
        time.sleep(0.1)
        return float(i)

    with pytest.raises(ValueError, match="helper"):
        smoothness._threaded_map(fn, list(range(10)), 2)
    assert len(started) < 6


def test_threaded_map_claims_each_item_once():
    # more threads than cores and a short switch interval: a claim lost
    # to a race would run an item twice or leave its slot unwritten
    calls = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = threading.active_count()
        out = smoothness._threaded_map(
            lambda i: calls.append(i) or i * 0.5, list(range(2000)), 8)
    finally:
        sys.setswitchinterval(old)
    assert out.tolist() == [i * 0.5 for i in range(2000)]
    assert sorted(calls) == list(range(2000))
    assert threading.active_count() == before


def test_a_failed_start_joins_the_started_helpers(monkeypatch):
    # the second helper cannot start: the first stops claiming items and
    # is joined before the start error reaches the caller
    start, starts, ran = threading.Thread.start, [], []

    def failing_start(self):
        starts.append(self)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(self)

    def fn(i):
        ran.append(i)
        time.sleep(0.01)
        return float(i)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        smoothness._threaded_map(fn, list(range(100)), 4)
    assert threading.active_count() == before
    assert not starts[0].is_alive()
    count = len(ran)
    time.sleep(0.05)
    assert len(ran) == count < 100


def recording_field(seen, fail_after=None):
    """2-D field that records (thread, overflow mode) on each call."""
    def evaluator(t, x, y):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        time.sleep(0.002)       # let every thread claim a step size
        if fail_after is not None and np.max(t) > fail_after:
            raise ValueError(f"t above {fail_after}")
        return np.hypot(x - 0.25 - 0.5 * t, y - 0.5) ** 0.5
    return Field(DomainSpec(T=1.0, n=2), evaluator)


SP = SmoothnessParams(r=1, p=2.0, h_per_octave=2, h_octaves=1, avg_panels=1)


def test_caller_errstate_reaches_the_helpers(monkeypatch):
    monkeypatch.setattr(smoothness, "_cpus", lambda: 2)
    seen = []
    with np.errstate(over="raise"):
        modulus_sup(recording_field(seen), (0.0, 1.0), 0.25, SP)
    assert len({ident for ident, _ in seen}) == 2
    assert {mode for _, mode in seen} == {"raise"}


def test_no_thread_outlives_a_call(monkeypatch):
    monkeypatch.setattr(smoothness, "_cpus", lambda: 4)
    seen = []
    f = recording_field(seen)
    calls = [lambda: modulus_sup(f, (0.0, 1.0), 0.25, SP),
             lambda: modulus_avg(f, (0.0, 1.0), 0.25, SP),
             lambda: besov_terms(f, (0.0, 1.0), BesovParams(s=0.5, q=2.0,
                                                            kmax=4), SP)]
    for call in calls:
        before = threading.active_count()
        call()
        assert threading.active_count() == before
    assert len({ident for ident, _ in seen}) > 1
    # every difference reaches past t = 0.9, so every h fails
    failing = recording_field([], fail_after=0.9)
    before = threading.active_count()
    with pytest.raises(ValueError, match="t above 0.9"):
        modulus_sup(failing, (0.0, 1.0), 0.25, SP)
    assert threading.active_count() == before


def test_threads_follow_the_row_blocks(monkeypatch):
    # one thread when each norm takes one row block: separable slices,
    # and 60 uniform nodes within the 68 rows of the 1-D grid's 480
    # points; else one per CPU up to the h count: 410 graded 1-D nodes,
    # and 60 nodes in the 4-row blocks of the 2-D grid's 6144 points
    monkeypatch.setattr(smoothness, "_cpus", lambda: 4)
    threads, threaded = [], smoothness._threaded_map

    def counted(fn, items, n):
        threads.append(n)
        return threaded(fn, items, n)

    monkeypatch.setattr(smoothness, "_threaded_map", counted)

    def used(f, a=0.0, moduli=(modulus_sup, modulus_avg), params=SP):
        threads.clear()
        for modulus in moduli:
            assert modulus(f, (a, 1.0), 0.25, params) > 0
        return set(threads)

    dom1 = DomainSpec(T=1.0, n=1)
    moving1 = Field(dom1, lambda t, x: np.abs(x - 0.25 - 0.5 * t) ** 0.5)
    graded1 = Field(dom1, lambda t, x: t ** 0.25 * np.abs(x - 0.5),
                    singular_t0=True)
    separable2 = make_test_field("tensor-singular", [0.25],
                                 DomainSpec(T=1.0, n=2))
    assert used(moving1) == used(separable2) == used(graded1, a=0.5) == {1}
    assert min(used(graded1)) > 1
    assert min(used(recording_field([]))) > 1
    # a single step size: one thread
    assert used(recording_field([]), moduli=(modulus_sup,),
                params=SmoothnessParams(r=1, h_octaves=0)) == {1}
