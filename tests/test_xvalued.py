"""Cross-checks of the two spatial factors of a slice function.

The same mathematical function is wrapped twice: once with its
time/space factorization declared (a one-term slice with a profile
factor), once as an opaque evaluator (nodal values on the grid).  Every
norm, projection and construction must agree between the two views,
also when a slice of one view subtracts a polynomial built from the
other, which takes the fallback of ``minus_expansion`` onto nodal values.
"""

import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.mesh1d import greedy_time
from stgreedy.polyspace import (SlicePoly, best_error, jackson_construct,
                                lp_error, median_constant, project_time_slice)
from stgreedy.quadrature import SpatialGrid
from stgreedy.smoothness import SmoothnessParams, modulus_avg, modulus_sup
from stgreedy.spacetime import build_fully_discrete, global_error
from stgreedy import xvalued
from stgreedy.xvalued import (SliceFn, budget_rows, pairwise_lp_distance,
                              row_blocks)

DOM = DomainSpec(T=1.0, n=1)


def twin_fields():
    tau = lambda t: np.asarray(t) ** 0.25
    g = lambda x: np.sin(np.pi * x)
    sep = Field(DOM, lambda t, x: tau(t) * g(x), name="sep",
                time_part=tau, space_part=g, singular_t0=True)
    opaque = Field(DOM, lambda t, x: tau(t) * g(x), name="opaque",
                   singular_t0=True)
    # same spatial grid so the discretized X agrees exactly
    opaque.grid = sep.grid
    return sep, opaque


def test_norms_agree():
    sep, opq = twin_fields()
    fs, fo = SliceFn.from_field(sep), SliceFn.from_field(opq)
    assert fs.separable and not fo.separable
    ts = np.array([0.1, 0.5, 0.9])
    assert np.allclose(fs.xnorms(ts), fo.xnorms(ts), atol=1e-13)
    for p in (1.0, 2.0, np.inf):
        assert abs(fs.lp_norm(0.0, 1.0, p) - fo.lp_norm(0.0, 1.0, p)) < 1e-12
    d_s = fs.difference(0.05, 2)
    d_o = fo.difference(0.05, 2)
    assert abs(d_s.lp_norm(0.0, 0.9, 2) - d_o.lp_norm(0.0, 0.9, 2)) < 1e-12


@pytest.mark.filterwarnings("error")
def test_lp_norm_rescales_only_a_sum_that_overflows():
    # on (0, 1e300) the p = 2 sum of t^0.25 overflowed to inf with a
    # warning, while the norm is about 8e224; it scales as T^(1/4 + 1/p)
    unit, huge = (SliceFn.from_field(make_test_field(
        "time-power", [0.25], DomainSpec(T=T))) for T in (1.0, 1e300))
    for p in (2.0, 3.0):
        want = unit.lp_norm(0.0, 1.0, p) * 1e300 ** (0.25 + 1.0 / p)
        assert abs(huge.lp_norm(0.0, 1e300, p) / want - 1.0) < 1e-12
    # beyond the float range the norm is inf, still without a warning
    assert huge.lp_norm(0.0, 1e300, 1.0) == np.inf
    # a sum that does not overflow keeps the bits of the plain formula
    for p in (1.0, 2.0, 3.0):
        ts, ws = unit.quad(0.0, 1.0)
        plain = float(np.dot(ws, unit.xnorms(ts) ** p) ** (1.0 / p))
        assert unit.lp_norm(0.0, 1.0, p) == plain


def test_moduli_agree():
    sep, opq = twin_fields()
    for r, p in [(1, 2.0), (2, 1.0)]:
        sp = SmoothnessParams(r=r, p=p, h_per_octave=8)
        a = modulus_sup(sep, (0, 1), 0.125, sp)
        b = modulus_sup(opq, (0, 1), 0.125, sp)
        assert abs(a - b) < 1e-12
        a = modulus_avg(sep, (0, 1), 0.125, sp)
        b = modulus_avg(opq, (0, 1), 0.125, sp)
        assert abs(a - b) < 1e-12


def test_projection_and_best_error_agree():
    sep, opq = twin_fields()
    for interval in [(0.0, 1.0), (0.25, 0.5)]:
        for r in (1, 2):
            assert abs(best_error(sep, interval, r) -
                       best_error(opq, interval, r)) < 1e-12
            ps = project_time_slice(sep, interval, r)
            po = project_time_slice(opq, interval, r)
            for cs, co in zip(ps.coeffs, po.coeffs):
                assert np.allclose(cs.vals, co.vals, atol=1e-12)
                pts = np.linspace(0.05, 0.95, 7).reshape(-1, 1)
                assert np.allclose(cs.at_points(pts), co.at_points(pts),
                                   atol=1e-12)
            for p in (1.0, 2.0, np.inf):
                e = lp_error(sep, ps, p)
                for f, poly in [(opq, po), (sep, po), (opq, ps)]:
                    assert abs(lp_error(f, poly, p) - e) < 1e-12


def test_median_and_construction_agree():
    sep, opq = twin_fields()
    for p in (1.0, 2.0):
        ms = median_constant(sep, (0, 1), p, samples=65)
        mo = median_constant(opq, (0, 1), p, samples=65)
        assert np.allclose(ms.vals, mo.vals, atol=1e-12)
        js = jackson_construct(sep, (0, 1), 2, p, samples=65)
        jo = jackson_construct(opq, (0, 1), 2, p, samples=65)
        es, eo = lp_error(sep, js, p), lp_error(opq, jo, p)
        assert abs(es - eo) < 1e-10
        assert abs(lp_error(sep, jo, p) - eo) < 1e-12
        assert abs(lp_error(opq, js, p) - es) < 1e-12


def test_generic_off_grid_requires_source():
    # a projected coefficient of an opaque slice evaluates off the grid
    # by the quadrature combination of its backing field's samples; a
    # slice function with no field behind it has no such evaluator
    opaque = twin_fields()[1]
    grid = opaque.grid
    bare = SliceFn(grid, gen=lambda ts: opaque.sample(ts, grid.points),
                   graded_t0=True)
    for coef in project_time_slice(bare, (0, 1), 2).coeffs:
        with pytest.raises(ValueError, match="no off-grid evaluator"):
            coef.at_points(grid.points)
    for coef in project_time_slice(opaque, (0, 1), 2).coeffs:
        assert np.allclose(coef.at_points(grid.points), coef.vals,
                           rtol=0, atol=1e-14)


def test_candidate_blocks_bound_memory():
    # a p = 1 median on a 2-D non-separable field streams its 129
    # candidates in blocks of (rows, T, M) values, M = 6144 grid points;
    # at 64 rows a block peaked at 186 MB
    f = Field(DomainSpec(T=1.0, n=2),
              lambda t, x, y: np.hypot(x - 0.25 - 0.5 * t, y - 0.5) ** 0.5,
              name="moving-2d")
    f.grid
    tracemalloc.start()
    try:
        median_constant(f, (0.0, 0.5), p=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


@pytest.mark.parametrize("samples", [9, 13, 33, 70, 129])
def test_candidate_blocks_keep_the_bits_of_one_block(monkeypatch, samples):
    # BLAS reduces `dist ** p @ ws` in groups of rows, so the bits of a
    # row depend on where the blocks end; blocks of 8 must give the bits
    # of one unsplit block
    f = Field(DOM, lambda t, x: np.abs(x - 0.25 - 0.5 * t) ** 0.5,
              name="moving-1d")
    fn = SliceFn.from_field(f).difference(0.125, 1)
    ts, ws = fn.quad(0.0, 0.5)
    ys = (np.arange(samples) + 0.5) * 0.5 / samples
    for p in (1, 2, 3, np.inf):
        blocked = pairwise_lp_distance(fn, ts, ws, ys, p)
        monkeypatch.setattr(xvalued, "_BLOCK_ROWS", 4 * samples)
        wide = pairwise_lp_distance(fn, ts, ws, ys, p)
        monkeypatch.undo()
        assert blocked.tobytes() == wide.tobytes(), p


def test_row_blocks():
    assert row_blocks(0, 4) == [(0, 0)]
    assert row_blocks(3, 4) == [(0, 3)]
    assert row_blocks(8, 4) == [(0, 4), (4, 8)]
    # a 1-3 row tail joins the last full group, as in one unsplit block
    assert row_blocks(11, 4) == [(0, 4), (4, 11)]
    assert row_blocks(410, 4)[-1] == (404, 410)
    for count in range(1, 200):
        for rows in (4, 68):
            blocks = row_blocks(count, rows)
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in
                                                      blocks[:-1]]
            assert blocks[-1][1] == count
            assert all(hi - lo == rows for lo, hi in blocks[:-1])
            assert blocks[-1][1] - blocks[-1][0] < rows + 4
    # whole groups of 4 rows within 256 KiB, at least one group
    assert [budget_rows(m) for m in (1, 480, 6144, 10 ** 9)] == \
        [32768, 68, 4, 4]


def graded_field(n):
    """t^0.25 |x - 0.3 - 0.2 t|^0.5 (a hypot in 2-D), graded at t = 0."""
    if n == 1:
        def ev(t, x):
            return t ** 0.25 * np.abs(x - 0.3 - 0.2 * t) ** 0.5
    else:
        def ev(t, x, y):
            return t ** 0.25 * np.hypot(x - 0.3 - 0.2 * t, y - 0.5) ** 0.5
    return Field(DomainSpec(T=1.0, n=n), ev, singular_t0=True,
                 name=f"graded-{n}d")


GRADED = {n: graded_field(n) for n in (1, 2)}


def in_one_block(compute):
    """``compute()`` with a block budget that makes every stream one block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xvalued, "_BLOCK_BYTES", 2 ** 62)
        return compute()


@settings(max_examples=25, deadline=None, database=None)
@given(n=st.sampled_from([1, 2]), count=st.integers(1, 150),
       r=st.integers(0, 3), a=st.sampled_from([0.0, 0.125, 0.5]),
       p=st.sampled_from([1.0, 2.0, 3.0, np.inf]))
def check_streamed_norms(n, count, r, a, p):
    # the norms of `count` nodes end in every 1-3 row tail (4-row blocks
    # in 2-D, 68 in 1-D); [0, 0.75) is the graded 410-node interval
    fn = SliceFn.from_field(GRADED[n])
    fn = fn.difference(0.0625, r) if r else fn
    ts = np.linspace(0.0, 0.5, count)
    assert len(fn.quad(0.0, 0.75)[0]) == 410
    streamed = fn.xnorms(ts), fn.lp_norm(a, 0.75, p)
    whole = in_one_block(lambda: (fn.xnorms(ts), fn.lp_norm(a, 0.75, p)))
    assert streamed[0].tobytes() == whole[0].tobytes()
    assert streamed[1].hex() == whole[1].hex()


@functools.cache
def builds_2d():
    """2-D builds whose first time slice is graded (410 nodes)."""
    f = make_test_field("tensor-singular", [0.25], DomainSpec(n=2))
    return [(f, build_fully_discrete(f, 0.02, 1, 2)[1]),
            (GRADED[2], build_fully_discrete(GRADED[2], 0.05, 2, 2,
                                             time_seminorm=1.0)[1])]


def check_streamed_global_error():
    for f, fd in builds_2d():
        part = fd.partition.time
        ts, _ = SliceFn.from_field(f).quad(*part.interval(part.cells[0]))
        assert len(f.grid.points) == 6144 and len(ts) == 410
        whole = in_one_block(lambda: global_error(f, fd))
        assert global_error(f, fd).hex() == whole.hex()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_child(code, threads):
    """Standard output of ``code`` run with ``threads`` BLAS threads.

    The fresh interpreter can import this module.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(SRC), str(Path(__file__).parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_streamed_reductions_keep_the_bits_of_one_block():
    # threaded BLAS splits the unsplit reduction between its threads (see
    # the next test), so the reference is only defined with one thread
    run_child("import test_xvalued as t\n"
              "t.check_streamed_norms()\n"
              "t.check_streamed_global_error()\n", "1")


THREADED_CASE = """
from stgreedy.smoothness import SmoothnessParams, modulus_sup
from test_xvalued import GRADED
sp = SmoothnessParams(r=3, p=1.0, h_per_octave=2, h_octaves=1, avg_panels=1)
print(repr(modulus_sup(GRADED[2], (0.0, 1.0), 0.3, sp)))
"""


def test_norms_keep_their_bits_under_threaded_blas():
    # the unsplit (410, 6144) gemv of the graded first slice was split
    # between BLAS threads: this read 0.013083423992551572 with one
    # thread and 0.01308342399255157 with two
    outs = [run_child(THREADED_CASE, threads) for threads in ("1", "2")]
    assert outs == ["0.013083423992551572\n"] * 2


def traced_peak(compute):
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_norms_bound_memory():
    # unstreamed, a (T, M) array per shifted sample, their sum and its
    # square peaked at 11.9 MB in modulus_sup (T = 60 nodes, M = 6144),
    # and global_error at 8.0 MB on the graded 410-node slice
    f = Field(DomainSpec(T=1.0, n=2),
              lambda t, x, y: np.hypot(x - 0.25 - 0.5 * t, y - 0.5) ** 0.5,
              name="moving-2d")
    f.grid
    sp = SmoothnessParams(r=2, p=2.0, h_per_octave=4, h_octaves=2,
                          avg_panels=2)
    assert traced_peak(lambda: modulus_sup(f, (0.0, 1.0), 0.25, sp)) < 2e6
    f, fd = builds_2d()[0]
    assert traced_peak(lambda: global_error(f, fd)) < 2e6


def grid_sized_arrays(obj, size):
    """Arrays of at least ``size`` values that ``obj`` holds on its own.

    Follows attributes, containers and closures, but not into the
    objects a value shares with its field: profiles, slice functions,
    fields and grids.
    """
    shared = (xvalued.SpaceProfile, SliceFn, Field, SpatialGrid)
    seen, found, todo = set(), [], [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, shared):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found += [o] if o.size >= size else []
            todo.append(o.base)
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif hasattr(o, "__code__"):
            todo.extend(c.cell_contents for c in o.__closure__ or ())
            todo.extend(o.__defaults__ or ())
        elif hasattr(o, "__dict__"):
            todo.extend(vars(o).values())
    return found


def test_separable_values_compute_their_grid_values_when_read():
    sep, _ = twin_fields()
    fn = SliceFn.from_field(sep)
    x = fn.value_at(0.3)
    assert x.separable and grid_sized_arrays(x, len(x.vals)) == []
    profile_vals = fn.profile.vals
    assert x.vals.tobytes() == (x.mu * profile_vals).tobytes()
    y = x.scaled(-1.7)
    assert y.separable and grid_sized_arrays(y, len(x.vals)) == []
    assert y.vals.tobytes() == (-1.7 * (x.mu * profile_vals)).tobytes()


@pytest.mark.parametrize("n, p", [(1, 2), (1, 1), (2, 2)])
def test_time_cache_holds_no_grid_arrays_of_separable_pieces(n, p):
    f = make_test_field("tensor-singular", [0.25], DomainSpec(n=n))
    size = len(f.grid.points)
    cache = {}
    greedy_time(f, 2, p, 0.01 if n == 1 else 0.05, cache=cache)
    pieces = [v[1] for v in cache.values() if isinstance(v[1], SlicePoly)]
    assert len(pieces) == len(cache) - 1 and pieces
    for piece in pieces:
        assert all(c.separable for c in piece.coeffs)
        assert grid_sized_arrays(piece, size) == []
        for c in piece.coeffs:
            assert c.vals.shape == (size,)
            if p == 2:
                assert c.vals.tobytes() == (c.mu * c.profile.vals).tobytes()
        # reading the values does not keep them
        assert grid_sized_arrays(piece, size) == []
