"""Cross-checks of the two spatial factors of a slice function.

The same mathematical function is wrapped twice: once with its
time/space factorization declared (a one-term slice with a profile
factor), once as an opaque evaluator (nodal values on the grid).  Every
norm, projection and construction must agree between the two views,
also when a slice of one view subtracts a polynomial built from the
other, which takes the fallback of ``minus_expansion`` onto nodal values.
"""

import tracemalloc

import numpy as np
import pytest

from stgreedy.fields import DomainSpec, Field, make_test_field
from stgreedy.mesh1d import greedy_time
from stgreedy.polyspace import (SlicePoly, best_error, jackson_construct,
                                lp_error, median_constant, project_time_slice)
from stgreedy.quadrature import SpatialGrid
from stgreedy.smoothness import SmoothnessParams, modulus_avg, modulus_sup
from stgreedy import xvalued
from stgreedy.xvalued import SliceFn, pairwise_lp_distance

DOM = DomainSpec(T=1.0, n=1)


def twin_fields():
    tau = lambda t: np.asarray(t) ** 0.25
    g = lambda x: np.sin(np.pi * x)
    sep = Field(DOM, lambda t, x: tau(t) * g(x), name="sep",
                time_part=tau, space_part=g, singular_t0=True)
    opaque = Field(DOM, lambda t, x: tau(t) * g(x), name="opaque",
                   singular_t0=True)
    # same spatial grid so the discretized X agrees exactly
    opaque._grid = sep.grid
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
    grid = twin_fields()[0].grid
    fn = SliceFn(grid, gen=lambda ts: np.zeros((len(np.atleast_1d(ts)),
                                                len(grid.points))))
    with pytest.raises(ValueError):
        fn.sample_at([0.5], grid.points)


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
def test_candidate_blocks_keep_the_bits_of_64_rows(monkeypatch, samples):
    # BLAS reduces `dist ** p @ ws` in groups of rows, so the bits of a
    # row depend on where the blocks end; blocks of 8 must end as blocks
    # of 64 did
    f = Field(DOM, lambda t, x: np.abs(x - 0.25 - 0.5 * t) ** 0.5,
              name="moving-1d")
    fn = SliceFn.from_field(f).difference(0.125, 1)
    ts, ws = fn.quad(0.0, 0.5)
    ys = (np.arange(samples) + 0.5) * 0.5 / samples
    for p in (1, 2, 3, np.inf):
        blocked = pairwise_lp_distance(fn, ts, ws, ys, p)
        monkeypatch.setattr(xvalued, "_BLOCK_ROWS", 64)
        wide = pairwise_lp_distance(fn, ts, ws, ys, p)
        monkeypatch.undo()
        assert blocked.tobytes() == wide.tobytes(), p


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
