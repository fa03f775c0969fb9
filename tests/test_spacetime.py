import math

import numpy as np
import pytest

from stgreedy import fem, spacetime
from stgreedy.fields import DomainSpec, Field, Regularity, make_test_field
from stgreedy.harness import fit_rate, standard_corpus
from stgreedy.polyspace import as_slicefn
from stgreedy.smoothness import SmoothnessError
from stgreedy.spacetime import (SpacetimeError, TimeSpacePartition,
                                build_fully_discrete, global_error,
                                projection_stability_check)
from stgreedy.xvalued import budget_rows, row_blocks

DOM = DomainSpec(T=1.0, n=1)


def test_constant_exact():
    f = make_test_field("constant", [1.0], DOM)
    part, fd, rep = build_fully_discrete(f, 0.25, 1, 2)
    assert rep["N_time"] == 1
    assert rep["total_cardinality"] == 1
    assert rep["global_error"] < 1e-10


def test_zero_approximant_norm():
    # F == 0 leaves exactly ||f||; for f == 1 on the unit cylinder that is 1
    f = make_test_field("constant", [1.0], DOM)
    part, fd, rep = build_fully_discrete(f, 0.25, 1, 2)
    for fem in fd.coeff_fems[0]:
        fem.dofs[:] = 0.0
    assert abs(global_error(f, fd) - 1.0) < 1e-10


def test_reproducible_tensor_build():
    # t * sin(pi x): time factor exact for r1 = 2, space greedy digs to eps
    f = make_test_field("tensor-singular", [1.0], DOM)
    part, fd, rep = build_fully_discrete(f, 1e-6, 2, 3)
    assert rep["N_time"] == 1
    assert rep["error_time_step"] < 1e-10
    assert rep["global_error"] <= 1e-6


def test_cardinality_consistency_and_triangle():
    f = make_test_field("tensor-singular", [0.25], DOM)
    part, fd, rep = build_fully_discrete(f, 0.05, 1, 2)
    assert rep["total_cardinality"] == sum(m.size for m in part.slice_meshes)
    assert part.cardinality == rep["total_cardinality"]
    tri = rep["error_time_step"] + rep["error_space_step"]
    assert rep["global_error"] <= tri + 1e-10


def test_monotone_improvement():
    f = make_test_field("tensor-singular", [0.25], DOM)
    cache = {}
    errs = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        _, _, rep = build_fully_discrete(f, eps, 1, 2, time_cache=cache)
        errs.append(rep["global_error"])
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_time_seminorm_estimated_once_per_sweep(monkeypatch):
    f = make_test_field("tensor-singular", [0.25], DOM)
    epss = (0.2, 0.1, 0.05)
    fresh = [build_fully_discrete(f, eps, 1, 2)[2] for eps in epss]
    explicit = build_fully_discrete(f, 0.1, 1, 2, time_seminorm=0.7)[2]
    real = spacetime.besov_seminorm_discrete
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spacetime, "besov_seminorm_discrete", counted)
    cache = {}
    shared = [build_fully_discrete(f, eps, 1, 2, time_cache=cache)[2]
              for eps in epss]
    assert len(calls) == 1
    assert shared == fresh
    # an explicit seminorm neither reads the cached estimate nor stores one
    cached = cache[("time_seminorm", 1)]
    empty = {}
    for c in (cache, empty):
        rep = build_fully_discrete(f, 0.1, 1, 2, time_seminorm=0.7,
                                   time_cache=c)[2]
        assert rep == explicit
    assert len(calls) == 1
    assert cache[("time_seminorm", 1)] is cached
    assert ("time_seminorm", 1) not in empty


def test_same_degree_rate():
    # r1 = r2 = 2 with matched smoothness: error rate in #P approaches
    # s/(n+1); assert a conservative band on a short sweep
    f = make_test_field("tensor-singular", [0.75], DOM)
    cache = {}
    pts = []
    for eps in (2 ** -3, 2 ** -5, 2 ** -7, 2 ** -9):
        _, _, rep = build_fully_discrete(f, eps, 2, 2, time_cache=cache)
        pts.append((rep["total_cardinality"], rep["global_error"]))
    fit = fit_rate(pts, drop_smallest=0)
    assert fit.rate >= 0.6


def test_build_two_dimensional_domain():
    dom2 = DomainSpec(T=1.0, n=2)
    f = make_test_field("tensor-singular", [0.25], dom2)
    part, fd, rep = build_fully_discrete(f, 0.1, 1, 2)
    assert rep["N_time"] >= 2
    assert all(m.is_conforming() for m in part.slice_meshes)
    tri = rep["error_time_step"] + rep["error_space_step"]
    assert rep["global_error"] <= tri + 1e-10
    assert rep["global_error"] < 0.2


def test_partition_validation():
    f = make_test_field("constant", [1.0], DOM)
    part, fd, rep = build_fully_discrete(f, 0.5, 1, 2)
    with pytest.raises(SpacetimeError):
        TimeSpacePartition(time=part.time, slice_meshes=[])
    with pytest.raises(SpacetimeError):
        build_fully_discrete(f, -1.0, 1, 2)
    with pytest.raises(SpacetimeError):
        build_fully_discrete(f, 0.5, 1, 1)


def test_stability_trivial_ratios():
    # time-constant fields are reproduced exactly: ratio 1
    f = make_test_field("space-power", [0.3, 0.5], DOM)
    assert abs(projection_stability_check(f, (0, 1), 1, 0.5, 2.0) - 1.0) < 1e-6
    # t * g(x) with r1 = 2 is reproduced exactly as well
    f2 = make_test_field("tensor-singular", [1.0], DOM)
    assert abs(projection_stability_check(f2, (0, 1), 2, 1.5, 2.0) - 1.0) < 1e-6


def test_stability_corpus_guard():
    for f in standard_corpus(DOM):
        for s2 in (0.5, 1.5):
            r = projection_stability_check(f, (0, 1), 1, s2, 2.0)
            assert r <= 10.0


def test_stability_validation():
    f = make_test_field("constant", [1.0], DOM)
    with pytest.raises(SpacetimeError):
        projection_stability_check(f, (0, 1), 1, 0.5, 0.5)   # q2 < 1


# each used to end in a ZeroDivisionError, a numpy or conversion error,
# or (q2 = nan) a NaN ratio
@pytest.mark.parametrize("s2, q2, grid_n", [
    (-0.5, 2.0, None), (np.nan, 2.0, None), (1.5, 2.0, 1), (0.5, 2.0, -3),
    (0.5, np.nan, None)],
    ids=["negative-s2", "nan-s2", "grid-below-order", "negative-grid",
         "nan-q2"])
def test_stability_rejects_bad_parameters(s2, q2, grid_n):
    f = make_test_field("tensor-singular", [0.25], DOM)
    with pytest.raises(SpacetimeError, match="stability check requires"):
        projection_stability_check(f, (0, 1), 1, s2, q2, grid_n=grid_n)


def test_stability_2d():
    dom2 = DomainSpec(T=1.0, n=2)
    f = make_test_field("tensor-singular", [1.0], dom2)
    r = projection_stability_check(f, (0, 1), 2, 1.5, 2.0, grid_n=32)
    assert abs(r - 1.0) < 1e-6


@pytest.mark.parametrize("q2", [2.0, np.inf])
def test_stability_2d_differences_past_the_lattice(q2):
    # third differences at the coarse levels reach past the 64-cell
    # lattice: their domain is empty and they count 0
    f = make_test_field("space-power", [0.3, 0.5, 0.5], DomainSpec(n=2))
    r = projection_stability_check(f, (0, 1), 1, 2.5, q2)
    assert abs(r - 1.0) < 1e-6


def test_stability_2d_declared_regularity():
    f = make_test_field("tensor-singular", [0.25], DomainSpec(n=2))
    for s2, grid_n in ((f.regularity.s2, None), (1.5, 24)):
        r = projection_stability_check(f, (0, 1), 1, s2, 2.0, grid_n=grid_n)
        assert np.isfinite(r)


@pytest.mark.parametrize("n", [1, 2])
def test_stability_sup_norm(n):
    f = make_test_field("tensor-singular", [0.25], DomainSpec(n=n))
    assert np.isfinite(projection_stability_check(f, (0, 1), 1, 1.0, np.inf))


def moving_field_1d(x0=0.25, v=0.5):
    """|x - x0 - v t|^0.5: no separable factors, so slice meshes differ."""
    return Field(DOM, lambda t, x: np.abs(x - x0 - v * t) ** 0.5,
                 regularity=Regularity(s1=1, q1=1, s2=2, q2=2),
                 name="moving-1d", params=(x0, v))


@pytest.mark.parametrize("s1", [np.inf, np.nan])
def test_build_rejects_a_non_finite_time_smoothness(s1):
    # math.floor(s1) once raised OverflowError or ValueError here
    f = Field(DOM, lambda t, x: t + x, regularity=Regularity(s1=s1))
    with pytest.raises(SmoothnessError, match="finite and positive"):
        build_fully_discrete(f, 0.1, 1, 2)


def test_build_makes_one_space_per_mesh(monkeypatch):
    builds, projections = [], []
    real_init = fem.FemSpace.__init__

    def counted_init(self, mesh, r2):
        builds.append((r2, mesh.key))
        real_init(self, mesh, r2)

    def counted_project_stack(space, gs, *args, **kwargs):
        projections.extend(space.mesh.key for _ in gs)
        return real_project_stack(space, gs, *args, **kwargs)

    real_project_stack = fem._project_stack
    monkeypatch.setattr(fem.FemSpace, "__init__", counted_init)
    monkeypatch.setattr(fem, "_project_stack", counted_project_stack)
    _, fd, _ = build_fully_discrete(moving_field_1d(), 0.05, 1, 2)
    assert len(builds) == len(set(builds))
    assert len(builds) < len(projections)
    # every kept function's space is one of the spaces built
    assert {(2, fs[0].mesh.key) for fs in fd.coeff_fems} <= set(builds)


def test_build_solves_once_per_round_and_mesh(monkeypatch):
    groups, solves = [], []
    real_project_stack, real_solve = fem._project_stack, fem._solve

    def counted_project_stack(space, gs, *args, **kwargs):
        groups.append(len(gs))
        return real_project_stack(space, gs, *args, **kwargs)

    def counted_solve(M, B, *args, **kwargs):
        solves.append(B.shape[1])
        return real_solve(M, B, *args, **kwargs)

    monkeypatch.setattr(fem, "_project_stack", counted_project_stack)
    monkeypatch.setattr(fem, "_solve", counted_solve)
    builds = []
    real_init = fem.FemSpace.__init__

    def counted_init(self, mesh, r2):
        builds.append(mesh.key)
        real_init(self, mesh, r2)

    monkeypatch.setattr(fem.FemSpace, "__init__", counted_init)
    build_fully_discrete(moving_field_1d(), 0.05, 1, 2)
    # one solve per (round, mesh) group, with one column per function
    assert solves == groups
    assert max(solves) > 1
    assert len(solves) < len(builds) + sum(solves)
    assert len(solves) < sum(solves)


def test_build_refines_each_mesh_and_marks_once(monkeypatch):
    calls = []
    real = fem.refine_bisection

    def counted(mesh, marked):
        calls.append((mesh.key, np.asarray(marked).tobytes()))
        return real(mesh, marked)

    monkeypatch.setattr(fem, "refine_bisection", counted)
    f = make_test_field("tensor-singular", [0.25], DomainSpec(T=1.0, n=2))
    _, _, rep = build_fully_discrete(f, 0.05, 1, 2)
    assert rep["N_time"] > 1 and calls
    assert len(calls) == len(set(calls))


def test_time_cache_rejects_another_field_or_order():
    filled = make_test_field("tensor-singular", [0.25], DOM)
    other = make_test_field("time-power", [0.25], DOM)
    cache = {}
    build_fully_discrete(filled, 0.1, 1, 2, time_cache=cache)
    # reusing this cache once returned N_time 8 and error_time_step 0.01871
    with pytest.raises(SpacetimeError, match="time cache"):
        build_fully_discrete(other, 0.1, 1, 2, time_cache=cache)
    with pytest.raises(SpacetimeError, match="time cache"):
        build_fully_discrete(filled, 0.1, 2, 2, time_cache=cache)
    rep = build_fully_discrete(other, 0.1, 1, 2)[2]
    assert rep["N_time"] == 11
    assert rep["error_time_step"] == pytest.approx(0.019740305741609884,
                                                   rel=1e-9)
    # the same field and order keep using it
    again = build_fully_discrete(filled, 0.05, 1, 2, time_cache=cache)[2]
    assert again == build_fully_discrete(filled, 0.05, 1, 2)[2]


def blockwise_global_error(f, fd):
    """``global_error`` as computed before its per-slice sampler: the
    field sampled per row block and every product a gemm."""
    fn = as_slicefn(f)
    part = fd.partition.time
    total = 0.0
    for i, cell in enumerate(part.cells):
        a, b = part.interval(cell)
        ts, wt = fn.quad(a, b)
        basis, cols, pts, wx = fd.slice_parts(i)
        w_mat = basis.eval(ts)

        def sample(t):
            if f.separable:
                return np.outer(f.time_values(t), f.space_values(pts))
            return f.evaluator(t[:, None], *[pts[None, :, k]
                                             for k in range(pts.shape[1])])

        blocks = row_blocks(len(ts), budget_rows(len(pts)))
        err2 = np.concatenate([
            ((sample(ts[lo:hi]) - w_mat[lo:hi] @ cols) ** 2) @ wx
            for lo, hi in blocks])
        total += float(wt @ err2)
    return math.sqrt(max(total, 0.0))


def moving_field_2d(x0=0.3, v=0.4):
    return Field(DomainSpec(T=1.0, n=2),
                 lambda t, x, y: np.hypot(x - x0 - v * t, y - 0.5) ** 0.5,
                 regularity=Regularity(s1=1, q1=1, s2=2, q2=2),
                 name="moving-2d", params=(x0, v))


@pytest.mark.parametrize("r1", [1, 2])
@pytest.mark.parametrize("make", [
    lambda: make_test_field("tensor-singular", [0.25], DOM),
    lambda: make_test_field("tensor-singular", [0.25], DomainSpec(n=2)),
    moving_field_1d,
    moving_field_2d,
], ids=["separable-1d", "separable-2d", "moving-1d", "moving-2d"])
def test_global_error_keeps_the_bits_of_per_block_sampling(make, r1):
    f = make()
    _, fd, rep = build_fully_discrete(f, 0.1, r1, 2)
    want = blockwise_global_error(f, fd)
    assert rep["global_error"].hex() == want.hex()
    assert global_error(f, fd).hex() == want.hex()
