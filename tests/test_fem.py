import math
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stgreedy import fem, mesh1d
from stgreedy.fem import (FemError, FemSpace, GreedySpaceCapError,
                          _project_stack, element_indicators, fem_project,
                          greedy_space, greedy_spaces)
from stgreedy.fields import DomainSpec, make_test_field
from stgreedy.meshnd import (IntervalMesh, TriangleMesh, initial_mesh,
                             refine_bisection)

from helpers import dof_points, fem_at_points, projection_indicators


def uniform_interval_mesh(levels):
    mesh = IntervalMesh.unit_interval()
    for _ in range(levels):
        mesh = refine_bisection(mesh, range(mesh.size))
    return mesh


def test_rejects_order_one():
    with pytest.raises(FemError):
        fem_project(lambda p: p[:, 0], IntervalMesh.unit_interval(), 1)


def test_project_constant_exact():
    for mesh in (uniform_interval_mesh(1),
                 refine_bisection(TriangleMesh.unit_square(), [0])):
        fem = fem_project(lambda p: np.full(len(p), 4.25), mesh, 2)
        assert np.allclose(fem.dofs, 4.25)
        eta = projection_indicators(fem, lambda p: np.full(len(p), 4.25))
        assert np.max(eta) < 1e-12


@pytest.mark.parametrize("r2", [2, 3, 4])
def test_polynomial_reproduction_1d(r2):
    mesh = uniform_interval_mesh(2)
    g = lambda p: p[:, 0] ** (r2 - 1) - 0.3 * p[:, 0]
    fem = fem_project(g, mesh, r2)
    eta = projection_indicators(fem, g)
    assert np.sqrt((eta ** 2).sum()) < 1e-10


@pytest.mark.parametrize("r2", [2, 3])
def test_polynomial_reproduction_2d(r2):
    mesh = refine_bisection(TriangleMesh.unit_square(), [0, 1])
    g = lambda p: (p[:, 0] + 0.5 * p[:, 1]) ** (r2 - 1)
    fem = fem_project(g, mesh, r2)
    eta = projection_indicators(fem, g)
    assert np.sqrt((eta ** 2).sum()) < 1e-10


def test_dof_identification_survives_deep_meshes():
    # cells of width 2^-45 sit far below any decimal rounding quantum;
    # topological dof keys must still give #cells + 1 global nodes
    from stgreedy.fem import FemSpace
    mesh = IntervalMesh.unit_interval()
    for _ in range(45):
        mesh = mesh.refine([0])
    space = FemSpace(mesh, 2)
    assert space.ndof == mesh.size + 1
    g = lambda p: 1.0 - p[:, 0]
    eta, _ = element_indicators(g, mesh, 2)
    assert np.sqrt((eta ** 2).sum()) < 1e-10


def test_cubic_space_shares_edge_nodes():
    # P3 edge nodes at thirds are shared across elements; the global dof
    # count must satisfy V + 2E + T and cubics reproduce exactly
    mesh = refine_bisection(TriangleMesh.unit_square(), [0, 1])
    mesh = refine_bisection(mesh, [0, 2])
    g = lambda p: (p[:, 0] - 0.3 * p[:, 1]) ** 3 + p[:, 0] * p[:, 1]
    eta, fem = element_indicators(g, mesh, 4)
    assert np.sqrt((eta ** 2).sum()) < 1e-10
    nvert = len(set(mesh.elements.ravel().tolist()))
    nedge = len({tuple(sorted(ed)) for a, b, c in mesh.elements.tolist()
                 for ed in ((a, b), (b, c), (c, a))})
    assert fem.space.ndof == nvert + 2 * nedge + mesh.size


def test_quadratic_error_rate():
    g = lambda p: p[:, 0] ** 2
    e2 = np.sqrt((element_indicators(g, uniform_interval_mesh(1), 2)[0] ** 2).sum())
    e4 = np.sqrt((element_indicators(g, uniform_interval_mesh(2), 2)[0] ** 2).sum())
    assert abs(e2 / e4 - 4.0) < 1e-8


def test_indicator_sum_identity():
    g = lambda p: np.sin(3 * p[:, 0])
    mesh = uniform_interval_mesh(3)
    eta, fem = element_indicators(g, mesh, 2)
    pts = fem.space.quad_points()
    gv = g(pts.reshape(-1, 1)).reshape(pts.shape[0], pts.shape[1])
    diff = gv - fem.element_quad_values()
    total = (fem.space.measures() * ((diff ** 2) @ fem.space._qw)).sum()
    assert abs((eta ** 2).sum() - total) < 1e-12


def test_indicators_symmetric_and_localized():
    mesh = uniform_interval_mesh(4)
    sym = lambda p: np.abs(p[:, 0] - 0.5) ** 0.3
    eta, _ = element_indicators(sym, mesh, 2)
    assert np.max(np.abs(eta - eta[::-1])) < 1e-10
    mids = mesh.element_coords.mean(axis=1)
    assert abs(mids[np.argmax(eta)] - 0.5) < 1.0 / 8


def test_projection_error_nonincreasing_under_refinement():
    g = lambda p: np.sqrt(np.abs(p[:, 0] - 0.3))
    mesh = uniform_interval_mesh(1)
    prev = None
    for _ in range(4):
        eta, _ = element_indicators(g, mesh, 2)
        err = np.sqrt((eta ** 2).sum())
        if prev is not None:
            assert err <= prev + 1e-12
        prev = err
        mesh = refine_bisection(mesh, range(mesh.size))


def test_greedy_space_trivial():
    const = lambda p: np.full(len(p), 1.5)
    mesh, fem, hist = greedy_space(const, 2, 0.5, n=1)
    assert mesh.size == 1 and hist[-1][1] < 1e-12
    smooth = lambda p: np.sin(np.pi * p[:, 0])
    mesh, fem, hist = greedy_space(smooth, 2, 0.5, n=1)
    assert mesh.size == 1          # threshold already satisfied at the root


def test_greedy_space_singular_beats_uniform():
    g = lambda p: np.abs(p[:, 0] - 0.5) ** 0.3
    sizes, errors = [], []
    for delta in (0.02, 0.01, 0.005, 0.0025, 0.00125):
        mesh, _, hist = greedy_space(g, 2, delta, n=1)
        sizes.append(mesh.size)
        errors.append(hist[-1][1])
        # same error budget on uniform meshes needs at least as many cells
        m, lvl = IntervalMesh.unit_interval(), 0
        while True:
            eta, _ = element_indicators(g, m, 2)
            if np.sqrt((eta ** 2).sum()) <= delta:
                break
            m = refine_bisection(m, range(m.size))
            lvl += 1
        assert mesh.size <= m.size
    fit = np.polyfit(np.log(sizes), np.log(errors), 1)
    assert fit[0] < -1.5      # adaptive decay clearly faster than m^-1.5


def test_greedy_space_cap(monkeypatch):
    monkeypatch.setattr(fem, "MAX_GEN", 3)
    g = lambda p: np.abs(p[:, 0] - 0.5) ** 0.3
    with pytest.raises(GreedySpaceCapError):
        greedy_space(g, 2, 1e-9, n=1)


def test_both_greedies_raise_one_cap_class():
    # the two cap errors were one class written twice
    assert GreedySpaceCapError is mesh1d.GreedyCapError
    assert GreedySpaceCapError("cap", offenders=(1, 2)).offenders == [1, 2]


def test_greedy_spaces_fail_in_the_order_of_a_loop(monkeypatch):
    monkeypatch.setattr(fem, "MAX_GEN", 3)
    g = (1.0, lambda p: np.abs(p[:, 0] - 0.3) ** 0.3)
    start = [initial_mesh(1)] * 2
    with pytest.raises(FemError, match="2 functions but 1 deltas"):
        greedy_spaces([g, g], 2, [0.1], start)
    with pytest.raises(FemError, match="and 1 meshes"):
        greedy_spaces([g, g], 2, [0.1, 0.1], start[:1])
    # the first run's cap error, though the second fails in round 0
    with pytest.raises(GreedySpaceCapError, match="generation cap 3"):
        greedy_spaces([g, g], 2, [1e-9, -1.0], start)
    with pytest.raises(FemError, match="delta must be positive"):
        greedy_spaces([g, g], 2, [0.0, 1e-9], start)
    assert greedy_spaces([], 2, [], []) == []


def test_greedy_spaces_start_on_their_meshes():
    g = lambda p: np.abs(p[:, 0] - 0.3) ** 0.3
    start = refine_bisection(initial_mesh(1), [0])
    ref_mesh, ref_fem, ref_hist = greedy_space(g, 2, 1e-3, n=1)
    (mesh, fem, hist), (at_inf, fem_inf, hist_inf) = greedy_spaces(
        [(1.0, g)] * 2, 2, [1e-3, math.inf], [start] * 2)
    # a run from a refined start mesh climbs from there
    assert hist[0][0] == start.size and len(hist) < len(ref_hist)
    assert hist[-1][1] <= 1e-3
    # a run at inf is the projection onto its start mesh and its error
    eta, proj = element_indicators(g, start, 2)
    assert at_inf is start
    assert fem_inf.dofs.tobytes() == proj.dofs.tobytes()
    assert hist_inf == [(start.size, float(np.sqrt((eta ** 2).sum())))]
    # from the initial mesh, a run is the one-function greedy
    (mesh, fem, hist), = greedy_spaces([(1.0, g)], 2, [1e-3],
                                       [initial_mesh(1)])
    assert mesh.key == ref_mesh.key and hist == ref_hist
    assert fem.dofs.tobytes() == ref_fem.dofs.tobytes()


def test_greedy_space_2d():
    g = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    mesh, fem, hist = greedy_space(g, 2, 0.02, n=2)
    assert hist[-1][1] <= 0.02
    assert mesh.is_conforming()


def test_indicators_evaluate_g_once():
    calls = []

    def g(p):
        calls.append(len(p))
        return np.sin(3 * p[:, 0])

    mesh = uniform_interval_mesh(3)
    eta, _ = element_indicators(g, mesh, 2)
    assert len(calls) == 1
    calls.clear()
    fem = fem_project(g, mesh, 2)
    assert len(calls) == 1
    calls.clear()
    eta_given = projection_indicators(fem, g)
    assert len(calls) == 1
    assert np.array_equal(eta_given, eta)


def test_indicators_leave_fem_unchanged():
    g = lambda p: np.abs(p[:, 0] - 0.3) ** 0.5
    mesh = uniform_interval_mesh(3)
    fem = fem_project(g, mesh, 3)
    before = dict(vars(fem))
    dofs = fem.dofs.tobytes()
    projection_indicators(fem, g)
    assert vars(fem).keys() == before.keys()
    assert all(vars(fem)[k] is v for k, v in before.items())
    assert fem.dofs.tobytes() == dofs


def test_threads_share_one_projection():
    g = lambda p: np.abs(p[:, 0] - 0.3) ** 0.5
    mesh = uniform_interval_mesh(4)
    serial = projection_indicators(fem_project(g, mesh, 3), g)
    shared = fem_project(g, mesh, 3)
    workers = 8
    start = threading.Barrier(workers)

    def eta(_):
        start.wait(timeout=30)
        return projection_indicators(shared, g)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            etas = list(pool.map(eta, range(4 * workers), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for e in etas:
        assert np.array_equal(e, serial)


def test_at_points_on_cells_out_of_position_order():
    # cells of two levels: the left half bisected again
    mesh = refine_bisection(IntervalMesh.unit_interval(), [0])
    mesh = refine_bisection(mesh, [0])
    for r2 in (2, 3):
        fem = fem_project(lambda p: np.sqrt(p[:, 0]), mesh, r2)
        # a Lagrange function takes its dof values at its nodes
        nodes = dof_points(fem.space)[:, 0]
        assert np.allclose(fem_at_points(fem, nodes), fem.dofs, atol=1e-12)


def test_mass_matrix_is_assembled_once():
    space = FemSpace(uniform_interval_mesh(3), 3)
    assert space.mass_matrix() is space.mass_matrix()


def test_greedy_space_cache_reuses_spaces_and_refinements(monkeypatch):
    g = lambda p: np.abs(p[:, 0] - 0.3) ** 0.4
    cache = {}
    mesh, _, hist = greedy_space(g, 2, 0.01, n=1, cache=cache)
    # a second run of the same function finds every space and refinement
    builds = []
    real = FemSpace.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FemSpace, "__init__", counted)
    again, _, hist_again = greedy_space(g, 2, 0.01, n=1, cache=cache)
    assert builds == [] and again is mesh and hist_again == hist


def one_nan(p):
    """sin(x), but NaN at one quadrature point."""
    v = np.sin(p[:, 0])
    v[3] = np.nan
    return v


@pytest.mark.parametrize("n", [1, 2])
def test_projection_of_nan_fails(n):
    # NaN dofs used to pass the residual check: NaN > tol is False
    mesh = uniform_interval_mesh(2) if n == 1 else TriangleMesh.unit_square()
    with pytest.raises(FemError, match="not finite"):
        fem_project(one_nan, mesh, 2)
    # greedy_space ended in "generation cap 40 hit with error nan"
    with pytest.raises(FemError, match="not finite"):
        greedy_space(one_nan, 2, 0.01, n=n)


def test_nan_column_leaves_the_other_projections_alone():
    space = FemSpace(uniform_interval_mesh(3), 3)
    _, X, errors = _project_stack(space, [(1.0, np.cos), (1.0, one_nan),
                                          (1.0, np.sin)])
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], FemError)
    for col, g in ((0, np.cos), (2, np.sin)):
        alone = fem_project(g, space.mesh, 3)
        assert X[:, col].tobytes() == alone.dofs.tobytes()


def inf_right_half(p):
    """1 on x < 0.5, +inf beyond."""
    return np.where(p[:, 0] > 0.5, np.inf, 1.0)


def near_the_float_limit(p):
    """1e308 everywhere: finite loads whose squares overflow."""
    return np.full(len(p), 1e308)


@pytest.mark.parametrize("n, r2", [(1, 2), (1, 3), (2, 2)])
def test_projection_of_inf_fails_without_a_warning(n, r2):
    # inf times basis values of both signs used to warn in the load
    # assembly ("invalid value encountered in matmul") before failing;
    # 1e308 overflowed the load and residual norms to inf ("overflow
    # encountered in multiply"), and inf <= rtol * inf passed the check
    mesh = initial_mesh(n).refine([0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (inf_right_half, near_the_float_limit):
            with pytest.raises(FemError, match="not finite"):
                fem_project(g, mesh, r2)


def test_inf_column_leaves_the_other_projections_alone():
    space = FemSpace(uniform_interval_mesh(3), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for huge in (inf_right_half, near_the_float_limit):
            _, X, errors = _project_stack(space, [(1.0, np.cos), (1.0, huge),
                                                  (1.0, np.sin)])
            assert errors[0] is None and errors[2] is None
            assert isinstance(errors[1], FemError)
            for col, g in ((0, np.cos), (2, np.sin)):
                alone = fem_project(g, space.mesh, 3)
                assert X[:, col].tobytes() == alone.dofs.tobytes()


def test_nan_solve_fails_the_residual_check(monkeypatch):
    monkeypatch.setattr("stgreedy.fem._solve",
                        lambda M, B: np.full(B.shape, np.nan))
    with pytest.raises(FemError, match="residual nan"):
        fem_project(np.cos, uniform_interval_mesh(2), 2)


def test_a_call_without_a_cache_holds_one_round(monkeypatch):
    # without a caller's dict the call kept each round's space and
    # refinement until it returned: on space-power(0.5, 0.3) at delta
    # 1e-9 it ended on 24,655 elements but held 29 spaces with 349,899
    g = make_test_field("space-power", [0.5, 0.3],
                        DomainSpec(T=1.0, n=1)).profile.fn
    built, held = weakref.WeakSet(), []     # spaces alive at each build
    init = FemSpace.__init__

    def counted(self, mesh, r2):
        held.append(len(built))
        init(self, mesh, r2)
        built.add(self)

    monkeypatch.setattr(FemSpace, "__init__", counted)
    mesh, fem, history = greedy_space(g, 2, 1e-6, n=1)
    assert len(held) == len(history) > 5
    assert max(held) <= 1           # the last round's, while the next builds
    built.clear()
    held.clear()
    cached = greedy_space(g, 2, 1e-6, n=1, cache={})
    assert held == list(range(len(history)))    # the dict keeps them all
    assert cached[0].key == mesh.key
    assert cached[1].dofs.tobytes() == fem.dofs.tobytes()
    assert cached[2] == history
