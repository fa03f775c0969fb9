"""Acceptance gate: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion summary lines and timings.
"""

import time

import numpy as np
import pytest

from stgreedy.fields import DomainSpec, make_test_field, eval_field
from stgreedy.fem import element_indicators, fem_project, greedy_space
from stgreedy.harness import fit_rate
from stgreedy.mesh1d import complexity_ratio, greedy_time, uniform_time_error
from stgreedy.meshnd import (IntervalMesh, TriangleMesh, overlay,
                             refine_bisection)
from stgreedy.polyspace import (best_error, jackson_construct, lp_error,
                                median_constant, node_norm,
                                orthonormal_time_basis, project_time_slice)
from stgreedy.quadrature import (gauss_interval_rule, integrate_interval,
                                 integrate_domain, interval_grid, x_norm)
from stgreedy.smoothness import (SmoothnessParams, BesovParams,
                                 besov_seminorm_discrete, difference,
                                 modulus_avg, modulus_sup, whitney_ratio)
from stgreedy.spacetime import (build_fully_discrete, global_error,
                                projection_stability_check)

from helpers import standard_corpus

DOM = DomainSpec(T=1.0, n=1)
UNIT = (0.0, 1.0)


def report(tag, elapsed, budget, detail=""):
    print(f"[{tag}] PASS in {elapsed:.1f}s (budget {budget:.0f}s) {detail}")


def test_a1_moduli_suite():
    t0 = time.time()
    corpus = standard_corpus(DOM)
    us = [2.0 ** -k for k in range(4, 20)]
    cache = {}

    def om(f, r, p, u):
        key = (f.name, r, p, u)
        if key not in cache:
            cache[key] = modulus_sup(f, UNIT, u, SmoothnessParams(r=r, p=p))
        return cache[key]

    constants = {}
    for f in corpus:
        for r in (1, 2, 3):
            for p in (1.0, 2.0, np.inf):
                mp = min(1.0, p)
                vals = [om(f, r, p, u) for u in us]
                # monotone nondecreasing in u, exactly
                for smaller, larger in zip(vals[1:], vals[:-1]):
                    assert smaller <= larger, (f.name, r, p)
                # homogeneity for m in {2, 3}
                for m in (2, 3):
                    for u in us[2:]:
                        lhs = om(f, r, p, m * u) ** mp
                        rhs = m ** r * om(f, r, p, u) ** mp
                        assert lhs <= rhs + 1e-8, (f.name, r, p, m, u)
                # order bound w_{r+1} <= 2 w_r
                for u in us[::4]:
                    wlo = modulus_avg(f, UNIT, u, SmoothnessParams(r=r + 1, p=p))
                    whi = modulus_avg(f, UNIT, u, SmoothnessParams(r=r, p=p))
                    assert wlo ** mp <= 2 * whi ** mp + 1e-8, (f.name, r, p, u)
                # equivalence of the two moduli with one constant per (r, p)
                if not np.isinf(p):
                    sp = SmoothnessParams(r=r, p=p)
                    for u in us[::2]:
                        w = modulus_avg(f, UNIT, u, sp)
                        o = om(f, r, p, u)
                        assert w <= o + 1e-10, (f.name, r, p, u)
                        wide = modulus_avg(f, UNIT, (r + 1) * u, sp)
                        if wide > 1e-14:
                            c = o / wide
                            key = (r, p)
                            constants[key] = max(constants.get(key, 0.0), c)
    assert all(c < 16.0 for c in constants.values()), constants
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("A1", elapsed, 120,
           f"equivalence constants {({k: round(v, 2) for k, v in constants.items()})}")


def test_a2_jackson_whitney_suite():
    t0 = time.time()
    corpus = standard_corpus(DOM)
    intervals = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.0, 0.25),
                 (0.25, 0.5), (0.75, 1.0), (0.0, 0.125)]
    worst_spread = 0.0
    for f in corpus:
        for p in (1.0, 2.0):
            for r in (1, 2):
                ratios = []
                for interval in intervals:
                    poly = jackson_construct(f, interval, r, p)
                    err = lp_error(f, poly, p)
                    h = (interval[1] - interval[0]) / (2 * r)
                    w = modulus_avg(f, interval, h, SmoothnessParams(r=r, p=p))
                    if w < 1e-12:
                        assert err < 1e-7, (f.name, interval, err)
                        continue
                    ratios.append((err / w) ** p)
                if ratios:
                    spread = max(ratios) / min(ratios)
                    worst_spread = max(worst_spread, spread)
                    assert spread < 10.0, (f.name, p, r, ratios)
    f14 = make_test_field("time-power", [0.25], DOM)
    ws = [whitney_ratio(f14, (0.0, L), 1, 2.0, 2.0, 0.7)
          for L in (1.0, 0.5, 0.25, 0.125)]
    mid = float(np.mean(ws))
    assert max(ws) <= 1.2 * mid and min(ws) >= 0.8 * mid, ws
    elapsed = time.time() - t0
    assert elapsed < 180.0
    report("A2", elapsed, 180,
           f"jackson spread <= {worst_spread:.2f}, whitney {np.round(ws, 4)}")


@pytest.fixture(scope="module")
def time_greedy_runs():
    f = make_test_field("time-power", [0.25], DOM)
    cache = {}
    runs = []
    for k in range(7, 20):
        delta = 2.0 ** -k
        runs.append((delta, greedy_time(f, 1, 2, delta, cache=cache)))
    return f, runs


def test_a3_time_greedy_rate(time_greedy_runs):
    t0 = time.time()
    f, runs = time_greedy_runs
    adaptive = [(res.partition.size, res.global_error()) for _, res in runs]
    sizes = [m for m, _ in adaptive]
    assert min(sizes) <= 16 and max(sizes) >= 2048, sizes
    fit = fit_rate(adaptive)
    assert fit.rate >= 0.85, fit.rate
    uniform_pts = [(m, uniform_time_error(f, 1, 2, m))
                   for m in (2 ** j for j in range(4, 12))]
    ufit = fit_rate(uniform_pts)
    assert 0.6 <= ufit.rate <= 0.9, ufit.rate
    for m, err in adaptive:
        if m >= 64:
            assert err <= uniform_time_error(f, 1, 2, m), m
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("A3", elapsed, 120,
           f"adaptive rate {fit.rate:.3f}, uniform rate {ufit.rate:.3f}")


def test_a4_greedy_structure(time_greedy_runs):
    t0 = time.time()
    _, runs = time_greedy_runs
    for delta, res in runs:
        for cell in res.partition.cells:
            assert res.errors[cell] <= delta + 1e-10
        for entry in res.partition.trace:
            assert entry.min_marked_err > delta
        assert complexity_ratio(res.partition) == 1.0
    # 2-D complexity constant: stationary-regime random marking, no trend
    rng = np.random.default_rng(23)
    mesh = TriangleMesh.unit_square()
    for _ in range(12):
        mesh = refine_bisection(
            mesh, rng.choice(mesh.size, size=min(10, mesh.size), replace=False))
    base = mesh.size
    consts, total = [], 0
    for _ in range(20):
        marked = rng.choice(mesh.size, size=10, replace=False)
        total += len(marked)
        mesh = refine_bisection(mesh, marked)
        assert mesh.is_conforming()
        consts.append((mesh.size - base) / total)
    first5, last5 = np.mean(consts[:5]), np.mean(consts[-5:])
    assert last5 <= 1.2 * first5, (first5, last5)
    elapsed = time.time() - t0
    report("A4", elapsed, 120,
           f"2-D constant first5 {first5:.2f} last5 {last5:.2f}")


def test_a5_fully_discrete_rate():
    t0 = time.time()
    f = make_test_field("tensor-singular", [0.25], DOM)
    s1, s2 = f.regularity.s1, f.regularity.s2
    cache = {}
    cards, epss, pts = [], [], []
    prev = None
    for k in range(2, 8):
        eps = 2.0 ** -k
        part, fd, rep = build_fully_discrete(f, eps, 1, 2, time_cache=cache)
        tri = rep["error_time_step"] + rep["error_space_step"]
        assert rep["global_error"] <= tri + 1e-10, eps
        assert rep["total_cardinality"] == part.cardinality
        if prev is not None:
            assert rep["global_error"] <= prev + 1e-12
        prev = rep["global_error"]
        cards.append(rep["total_cardinality"])
        epss.append(eps)
        pts.append((rep["total_cardinality"], rep["global_error"]))
    slope = np.polyfit(np.log(1.0 / np.array(epss)), np.log(cards), 1)[0]
    bound = (1.0 / s1 + 1.0 / s2) * 1.15
    assert slope <= bound, (slope, bound)
    fit = fit_rate(pts)
    target = 0.85 / (1.0 / s1 + 1.0 / s2)
    assert fit.rate >= target, (fit.rate, target)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("A5", elapsed, 600,
           f"cardinality slope {slope:.3f} <= {bound:.3f}, rate {fit.rate:.3f} >= {target:.3f}")


def _raises(exc, call):
    try:
        call()
    except exc:
        return True
    return False


def _sign_field():
    from stgreedy.fields import Field
    import numpy as _np
    return Field(DOM, lambda t, x: _np.sign(t - 0.5) + 0.0 * x, name="sign",
                 time_part=lambda t: _np.sign(_np.asarray(t) - 0.5),
                 space_part=lambda x: _np.ones_like(x))


def _symmetric_indicators():
    mesh = IntervalMesh.unit_interval()
    for _ in range(3):
        mesh = refine_bisection(mesh, range(mesh.size))
    eta, _ = element_indicators(lambda p: np.abs(p[:, 0] - 0.5) ** 0.3,
                                mesh, 2)
    return np.max(np.abs(eta - eta[::-1])) < 1e-10


_TRI_SAMPLE = None


def _tri_sample():
    global _TRI_SAMPLE
    if _TRI_SAMPLE is None:
        rng = np.random.default_rng(8)
        mesh = TriangleMesh.unit_square()
        for _ in range(4):
            mesh = refine_bisection(mesh, rng.choice(mesh.size, size=2,
                                                     replace=False))
        _TRI_SAMPLE = mesh
    return _TRI_SAMPLE


def _reproducible_build():
    # time degree < r1 times an FE-reproducible space factor: both steps
    # reproduce exactly, the root partition survives
    from stgreedy.fields import Field
    f = Field(DOM, lambda t, x: t * x, name="txt",
              time_part=lambda t: np.asarray(t, dtype=float),
              space_part=lambda x: np.asarray(x, dtype=float))
    part, fd, rep = build_fully_discrete(f, 0.25, 2, 2)
    return rep["N_time"] == 1 and rep["total_cardinality"] == 1 and \
        rep["global_error"] < 1e-9


def _zero_approximant():
    f = make_test_field("constant", [1.0], DOM)
    part, fd, rep = build_fully_discrete(f, 0.25, 1, 2)
    for fem in fd.coeff_fems[0]:
        fem.dofs[:] = 0.0
    return abs(global_error(f, fd) - 1.0) < 1e-10


def _complexity_one_mark(ft):
    # f = t at delta = 0.25: the root is marked once, nothing after
    part = greedy_time(ft, 1, 2, 0.25).partition
    return [e.marked for e in part.trace] == [1] and \
        complexity_ratio(part) == 1.0


def _constant_mode_rows():
    from stgreedy.harness import run_experiment
    rows, _ = run_experiment(_tiny_cfg())
    return all(r["cardinality"] == 1 and r["error"] < 1e-7 for r in rows)


def _tiny_cfg():
    from stgreedy.harness import ExperimentConfig
    return ExperimentConfig(mode="greedy-time", field_name="constant",
                            field_params=(3.0,), r=1, p=2.0,
                            sweep_start=0.5, sweep_stop=0.05, sweep_points=4)


def _emit_empty():
    from stgreedy.harness import emit_report
    emit_report([], {}, _tiny_cfg())


def test_a6_exactness_and_overlay():
    t0 = time.time()
    rule = gauss_interval_rule()
    grid = interval_grid()
    fc = make_test_field("constant", [3.0], DOM)
    ft = make_test_field("poly", [1, 0], DOM)
    fq = make_test_field("poly", [2, 0], DOM)
    f1 = make_test_field("time-power", [1.0], DOM)
    fs = make_test_field("space-power", [2.0], DOM)

    # every operation's [TRIVIAL] examples, aggregated
    checks = [
        ("field constant", lambda: abs(eval_field(fc, 0.5, [0.5]) - 3.0) < 1e-15),
        ("field time-power identity", lambda: abs(eval_field(f1, 0.5, [0.2]) - 0.5) < 1e-15),
        ("field space-power", lambda: abs(eval_field(fs, 0.1, [0.5]) - 0.25) < 1e-15),
        ("quad weight normalization", lambda: abs(integrate_interval(
            lambda t: np.ones_like(t), UNIT, rule, 1) - 1.0) < 1e-14),
        ("quad t^2", lambda: abs(integrate_interval(
            lambda t: t ** 2, UNIT, rule, 1) - 1 / 3) < 1e-12),
        ("domain area", lambda: abs(integrate_domain(
            lambda p: np.ones(len(p)), TriangleMesh.unit_square()) - 1.0) < 1e-12),
        ("domain x symmetry", lambda: abs(integrate_domain(
            lambda p: p[:, 0], TriangleMesh.unit_square()) - 0.5) < 1e-12),
        ("x_norm zero", lambda: x_norm(lambda p: np.zeros(len(p)), grid) == 0.0),
        ("x_norm const", lambda: abs(x_norm(
            lambda p: 2.0 * np.ones(len(p)), grid) - 2.0) < 1e-12),
        ("basis r1 constant", lambda: np.allclose(
            orthonormal_time_basis(UNIT, 1).eval([0.3])[:, 0], 1.0)),
        ("basis length-2 norm", lambda: np.allclose(
            orthonormal_time_basis((0, 2), 1).eval([0.3])[:, 0], 1 / np.sqrt(2))),
        ("projection of constant", lambda: abs(
            project_time_slice(fc, UNIT, 1).coeffs[0].mu - 3.0) < 1e-12),
        ("projection reproduces t", lambda: np.max(np.abs(
            project_time_slice(ft, UNIT, 2).values(
                np.linspace(0.1, 0.9, 5), ft.grid.points) -
            np.linspace(0.1, 0.9, 5)[:, None])) < 1e-10),
        ("best_error exactness", lambda: best_error(fq, UNIT, 3) < 1e-8),
        ("median of constant", lambda: abs(
            median_constant(fc, UNIT, 2).norm(2) - 3.0) < 1e-12),
        ("jackson reproduces t^2", lambda: lp_error(
            fq, jackson_construct(fq, UNIT, 3, 2), 2) < 1e-8),
        ("jackson constant", lambda: lp_error(
            fc, jackson_construct(fc, UNIT, 2, 1), 1) < 1e-10),
        ("node_norm constant", lambda: abs(node_norm(
            project_time_slice(fc, UNIT, 1)) - 3.0) < 1e-12),
        ("node_norm of t", lambda: abs(node_norm(
            project_time_slice(ft, UNIT, 2)) - 1.0) < 1e-10),
        ("difference kills constants", lambda: difference(
            fc, 0.2, 0.1, 2).norm(2) < 1e-14),
        ("difference of t", lambda: abs(difference(
            ft, 0.3, 0.1, 1).norm(2) - 0.1) < 1e-13),
        ("modulus of constant", lambda: modulus_sup(
            fc, UNIT, 0.25, SmoothnessParams(r=1, p=2)) == 0.0),
        ("avg modulus of constant", lambda: modulus_avg(
            fc, UNIT, 0.25, SmoothnessParams(r=1, p=2)) == 0.0),
        ("avg below sup", lambda: modulus_avg(
            f1, UNIT, 0.25, SmoothnessParams(r=1, p=2)) <= modulus_sup(
            f1, UNIT, 0.25, SmoothnessParams(r=1, p=2)) + 1e-10),
        ("besov of constant", lambda: besov_seminorm_discrete(
            fc, UNIT, BesovParams(s=0.5, q=2.0, kmax=8)) == 0.0),
        ("besov annihilates low degree", lambda: besov_seminorm_discrete(
            ft, UNIT, BesovParams(s=1.5, q=2.0, kmax=8)) < 1e-10),
        ("whitney 0/0 convention", lambda: whitney_ratio(
            ft, UNIT, 2, 2.0, 2.0, 1.5) == 0.0),
        ("interval refine children", lambda: np.allclose(
            IntervalMesh().refine([0]).breakpoints, [0, 0.5, 1])),
        ("interval refine noop", lambda: IntervalMesh().refine([]).size == 1),
        ("greedy constant", lambda: greedy_time(fc, 1, 2, 0.5).partition.size == 1),
        ("greedy accepts root", lambda: greedy_time(ft, 1, 2, 0.3).partition.size == 1),
        ("complexity 0/0", lambda: complexity_ratio(IntervalMesh()) == 0.0),
        ("complexity one mark", lambda: _complexity_one_mark(ft)),
        ("refine noop 2d", lambda: refine_bisection(
            TriangleMesh.unit_square(), []).size == 2),
        ("fem constant", lambda: np.allclose(fem_project(
            lambda p: np.full(len(p), 2.0),
            IntervalMesh.unit_interval().refine([0]), 2).dofs, 2.0)),
        ("fem linear reproduction", lambda: np.sqrt((element_indicators(
            lambda p: p[:, 0],
            IntervalMesh.unit_interval().refine([0]), 2)[0] ** 2).sum()) < 1e-10),
        ("greedy_space constant", lambda: greedy_space(
            lambda p: np.full(len(p), 1.0), 2, 0.5, n=1)[0].size == 1),
        ("spacetime constant", lambda: build_fully_discrete(
            fc, 0.5, 1, 2)[2]["global_error"] < 1e-10),
        ("field time-power closed form", lambda: abs(eval_field(
            make_test_field("time-power", [0.25], DOM), 0.0625, [0.3]) -
            0.0625 ** 0.25) < 1e-15),
        ("median of two-valued sign", lambda: abs(abs(median_constant(
            _sign_field(), UNIT, 1).mu) - 1.0) < 1e-12),
        ("two full refinements are dyadic", lambda: np.allclose(
            IntervalMesh().refine([0]).refine([0, 1]).breakpoints,
            [0, 0.25, 0.5, 0.75, 1])),
        ("1-D bisection mesh semantics", lambda: refine_bisection(
            IntervalMesh.unit_interval(), [0]).element_coords.tolist() ==
            [[0.0, 0.5], [0.5, 1.0]]),
        ("symmetric indicators", lambda: _symmetric_indicators()),
        ("greedy_space accepts smooth root", lambda: greedy_space(
            lambda p: np.sin(np.pi * p[:, 0]), 2, 0.5, n=1)[0].size == 1),
        ("overlay idempotent", lambda: overlay(
            _tri_sample(), _tri_sample()).size == _tri_sample().size),
        ("overlay identity element", lambda: overlay(
            _tri_sample(), TriangleMesh.unit_square()).size ==
            _tri_sample().size),
        ("reproducible build is exact", lambda: _reproducible_build()),
        ("zero approximant leaves the norm", lambda: _zero_approximant()),
        ("stability of time-constant field", lambda: abs(
            projection_stability_check(fs, UNIT, 1, 0.5, 2.0) - 1.0) < 1e-6),
        ("greedy-time rows for constant", lambda: _constant_mode_rows()),
        ("fit inverts power laws", lambda: abs(fit_rate(
            [(m, 3.0 * m ** -1.0) for m in (16, 32, 64, 128, 256)]).rate -
            1.0) < 1e-12),
        ("empty report rejected", lambda: _raises(
            Exception, lambda: _emit_empty())),
    ]
    for label, check in checks:
        assert check(), label

    # overlay bound on 200 randomized pairs
    def random_tri(seed):
        rng = np.random.default_rng(seed)
        mesh = TriangleMesh.unit_square()
        for _ in range(5):
            mesh = refine_bisection(mesh, rng.choice(
                mesh.size, size=min(2, mesh.size), replace=False))
        return mesh

    def random_iv(seed):
        rng = np.random.default_rng(seed)
        mesh = IntervalMesh.unit_interval()
        for _ in range(5):
            mesh = refine_bisection(mesh, rng.choice(
                mesh.size, size=min(2, mesh.size), replace=False))
        return mesh

    for i in range(100):
        m1, m2 = random_tri(2 * i), random_tri(2 * i + 1)
        ov = overlay(m1, m2)
        assert ov.size <= m1.size + m2.size - 2, i
        m1, m2 = random_iv(1000 + 2 * i), random_iv(1001 + 2 * i)
        ov = overlay(m1, m2)
        assert ov.size <= m1.size + m2.size - 1, i
    elapsed = time.time() - t0
    report("A6", elapsed, 120, f"{len(checks)} trivial checks + 200 overlay pairs")


def test_a7_projection_stability_regression():
    t0 = time.time()
    worst = 0.0
    for f in standard_corpus(DOM):
        for s2 in (0.5, 1.5):
            for r1 in (1, 2):
                ratio = projection_stability_check(f, UNIT, r1, s2, 2.0)
                worst = max(worst, ratio)
                assert ratio <= 10.0, (f.name, s2, r1, ratio)
    elapsed = time.time() - t0
    report("A7", elapsed, 120, f"max ratio {worst:.3f}")
