"""Input bounds stated once in the library and shared by the config checks.

Each bound lives in the module that needs it (the time-rule order and
the constructive approximant's order in ``polyspace.check_order``, the
difference order in ``smoothness.SmoothnessParams``, the dyadic depth in
``smoothness.BesovParams``, the element order in ``fem.FemSpace``, the
sweep size in ``harness.check_sweep_points``);
``harness.validate_config`` runs those same checks at parse time, so a
direct library call and a config meet one bound.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stgreedy.cli import main
from stgreedy.fem import FemError, element_indicators, fem_project
from stgreedy.fields import DomainSpec, make_test_field
from stgreedy.harness import MAX_SWEEP_POINTS, ConfigError, parse_config
from stgreedy.meshnd import initial_mesh, refine_bisection
from stgreedy.polyspace import (CONSTRUCT_ERROR_RATIO, MAX_CONSTRUCT_ORDER,
                                PolyspaceError, as_slicefn, best_error,
                                check_order, jackson_construct, lp_error,
                                slice_error)
from stgreedy.quadrature import gauss_interval_rule
from stgreedy.smoothness import (BesovParams, SmoothnessError,
                                  besov_seminorm_discrete, besov_terms, lq_sum)
from stgreedy.spacetime import SpacetimeError, build_fully_discrete

F = make_test_field("time-power", [0.25], DomainSpec())
SRC = Path(__file__).resolve().parents[1] / "src"


def write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    # a negative best-error radicand
    lambda: best_error(F, (0, 1), 40),
    # an OverflowError in h^k k!, and numpy warnings at r = 60
    lambda: jackson_construct(F, (0, 1), 2000, 1),
    lambda: jackson_construct(F, (0, 1), 60, 1),
])
def test_direct_calls_past_the_time_rule_raise(call):
    with pytest.raises(PolyspaceError, match="time rule .* 2 r - 2"):
        call()


@pytest.mark.filterwarnings("error")
def test_fully_discrete_build_checks_r1_before_any_work():
    # r1 = 11 on the 10-point rule once ran, where the CLI rejects it
    f = make_test_field("tensor-singular", [0.25], DomainSpec())
    with pytest.raises(SpacetimeError, match="time rule .* 2 r - 2"):
        build_fully_discrete(f, 0.1, 11, 2)


def greedy_time_cfg(tmp_path, points, r, p):
    return write_cfg(tmp_path, f"""
mode = greedy-time
field.name = time-power
field.params = 0.25
quad.points = {points}
r = {r}
p = {p}
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 4
""", f"gt_{points}_{r}_{p}.txt")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("points", [2, 10])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_library_and_config_share_the_time_rule_bound(tmp_path, points, p):
    # a Gauss rule of n points is exact to degree 2 n - 1, so the products
    # of degree 2 r - 2 allow r = n and no more
    f = make_test_field("time-power", [0.25], DomainSpec(quad_points=points))
    assert slice_error(f, (0.5, 1.0), points, p) >= 0.0
    with pytest.raises(PolyspaceError, match="time rule"):
        slice_error(f, (0.5, 1.0), points + 1, p)
    assert parse_config(greedy_time_cfg(tmp_path, points, points, p)).r == \
        points
    with pytest.raises(ConfigError, match="time rule"):
        parse_config(greedy_time_cfg(tmp_path, points, points + 1, p))


@pytest.mark.parametrize("mode, value, needle", [
    ("jackson", "r = 5", "time rule"),
    ("whitney", "r = 5\ns = 0.5", "time rule"),
    ("greedy-time", "r = 5", "time rule"),
    ("greedy-st", "r1 = 5", "time rule"),
    ("moduli", "r = 53", "difference order"),
    ("besov", "r = 53", "difference order"),
    ("jackson", "r = 53\nquad.points = 64", "difference order"),
    ("whitney", "r = 53\nquad.points = 64", "difference order"),
    # the constructive approximant, in every norm in the jackson mode
    ("jackson", "r = 11\nquad.points = 64", "constructive approximant"),
    ("jackson", "r = 11\nquad.points = 64\np = 1", "constructive"),
    ("whitney", "r = 11\nquad.points = 64\np = 1\ns = 0.5", "constructive"),
    ("greedy-time", "r = 11\nquad.points = 64\np = 1", "constructive"),
    ("whitney", "r = 2\ns = 2", "need s < r"),
    ("greedy-space", "r2 = 1", "r2 must be >= 2"),
    ("greedy-st", "r2 = 1", "r2 must be >= 2"),
    ("greedy-space", "r2 = 10", "r2 must be at most 9 in 1-D"),
    ("greedy-st", "r2 = 5\ndomain.n = 2", "r2 must be at most 4 in 2-D"),
])
def test_every_mode_checks_its_orders_at_parse_time(tmp_path, mode, value,
                                                    needle):
    # each mode's table entry runs the library check of the keys it reads
    cfg = write_cfg(tmp_path, f"""
mode = {mode}
field.name = time-power
field.params = 0.25
quad.points = 4
{value}
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 4
""")
    with pytest.raises(ConfigError, match=needle):
        parse_config(cfg)


def test_library_and_config_share_the_construct_bound(tmp_path):
    # with 64 points the time rule allows r = 64; for p != 2 the
    # constructive approximant stops r at MAX_CONSTRUCT_ORDER = 10
    rule = gauss_interval_rule(64)
    top = MAX_CONSTRUCT_ORDER
    check_order(64, rule)
    check_order(top, rule, 1.0)
    with pytest.raises(PolyspaceError, match="constructive approximant"):
        check_order(top + 1, rule, 1.0)
    f = make_test_field("time-power", [0.25], DomainSpec(quad_points=64))
    for p in (1.0, 2.0):        # the construct checks its order in any norm
        with pytest.raises(PolyspaceError, match="constructive approximant"):
            jackson_construct(f, (0.5, 1.0), top + 1, p)
    for r, p in ((64, 2.0), (top, 1.0)):
        assert parse_config(greedy_time_cfg(tmp_path, 64, r, p)).r == r
    for r, p in ((65, 2.0), (top + 1, 1.0)):
        with pytest.raises(ConfigError):
            parse_config(greedy_time_cfg(tmp_path, 64, r, p))


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, np.inf])
def test_construct_reproduces_polynomials_at_the_top_order(p):
    # a poly field of time degree < r has a best error of roundoff, which
    # the bound's scan floors at 1e-13 of the norm: within the stated ratio
    # of that, it is reproduced (to about 1e-9 of the norm at r = 10)
    r = MAX_CONSTRUCT_ORDER
    for degree in range(8):     # every time degree make_test_field takes
        f = make_test_field("poly", [degree, 1], DomainSpec())
        for interval in ((0.0, 1.0), (0.5, 1.0)):
            err = lp_error(f, jackson_construct(f, interval, r, p), p)
            norm = as_slicefn(f).lp_norm(*interval, p)
            assert err <= CONSTRUCT_ERROR_RATIO * 1e-13 * norm, \
                (degree, interval, err / norm)


def test_besov_depth_keeps_the_last_weight_finite():
    # 2^(kmax s) overflowed at s = 51.5, kmax = 20 (with a numpy warning,
    # and a NaN seminorm without one); kmax = 10^6 also ran 10^6 levels
    assert BesovParams(s=51.5, q=2.0, kmax=19).kmax == 19
    for s, kmax in ((51.5, 20), (0.7, 10 ** 6), (1.0, 1024)):
        with pytest.raises(SmoothnessError, match="2\\^\\(kmax s\\)"):
            BesovParams(s=s, q=2.0, kmax=kmax)
    # a deep truncation at small s stays allowed
    assert len(besov_terms(F, (0.0, 1.0), BesovParams(s=0.25, q=2.0,
                                                      kmax=20))) == 21


BESOV = """
mode = besov
field.name = time-power
field.params = 0.25
p = 2
q = 2
sweep.start = 1.0
sweep.stop = 0.125
sweep.points = 4
"""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["s = 51.5\nkmax = 20",
                                   "s = 0.7\nkmax = 1000000"])
def test_cli_rejects_an_overflowing_besov_depth(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path, f"{BESOV}{value}\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    assert main(["besov", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "kmax" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


GREEDY_ST = """
mode = greedy-st
field.name = tensor-singular
field.params = 0.25
r1 = 1
r2 = 2
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 4
"""


@pytest.mark.parametrize("value, needle", [
    # q1 = 0 was read as unset and ran with q1 = 1, q2 = -1 ran as given
    ("s1 = 0.5\nq1 = 0", "q must be positive"),
    ("s2 = 2\nq1 = -1", "q must be positive"),
    ("q2 = -1", "q2 > 0"),
    ("q2 = 0", "q2 > 0"),
    ("q2 = nan", "q2 > 0"),
    # s1 = 0 and s2 = 0 were read as unset too
    ("s1 = 0", "s must be finite and positive"),
    ("s2 = 0", "s2 > n(1/q2 - 1/2)+"),
])
def test_cli_rejects_non_positive_regularity(tmp_path, capsys, value, needle):
    cfg = write_cfg(tmp_path, f"{GREEDY_ST}{value}\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    assert main(["greedy-st", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and needle in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_greedy_st_keeps_the_family_time_smoothness(tmp_path):
    # without s1 or s2 the family's declared s1 = 1 sets the difference
    # order, not r1: r1 = 64 needs no difference of order 65
    cfg = parse_config(write_cfg(tmp_path, f"{GREEDY_ST}quad.points = 64\n"
                                 "r1 = 64\n"))
    assert cfg.regularity() is None
    with pytest.raises(ConfigError, match="difference order 65"):
        parse_config(write_cfg(tmp_path, f"{GREEDY_ST}quad.points = 64\n"
                               "r1 = 64\ns2 = 2\n", "s2.txt"))


@pytest.mark.parametrize("value, needle", [
    # q1 = 3 alone once ran exactly as without it
    ("q1 = 3", "q1 given without s1 or s2"),
    ("q2 = 3", "q2 given without s1 or s2"),
    ("q1 = 3\nq2 = 3", "q1 and q2 given without s1 or s2"),
])
def test_cli_rejects_q_without_s(tmp_path, capsys, value, needle):
    cfg = write_cfg(tmp_path, f"{GREEDY_ST}{value}\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    assert main(["greedy-st", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and needle in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    # with s1 or s2 given, q1 and q2 are read
    for s in ("s1 = 1", "s2 = 2"):
        reg = parse_config(write_cfg(tmp_path, f"{GREEDY_ST}{value}\n{s}\n",
                                     "with_s.txt")).regularity()
        assert reg is not None and 3.0 in (reg.q1, reg.q2)


@pytest.mark.filterwarnings("error")
def test_besov_seminorm_past_the_float_limit():
    bp = BesovParams(s=20.5, q=2.0, kmax=49)
    terms = besov_terms(F, (0.0, 1.0), bp)
    assert max(terms) > 1e155
    sem = besov_seminorm_discrete(F, (0.0, 1.0), bp)
    assert sem == pytest.approx(math.hypot(*terms), rel=1e-14)
    # a sum that does not overflow keeps its plain bits
    assert lq_sum(terms[:20], 2.0) == np.sum(terms[:20] ** 2.0) ** 0.5
    assert lq_sum(terms, np.inf) == max(terms)


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_besov_sum_past_the_float_limit(tmp_path):
    # terms up to 1.8e171: their squares overflowed the lq sum, which
    # warned ("overflow encountered in power") and wrote Infinity
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, f"{BESOV}s = 20.5\nkmax = 49\n"
                    f"out.dir = {out}\n")
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "stgreedy.cli",
         "besov", "--config", cfg],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr
    report = strict_json((out / "besov.json").read_text())
    terms = report["extras"]["terms"]
    assert max(terms) > 1e155
    # math.hypot scales its sum of squares itself
    want = math.hypot(*terms)
    assert report["extras"]["seminorm"] == pytest.approx(want, rel=1e-14)
    rows = [line.split(",") for line in
            (out / "besov.csv").read_text().splitlines()[1:]]
    partial = [float(row[2]) for row in rows]
    assert all(math.isfinite(v) for v in partial)
    assert partial == sorted(partial)
    assert partial[-1] == report["extras"]["seminorm"]
    # the sums that did not overflow keep their plain bits
    plain = np.cumsum(np.array(terms[:20]) ** 2) ** 0.5
    assert partial[:20] == plain.tolist()


@pytest.mark.parametrize("n, r2, top", [(1, 10, 9), (1, 11, 9), (2, 5, 4)])
def test_cli_rejects_fe_orders_past_the_element_rule(tmp_path, capsys, n,
                                                     r2, top):
    # 2-D r2 = 5 (15 basis functions, 12 rule points) once reported 0.0068
    # at every sweep point, where Monte Carlo gives 1.07; 1-D r2 = 10 (10
    # basis functions, 10 points) interpolated and reported 7e-16
    x0 = ", 0.5" if n == 2 else ""
    cfg = write_cfg(tmp_path, f"""
mode = greedy-space
field.name = space-power
field.params = 0.5, 0.3{x0}
domain.n = {n}
r2 = {r2}
sweep.start = 0.1
sweep.stop = 0.0125
sweep.points = 4
out.dir = {tmp_path / 'out'}
""")
    assert main(["greedy-space", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"at most {top} in {n}-D" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    mesh = initial_mesh(n)
    with pytest.raises(FemError, match=f"at most {top}"):
        fem_project(lambda p: p[:, 0], mesh, r2)


def monte_carlo_error(g, fem, per_element, rng):
    """||g - fem||_{L2(Omega)} from uniform random points per element."""
    space, mesh = fem.space, fem.mesh
    total = 0.0
    for e, verts in enumerate(mesh.element_coords):
        ref = rng.random((per_element, mesh.dim))
        if mesh.dim == 1:
            pts = verts[0] + (verts[1] - verts[0]) * ref
        else:           # fold the unit square onto the reference triangle
            out = ref.sum(axis=1) > 1.0
            ref[out] = 1.0 - ref[out]
            pts = (verts[0] + ref[:, :1] * (verts[1] - verts[0])
                   + ref[:, 1:] * (verts[2] - verts[0]))
        uh = space._basis(ref) @ fem.dofs[space.eldofs[e]]
        total += mesh.areas()[e] * np.mean((g(pts) - uh) ** 2)
    return math.sqrt(total)


@pytest.mark.parametrize("n, r2, sizes, low, high", [
    (1, 9, (1, 2, 4), 0.85, 1.15),
    # the degree-6 rule does not integrate the squared residual at
    # r2 = 4 (degree 8): the reported error reads 10-40% low there
    (2, 4, (2, 4, 8), 0.5, 1.15),
])
def test_reported_fe_error_is_an_l2_error_at_the_top_order(n, r2, sizes, low,
                                                           high):
    g = ((lambda p: np.sin(6.0 * p[:, 0])) if n == 1 else
         (lambda p: np.exp(p[:, 0]) * np.cos(3.0 * p[:, 1])))
    rng = np.random.default_rng(21)
    mesh = initial_mesh(n)
    while mesh.size <= max(sizes):
        if mesh.size in sizes:
            fem = fem_project(g, mesh, r2)
            eta, _ = element_indicators(g, mesh, r2, fem=fem)
            reported = math.sqrt(float(np.sum(eta ** 2)))
            mc = monte_carlo_error(g, fem, 20000, rng)
            assert low * mc <= reported <= high * mc, (mesh.size, reported, mc)
        mesh = refine_bisection(mesh, range(mesh.size))


def test_time_projection_overflow_ends_in_one_error_line(tmp_path):
    # on [0, 1e300) the projection's weighted products overflow; their
    # warning once ended a run under -W error in a traceback (exit 1)
    cfg = write_cfg(tmp_path, f"""
mode = greedy-time
field.name = time-power
field.params = 0.25
domain.t = 1e300
r = 1
p = 2
sweep.start = 1e224
sweep.stop = 1e221
sweep.points = 4
out.dir = {tmp_path / 'out'}
""")
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "stgreedy.cli", "greedy-time",
         "--config", cfg],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 2, run.stderr
    assert run.stderr.count("\n") == 1
    assert "leaf error is infinite on [0.0, 1e+300)" in run.stderr


def test_construct_order_past_the_bound_ends_at_parse_time(tmp_path):
    # r = 53, p = 1 on the 64-point rule once ran for minutes, peeling
    # noise of order 1e130 off each leaf
    cfg = write_cfg(tmp_path, f"""
mode = greedy-time
field.name = time-power
field.params = 0.25
quad.points = 64
r = 53
p = 1
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 4
out.dir = {tmp_path / 'out'}
""")
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "stgreedy.cli", "greedy-time",
         "--config", cfg],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 2, run.stderr
    assert run.stderr.count("\n") == 1
    assert "constructive approximant" in run.stderr
    assert not (tmp_path / "out").exists()


def test_sweep_points_past_the_bound_end_at_parse_time(tmp_path):
    # 10^8 points were still running when a 15 s timeout stopped them:
    # the sweep was never bounded above
    cfg = write_cfg(tmp_path, f"""
mode = greedy-time
field.name = time-power
field.params = 0.25
r = 1
p = 2
sweep.start = 0.1
sweep.stop = 0.01
sweep.points = 100000000
out.dir = {tmp_path / 'out'}
""")
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "stgreedy.cli", "greedy-time",
         "--config", cfg],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 2, run.stderr
    assert run.stderr.count("\n") == 1
    assert f"at most {MAX_SWEEP_POINTS} points" in run.stderr
    assert not (tmp_path / "out").exists()
    # the bound itself parses, and one point past it does not
    text = Path(cfg).read_text()
    for points, ok in ((MAX_SWEEP_POINTS, True), (MAX_SWEEP_POINTS + 1, False)):
        Path(cfg).write_text(text.replace("100000000", str(points)))
        if ok:
            assert len(parse_config(cfg).sweep()) == points
        else:
            with pytest.raises(ConfigError, match="at most"):
                parse_config(cfg)
