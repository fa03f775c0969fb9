import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stgreedy import harness
from stgreedy.cli import main
from stgreedy.fields import DomainSpec
from stgreedy.harness import (_KEYMAP, CSV_HEADER, ConfigError,
                              emit_report, fit_rate, parse_config,
                              run_experiment, standard_corpus)


def write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_fit_rate_exact_power_laws():
    ms = [16, 32, 64, 128, 256, 512]
    fit = fit_rate([(m, m ** -0.5) for m in ms])
    assert abs(fit.rate - 0.5) < 1e-12
    assert fit.residual < 1e-12
    fit = fit_rate([(m, 3.0 * m ** -1.0) for m in ms])
    assert abs(fit.rate - 1.0) < 1e-12
    assert abs(fit.intercept - np.log(3.0)) < 1e-12


def test_fit_rate_guards():
    with pytest.raises(ConfigError):
        fit_rate([(2, 1.0), (4, 0.5)])
    fit = fit_rate([(2, 0.0), (4, 1.0), (8, 0.5), (16, 0.25), (32, 0.1)],
                   drop_smallest=0)
    assert fit.excluded_zero == 1


def test_parse_and_validate(tmp_path):
    path = write_cfg(tmp_path, """
# comment line
mode = greedy-time
field.name = time-power
field.params = 0.25
domain.T = 1.0
r = 1
p = 2
sweep.start = 0.05
sweep.stop = 0.005
sweep.points = 4
""")
    cfg = parse_config(path)
    assert cfg.mode == "greedy-time"
    assert cfg.field_params == (0.25,)
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "mode = moduli\n", "missing.txt"))
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "mode = moduli\nfield.name = x\nbogus.key = 1\n",
                               "bogus.txt"))
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, """
mode = greedy-st
field.name = tensor-singular
field.params = 0.25
s2 = 0.1
q2 = 0.2
""", "bad_s2.txt"))


def test_sweep_point_minimum(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
mode = moduli
field.name = constant
field.params = 1.0
r = 1
p = 2
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 3
"""))
    with pytest.raises(ConfigError):
        cfg.sweep()


def test_moduli_mode_rows(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
mode = moduli
field.name = time-power
field.params = 0.5
r = 1
p = 2
sweep.start = 0.25
sweep.stop = 0.015625
sweep.points = 5
"""))
    rows, extras = run_experiment(cfg)
    assert len(rows) == 5
    oms = [r["error"] for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(oms, oms[1:]))   # u decreasing
    assert all(w <= o + 1e-10 for w, o in zip(extras["w_avg"], extras["omega"]))


def test_greedy_time_constant_rows(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
mode = greedy-time
field.name = constant
field.params = 3.0
r = 1
p = 2
sweep.start = 0.5
sweep.stop = 0.05
sweep.points = 4
"""))
    rows, _ = run_experiment(cfg)
    assert all(r["cardinality"] == 1 for r in rows)
    assert all(r["error"] < 1e-7 for r in rows)


def test_besov_mode_rows(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
mode = besov
field.name = time-power
field.params = 0.5
s = 0.7
q = 2
p = 2
kmax = 8
sweep.start = 1
sweep.stop = 0.1
sweep.points = 4
"""))
    rows, extras = run_experiment(cfg)
    assert len(rows) == 9                      # partial sums k = 0..kmax
    vals = [r["error"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert extras["seminorm"] == pytest.approx(vals[-1])


def test_jackson_and_whitney_modes(tmp_path):
    base = """
field.name = time-power
field.params = 0.25
r = 1
p = 2
q = 2
s = 0.7
sweep.start = 1.0
sweep.stop = 0.125
sweep.points = 4
"""
    for mode in ("jackson", "whitney"):
        cfg = parse_config(write_cfg(tmp_path, f"mode = {mode}\n" + base,
                                     f"{mode}.txt"))
        rows, _ = run_experiment(cfg)
        assert len(rows) == 4
        assert all(np.isfinite(r["error"]) and r["error"] >= 0 for r in rows)


def test_greedy_space_mode(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
mode = greedy-space
field.name = space-power
field.params = 0.3, 0.5
r2 = 2
sweep.start = 0.02
sweep.stop = 0.0025
sweep.points = 4
"""))
    rows, _ = run_experiment(cfg)
    cards = [r["cardinality"] for r in rows]
    assert cards == sorted(cards)
    assert all(r["error"] <= r["sweep"] for r in rows)


@pytest.mark.parametrize("n, params", [(1, "0.3, 0.5"),
                                        (2, "0.5, 0.3, 0.6")])
def test_greedy_space_sweep_keeps_the_rows_of_fresh_runs(tmp_path,
                                                         monkeypatch, n,
                                                         params):
    # the sweep shares one space cache; its rows are those of calls that
    # each start with an empty one
    from stgreedy import harness
    from stgreedy.fem import greedy_space
    from stgreedy.fields import make_test_field
    caches = []

    def recorded(*args, cache=None, **kwargs):
        caches.append(cache)
        return greedy_space(*args, cache=cache, **kwargs)

    monkeypatch.setattr(harness, "greedy_space", recorded)
    cfg = parse_config(write_cfg(tmp_path, f"""
mode = greedy-space
field.name = space-power
field.params = {params}
domain.n = {n}
r2 = 2
sweep.start = 0.04
sweep.stop = 0.005
sweep.points = 4
"""))
    rows, _ = run_experiment(cfg)
    assert len(caches) == 4 and caches[0]
    assert all(c is caches[0] for c in caches)
    f = make_test_field("space-power", [float(p) for p in params.split(",")],
                        DomainSpec(n=n))
    for row in rows:
        mesh, _, hist = greedy_space(lambda pts: f.sample([0.5], pts)[0], 2,
                                     row["sweep"], n=n, cache={})
        assert row["cardinality"] == mesh.size
        assert row["error"].hex() == hist[-1][1].hex()


def test_greedy_st_cli_end_to_end(tmp_path):
    cfg = write_cfg(tmp_path, f"""
mode = greedy-st
field.name = tensor-singular
field.params = 0.25
r1 = 1
r2 = 2
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 4
out.dir = {tmp_path/"st_out"}
""", "st.txt")
    assert main(["greedy-st", "--config", cfg, "--seed", "3"]) == 0
    rep = json.loads((tmp_path / "st_out" / "greedy-st.json").read_text())
    assert rep["seed"] == 3
    reports = rep["extras"]["reports"]
    assert len(reports) == 4
    for r in reports:
        assert set(r) == {"eps", "N_time", "per_slice", "total_cardinality",
                          "error_time_step", "error_space_step",
                          "global_error"}
        assert r["global_error"] <= r["error_time_step"] + \
            r["error_space_step"] + 1e-10


def test_rates_mode_passthrough(tmp_path):
    data = tmp_path / "table.csv"
    rows = ["m,error"] + [f"{m},{3.0 * m ** -0.5}" for m in (8, 16, 32, 64, 128)]
    data.write_text("\n".join(rows))
    cfg = parse_config(write_cfg(tmp_path, f"""
mode = rates
data.path = {data}
"""))
    rows, extras = run_experiment(cfg)
    assert abs(extras["rate_fit"]["rate"] - 0.5) < 1e-12


def test_emit_report_layout(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, f"""
mode = greedy-time
field.name = time-power
field.params = 0.25
r = 1
p = 2
sweep.start = 0.05
sweep.stop = 0.005
sweep.points = 4
out.dir = {tmp_path/"out"}
"""))
    rows, extras = run_experiment(cfg)
    paths = emit_report(rows, extras, cfg)
    csv_text = Path(paths[0]).read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == 5
    rep = json.loads(Path(paths[1]).read_text())
    assert set(rep) == {"config", "seed", "rows", "extras"}
    dat = Path(paths[2]).read_text().splitlines()
    assert len(dat) == 4 and all(len(line.split()) == 2 for line in dat)
    # greedy-time carries the uniform baseline as a second curve
    assert paths[3].endswith("greedy-time_uniform_curve.dat")
    udat = Path(paths[3]).read_text().splitlines()
    assert all(len(line.split()) == 2 for line in udat)
    with pytest.raises(ConfigError):
        emit_report([], {}, cfg)


def test_reproducible_bytes(tmp_path):
    cfgtext = f"""
mode = greedy-time
field.name = time-power
field.params = 0.25
r = 1
p = 2
sweep.start = 0.05
sweep.stop = 0.005
sweep.points = 4
out.dir = {tmp_path/"o1"}
"""
    cfg1 = parse_config(write_cfg(tmp_path, cfgtext, "c1.txt"))
    p1 = emit_report(*run_experiment(cfg1), cfg1)
    cfg2 = parse_config(write_cfg(tmp_path, cfgtext.replace("o1", "o2"), "c2.txt"))
    p2 = emit_report(*run_experiment(cfg2), cfg2)

    def strip_wall(path):
        lines = Path(path).read_text().splitlines()
        return [",".join(line.split(",")[:3]) for line in lines]

    assert strip_wall(p1[0]) == strip_wall(p2[0])
    assert Path(p1[2]).read_text() == Path(p2[2]).read_text()


def test_cli_exit_codes(tmp_path):
    ok_cfg = write_cfg(tmp_path, f"""
mode = whitney
field.name = time-power
field.params = 0.25
r = 1
p = 2
q = 2
s = 0.7
sweep.start = 1.0
sweep.stop = 0.125
sweep.points = 4
out.dir = {tmp_path/"cli_out"}
""", "ok.txt")
    assert main(["whitney", "--config", ok_cfg]) == 0
    assert (tmp_path / "cli_out" / "whitney.csv").exists()

    bad = write_cfg(tmp_path, "mode = whitney\n", "bad.txt")
    assert main(["whitney", "--config", bad]) == 2
    assert main(["whitney", "--config", str(tmp_path / "nope.txt")]) == 2
    # mismatched subcommand vs config mode
    assert main(["moduli", "--config", ok_cfg]) == 2

    cap_cfg = write_cfg(tmp_path, f"""
mode = greedy-time
field.name = time-power
field.params = 0.25
r = 1
p = 2
sweep.start = 0.001
sweep.stop = 0.00001
sweep.points = 4
out.dir = {tmp_path/"cap_out"}
""", "cap.txt")
    import stgreedy.mesh1d as m1
    orig = m1.greedy_time.__defaults__
    # a tiny level cap makes the first sweep point blow the cap: exit 3
    from stgreedy import harness

    def capped(f, r, p, delta, max_level=3, cache=None):
        return m1.greedy_time(f, r, p, delta, max_level=3, cache=cache)
    harness.greedy_time, saved = capped, harness.greedy_time
    try:
        assert main(["greedy-time", "--config", cap_cfg]) == 3
    finally:
        harness.greedy_time = saved


def test_cli_rejects_bad_field_input(tmp_path, capsys):
    # an x0 with one coordinate on a 2-D domain used to end in an
    # IndexError traceback, a CSV that is no tensor grid in a FieldError one
    bad_x0 = write_cfg(tmp_path, """
mode = greedy-space
field.name = space-power
field.params = 0.3, 0.5
domain.n = 2
r2 = 2
sweep.start = 0.02
sweep.stop = 0.0025
sweep.points = 4
""", "x0.txt")
    assert main(["greedy-space", "--config", bad_x0]) == 2
    err = capsys.readouterr().err
    assert "space-power" in err and err.count("\n") == 1

    data = tmp_path / "ragged.csv"
    data.write_text("t,x,value\n0,0,1\n0,1,2\n1,0,3\n")
    bad_csv = write_cfg(tmp_path, f"""
mode = greedy-time
field.name = csv
field.csv = {data}
r = 1
p = 2
sweep.start = 0.1
sweep.stop = 0.01
sweep.points = 4
out.dir = {tmp_path/"csv_out"}
""", "csv.txt")
    assert main(["greedy-time", "--config", bad_csv]) == 2
    err = capsys.readouterr().err
    assert "tensor grid" in err and err.count("\n") == 1

    # a non-numeric cell and a one-column rates table used to end in
    # ValueError and IndexError tracebacks
    data.write_text("t,x,value\n0,0,1\n0,1,abc\n1,0,3\n1,1,4\n")
    assert main(["greedy-time", "--config", bad_csv]) == 2
    err = capsys.readouterr().err
    assert "abc" in err and err.count("\n") == 1

    table = tmp_path / "table.csv"
    rates = write_cfg(tmp_path, f"""
mode = rates
data.path = {table}
out.dir = {tmp_path/"rates_out"}
""", "rates.txt")
    for text, needle in [("m,error\n8,0.3\n16,abc\n32,0.1\n", "abc"),
                         ("error\n0.3\n0.2\n0.1\n", "2 columns")]:
        table.write_text(text)
        assert main(["rates", "--config", rates]) == 2
        err = capsys.readouterr().err
        assert needle in err and err.count("\n") == 1


QUAD_BASE = """
field.name = tensor-singular
field.params = 0.25
r = 2
sweep.start = 0.25
sweep.stop = 0.03125
sweep.points = 4
"""


def quad_cfg(tmp_path, mode, p, quad, name):
    return parse_config(write_cfg(
        tmp_path, f"mode = {mode}\np = {p}\n{QUAD_BASE}{quad}", name))


def outputs(cfg):
    rows, extras = run_experiment(cfg)
    return [(r["sweep"], r["cardinality"], r["error"]) for r in rows], extras


def test_quad_settings_are_per_run_across_threads(tmp_path):
    import sys
    from concurrent.futures import ThreadPoolExecutor
    cfgs = [quad_cfg(tmp_path, "greedy-time", 2, quad, f"q{k}.txt")
            for k, quad in enumerate(["quad.points = 6\nquad.panels = 2\n",
                                      "quad.points = 4\n"])]
    serial = [outputs(cfg) for cfg in cfgs]
    assert serial[0] != serial[1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(outputs, cfgs * 2, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == serial * 2


def test_quad_settings_match_library_calls_on_that_domain(tmp_path):
    from stgreedy.fields import make_test_field
    from stgreedy.mesh1d import greedy_time
    from stgreedy.smoothness import SmoothnessParams, modulus_avg, modulus_sup
    quad = "quad.points = 6\nquad.panels = 2\n"
    f = make_test_field("tensor-singular", [0.25],
                        DomainSpec(quad_points=6, quad_panels=2))
    rows, extras = outputs(quad_cfg(tmp_path, "moduli", 2, quad, "m.txt"))
    params = SmoothnessParams(r=2, p=2.0)
    us = [u for u, _, _ in rows]
    assert [e for _, _, e in rows] == [modulus_sup(f, (0.0, 1.0), u, params)
                                       for u in us]
    assert extras["w_avg"] == [modulus_avg(f, (0.0, 1.0), u, params)
                               for u in us]
    assert rows != outputs(quad_cfg(tmp_path, "moduli", 2, "", "d.txt"))[0]

    rows, _ = outputs(quad_cfg(tmp_path, "greedy-time", 1, quad, "g.txt"))
    cache = {}
    for delta, card, err in rows:
        res = greedy_time(f, 2, 1.0, delta, cache=cache)
        assert (card, err) == (res.partition.size, res.global_error(1.0))


@pytest.mark.parametrize("quad", ["quad.points = 1", "quad.panels = 0"])
def test_cli_rejects_bad_quadrature(tmp_path, capsys, quad):
    cfg = write_cfg(tmp_path, f"mode = moduli\np = 2\n{QUAD_BASE}{quad}\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    assert main(["moduli", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["domain.n = 1.9", "quad.points = 6.7",
                                   "r = 2.5", "sweep.points = inf"])
def test_cli_rejects_fractional_integers(tmp_path, capsys, value):
    # these once parsed, truncated, to n = 1, 6 points and r = 2
    cfg = write_cfg(tmp_path, f"mode = moduli\np = 2\n{QUAD_BASE}{value}\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    assert main(["moduli", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("quad", ["quad.points = 100000",
                                  "quad.panels = 100000000"])
def test_cli_rejects_huge_quadrature_under_a_memory_limit(tmp_path, quad):
    # quad.points = 100000 ended in a traceback for a 74.5 GiB array; the
    # child's address space is capped, so a regression fails, not swaps
    cfg = write_cfg(tmp_path, f"mode = moduli\np = 2\n{QUAD_BASE}{quad}\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from stgreedy.cli import main\n"
            f"sys.exit(main(['moduli', '--config', {cfg!r}]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("config error")
    assert done.stderr.count("\n") == 1 and "quad_p" in done.stderr
    assert not (tmp_path / "out").exists()


def test_config_keys_are_the_config_fields():
    # the hand-written table that _KEYMAP derives from ExperimentConfig
    floats, integer = harness._floats, harness._integer
    assert _KEYMAP == {
        "mode": ("mode", str),
        "field.name": ("field_name", str),
        "field.params": ("field_params", floats),
        "field.csv": ("csv_path", str),
        "domain.t": ("T", float),
        "domain.n": ("n", integer),
        "r": ("r", integer), "r1": ("r1", integer), "r2": ("r2", integer),
        "p": ("p", float), "q": ("q", float),
        "q1": ("q1", float), "q2": ("q2", float),
        "s": ("s", float), "s1": ("s1", float), "s2": ("s2", float),
        "kmax": ("kmax", integer),
        "quad.points": ("quad_points", integer),
        "quad.panels": ("quad_panels", integer),
        "time.slice": ("time_slice", float),
        "sweep.start": ("sweep_start", float),
        "sweep.stop": ("sweep_stop", float),
        "sweep.points": ("sweep_points", integer),
        "data.path": ("data_path", str),
        "out.dir": ("out_dir", str),
        "seed": ("seed", integer),
    }


NUMERIC_KEYS = [k for k, (_, conv) in _KEYMAP.items() if conv is not str]


# the mode that reads a value, where it is not moduli
MODE_OF_VALUE = {"s = inf": "besov", "s = nan": "besov", "s = 1e300": "besov",
                 "s1 = inf": "greedy-st", "s1 = nan": "greedy-st",
                 "s1 = 1e300": "greedy-st",
                 "r = 2000\np = 1": "greedy-time",
                 "r = 60\np = 1": "greedy-time", "r = 200": "greedy-time",
                 "r1 = 11": "greedy-st"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [
    "field.params = abc", "field.params = 0.25, x",
    "sweep.start = 0", "sweep.start = -1", "sweep.stop = inf",
    "sweep.stop = nan", "time.slice = 5", "time.slice = 1",
    "time.slice = -0.5", "r = 1000000000"] +
    [f"{k} = abc" for k in NUMERIC_KEYS] + list(MODE_OF_VALUE))
def test_cli_rejects_malformed_values(tmp_path, capsys, value):
    # field.params = abc and sweep.start = 0 once ended in a traceback,
    # sweep.start = -1 in a numpy warning, and time.slice = 5 (T = 1)
    # sampled outside [0, T); s = inf and s1 = inf or nan ended in a
    # traceback from math.floor, and r = 10^9, s = 1e300 and s1 = 1e300
    # in differences of that order that ran without end; greedy-time
    # with r = 2000 and p = 1 ended in an OverflowError traceback, with
    # r = 60 and p = 1 in numpy warnings, with r = 200 in a negative
    # radicand; all fail at parse time
    mode = MODE_OF_VALUE.get(value, "moduli")
    cfg = write_cfg(tmp_path, f"mode = {mode}\np = 2\n{QUAD_BASE}{value}\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    assert main([mode, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_time_slice_accepts_the_left_end(tmp_path):
    cfg = quad_cfg(tmp_path, "moduli", 2, "time.slice = 0", "t.txt")
    assert cfg.time_slice == 0.0


def test_integer_keys_accept_integral_floats(tmp_path):
    cfg = quad_cfg(tmp_path, "moduli", 2,
                   "r = 4.0\nquad.points = 6\ndomain.n = 2.0\n", "i.txt")
    assert (cfg.r, cfg.quad_points, cfg.n) == (4, 6, 2)
    assert all(type(v) is int for v in (cfg.r, cfg.quad_points, cfg.n))


def test_standard_corpus_shape():
    fields = standard_corpus()
    assert [f.name for f in fields] == [
        "constant", "poly", "time-power", "space-power", "tensor-singular"]
    assert fields[3].params == (0.3, 0.5)
    # the space-power x0 has one coordinate per dimension; with one on a
    # 2-D domain the corpus used to raise FieldError
    for n in (1, 2):
        for f in standard_corpus(DomainSpec(n=n)):
            vals = f.sample([0.0, 0.5], f.grid.points)
            assert vals.shape == (2, len(f.grid.points))
            assert np.all(np.isfinite(vals))


def test_cli_rejects_nan_field(tmp_path, capsys):
    # a field that is NaN for t > 0.9 used to report a modulus of 0
    ts, xs = np.linspace(0, 1, 11), np.linspace(0, 1, 5)
    rows = [f"{t},{x},{np.nan if t > 0.9 else t * x}"
            for t in ts for x in xs]
    data = tmp_path / "nan.csv"
    data.write_text("t,x,value\n" + "\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, f"""
mode = moduli
field.name = csv
field.csv = {data}
r = 1
p = 2
sweep.start = 0.4
sweep.stop = 0.05
sweep.points = 4
out.dir = {tmp_path/"out"}
""")
    assert main(["moduli", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "NaN" in err and "u=" in err and err.count("\n") == 1


Q_BASE = """
field.name = time-power
field.params = 0.25
r = 1
p = 2
s = 0.7
kmax = 8
sweep.start = 1.0
sweep.stop = 0.125
sweep.points = 4
"""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["besov", "whitney"])
@pytest.mark.parametrize("value", ["q = 0", "q = nan", "q = -2",
                                   "domain.T = inf"])
def test_cli_rejects_bad_q_and_horizon(tmp_path, capsys, mode, value):
    # q = 0 once ended in a ZeroDivisionError traceback, q = nan let
    # besov exit 0, and T = inf let whitney exit 0
    cfg = write_cfg(tmp_path, f"mode = {mode}\n{Q_BASE}{value}\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    assert main([mode, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_besov_accepts_infinite_q(tmp_path):
    cfg = write_cfg(tmp_path, f"mode = besov\n{Q_BASE}q = inf\n"
                    f"out.dir = {tmp_path / 'out'}\n")
    assert main(["besov", "--config", cfg]) == 0


@pytest.mark.filterwarnings("error")
def test_moduli_near_the_float_limit(tmp_path):
    # the averaged modulus overflowed in its mean with a numpy warning,
    # so this run exited 1 under -W error; its values are near 5e223
    cfg = write_cfg(tmp_path, f"""
mode = moduli
field.name = time-power
field.params = 0.25
domain.t = 1e300
r = 1
p = 2
sweep.start = 1e299
sweep.stop = 1e298
sweep.points = 4
out.dir = {tmp_path / "out"}
""")
    assert main(["moduli", "--config", cfg]) == 0
    extras = json.loads((tmp_path / "out" / "moduli.json").read_text())[
        "extras"]
    assert all(1e222 < w < 1e224 for w in extras["w_avg"])


@pytest.mark.filterwarnings("error")
def test_cli_rejects_a_field_near_the_float_limit(tmp_path, capsys):
    # the projection's load norm overflowed, with a numpy warning, and
    # inf <= rtol * inf passed the residual check
    cfg = write_cfg(tmp_path, f"""
mode = greedy-space
field.name = constant
field.params = 1e308
r2 = 2
sweep.start = 0.1
sweep.stop = 0.01
sweep.points = 4
out.dir = {tmp_path / "out"}
""")
    assert main(["greedy-space", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "not finite" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def one_nan_csv(tmp_path):
    """A CSV field t x + 1 on an 11 x 5 grid with one NaN sample."""
    ts, xs = np.linspace(0, 1, 11), np.linspace(0, 1, 5)
    rows = [f"{t},{x},{np.nan if (i, j) == (7, 2) else t * x + 1}"
            for i, t in enumerate(ts) for j, x in enumerate(xs)]
    data = tmp_path / "one_nan.csv"
    data.write_text("t,x,value\n" + "\n".join(rows) + "\n")
    return data


@pytest.mark.parametrize("mode, keys, needle", [
    # exited 0 with NaN errors in the CSV and a bare NaN in the JSON
    ("greedy-time", "r = 1\np = 2\n", "leaf error is NaN on [0.0, 1.0)"),
    # exited 3 with "generation cap 40 hit with error nan"
    ("greedy-space", "r2 = 2\ntime.slice = 0.7\n", "not finite"),
])
def test_cli_rejects_one_nan_sample(tmp_path, capsys, mode, keys, needle):
    cfg = write_cfg(tmp_path, f"""
mode = {mode}
field.name = csv
field.csv = {one_nan_csv(tmp_path)}
{keys}sweep.start = 0.1
sweep.stop = 0.01
sweep.points = 4
out.dir = {tmp_path / "out"}
""")
    assert main([mode, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and needle in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, needle", [
    ("64,nan", "error must be finite"),     # was excluded as a zero error
    ("64,inf", "error must be finite"),
    ("64,-0.01", "error must be finite"),
    ("inf,0.01", "cardinality must be finite"),   # was a LinAlgError
    ("nan,0.01", "cardinality must be finite"),
    ("0,0.01", "cardinality must be finite"),
    ("-64,0.01", "cardinality must be finite"),
])
def test_rates_rejects_non_finite_entries(tmp_path, capsys, row, needle):
    table = tmp_path / "table.csv"
    table.write_text("m,error\n8,0.3\n16,0.2\n32,0.1\n" + row + "\n"
                     "128,0.02\n256,0.01\n")
    cfg = write_cfg(tmp_path, f"""
mode = rates
data.path = {table}
out.dir = {tmp_path / "out"}
""")
    assert main(["rates", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and needle in err
    assert err.count("\n") == 1
    with pytest.raises(ConfigError, match=needle):
        fit_rate([(8, 0.3), (16, 0.2), (32, 0.1)]
                 + [tuple(float(v) for v in row.split(","))])

