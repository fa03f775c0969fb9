"""Experiment runner: sweeps, rate fits, CSV/JSON report emission.

Configs are flat key = value text files (documented in the README);
every mode runs a sweep and emits rows (sweep, cardinality, error,
wall_ms) plus a JSON report and a plot-ready two-column file.  Given
the same config and seed the CSV bytes are reproducible up to the
wall_ms column.
"""

import json
import time
from dataclasses import dataclass, field as dfield
from pathlib import Path

import numpy as np

from .fields import DomainSpec, FieldError, Regularity, field_from_csv, \
    make_test_field
from .mesh1d import greedy_time, uniform_time_error
from .fem import FemError, FemSpace, greedy_space
from .polyspace import PolyspaceError, check_construct_order, check_order, \
    jackson_construct, lp_error
from .quadrature import DEFAULT_INTERVAL_POINTS, DEFAULT_SMOOTH_PANELS
from .smoothness import BesovParams, SmoothnessError, SmoothnessParams, \
    besov_terms, lq_sum, modulus_avg, modulus_sup, whitney_ratio
from .spacetime import build_fully_discrete, time_seminorm_params

CSV_HEADER = "sweep,cardinality,error,wall_ms"


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


# every sweep point is one full run of its mode, and a rate fit gains
# nothing past one point per decade: this many give more than that over
# the whole positive float range, about 632 decades
MAX_SWEEP_POINTS = 1024


def check_sweep_points(points):
    """Raise :class:`ConfigError` past ``MAX_SWEEP_POINTS``."""
    if points > MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep takes at most {MAX_SWEEP_POINTS} points, one full run "
            f"each (more than one per decade of the float range), got "
            f"{points}")


@dataclass
class ExperimentConfig:
    mode: str
    field_name: str = ""
    field_params: tuple = ()
    csv_path: str = ""
    T: float = 1.0
    n: int = 1
    r: int = 1
    r1: int = 1
    r2: int = 2
    p: float = 2.0
    q: float = 2.0
    q1: float = None
    q2: float = None
    s: float = 0.5
    s1: float = None
    s2: float = None
    kmax: int = 14
    quad_points: int = DEFAULT_INTERVAL_POINTS
    quad_panels: int = DEFAULT_SMOOTH_PANELS
    time_slice: float = None
    sweep_start: float = None
    sweep_stop: float = None
    sweep_points: int = 8
    data_path: str = ""
    out_dir: str = "out"
    seed: int = 0
    raw: dict = dfield(default_factory=dict)

    def domain(self):
        try:
            return DomainSpec(T=self.T, n=self.n, quad_points=self.quad_points,
                              quad_panels=self.quad_panels)
        except FieldError as e:
            raise ConfigError(str(e)) from e

    def regularity(self):
        """The declared Regularity, or None to keep the field family's."""
        if self.s1 is not None or self.s2 is not None:
            return Regularity(self.s1, 1.0 if self.q1 is None else self.q1,
                              self.s2, 2.0 if self.q2 is None else self.q2)

    def make_field(self):
        reg = self.regularity()
        if self.field_name == "csv":
            if not self.csv_path:
                raise ConfigError("field.csv path required for field.name=csv")
            return field_from_csv(self.csv_path, self.domain(), regularity=reg)
        try:
            return make_test_field(self.field_name, self.field_params,
                                   self.domain(), regularity=reg)
        except FieldError as e:
            raise ConfigError(str(e)) from e

    def sweep(self):
        if self.sweep_start is None or self.sweep_stop is None:
            raise ConfigError("sweep.start and sweep.stop are required")
        if self.sweep_points < 4:
            raise ConfigError(
                f"sweep needs at least 4 points, got {self.sweep_points}")
        check_sweep_points(self.sweep_points)
        return np.geomspace(self.sweep_start, self.sweep_stop,
                            self.sweep_points)


def _integer(val):
    """An integer given as such or as a float with no fractional part."""
    x = float(val)
    if not x.is_integer():
        raise ValueError(f"not an integer: {val!r}")
    return int(x)


def _floats(val):
    """A comma-separated list of floats."""
    return tuple(float(v) for v in val.split(",") if v.strip())


_KEYMAP = {
    "mode": ("mode", str),
    "field.name": ("field_name", str),
    "field.params": ("field_params", _floats),
    "field.csv": ("csv_path", str),
    "domain.t": ("T", float),
    "domain.n": ("n", _integer),
    "r": ("r", _integer), "r1": ("r1", _integer), "r2": ("r2", _integer),
    "p": ("p", float), "q": ("q", float),
    "q1": ("q1", float), "q2": ("q2", float),
    "s": ("s", float), "s1": ("s1", float), "s2": ("s2", float),
    "kmax": ("kmax", _integer),
    "quad.points": ("quad_points", _integer),
    "quad.panels": ("quad_panels", _integer),
    "time.slice": ("time_slice", float),
    "sweep.start": ("sweep_start", float),
    "sweep.stop": ("sweep_stop", float),
    "sweep.points": ("sweep_points", _integer),
    "data.path": ("data_path", str),
    "out.dir": ("out_dir", str),
    "seed": ("seed", _integer),
}


def parse_config(path) -> ExperimentConfig:
    """Read a flat key = value config file."""
    raw = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        raw[key.lower()] = val
    cfg = ExperimentConfig(mode=raw.get("mode", ""), raw=raw)
    for key, val in raw.items():
        if key not in _KEYMAP:
            raise ConfigError(f"unknown config key {key!r}")
        attr, conv = _KEYMAP[key]
        try:
            setattr(cfg, attr, conv(val))
        except ValueError as e:
            raise ConfigError(f"bad value for {key}: {val!r}") from e
    validate_config(cfg)
    return cfg


def _check_greedy_st(cfg, rule):
    check_order(cfg.r1, rule)
    FemSpace.check_order(cfg.r2, cfg.n)
    reg = cfg.regularity()
    if reg is not None:         # else the family's, checked by the run
        time_seminorm_params(reg, cfg.r1)
    # the claimed spatial regularity is read by this check alone
    s2 = 2.0 if cfg.s2 is None else cfg.s2
    q2 = 2.0 if cfg.q2 is None else cfg.q2
    if not (q2 > 0 and s2 > cfg.n * max(1.0 / q2 - 0.5, 0.0)):
        raise ConfigError(f"greedy-st needs q2 > 0 and s2 > n(1/q2 - 1/2)+,"
                          f" got n={cfg.n}, s2={s2}, q2={q2}")


# per field mode, the library objects and checks its keys must pass, run
# at parse time on the field's time rule: a bad key fails before any output
_CHECKS = {
    "moduli": lambda c, rule: SmoothnessParams(r=c.r, p=c.p),
    "besov": lambda c, rule: (SmoothnessParams(r=c.r, p=c.p),
                              BesovParams(s=c.s, q=c.q, kmax=c.kmax)),
    "jackson": lambda c, rule: (SmoothnessParams(r=c.r, p=c.p),
                                check_order(c.r, rule),
                                check_construct_order(c.r)),
    "whitney": lambda c, rule: (SmoothnessParams(r=c.r, p=c.p),
                                check_order(c.r, rule, c.p),
                                BesovParams(s=c.s, q=c.q, r=c.r)),
    "greedy-time": lambda c, rule: check_order(c.r, rule, c.p),
    "greedy-space": lambda c, rule: FemSpace.check_order(c.r2, c.n),
    "greedy-st": _check_greedy_st,
}
MODES = (*_CHECKS, "rates")


def validate_config(cfg: ExperimentConfig):
    if cfg.mode == "rates":
        if not cfg.data_path:
            raise ConfigError("rates mode requires data.path")
        return
    check = _CHECKS.get(cfg.mode)
    if check is None:
        raise ConfigError(f"unknown mode {cfg.mode!r}; known: {MODES}")
    if not cfg.field_name:
        raise ConfigError("field.name is required")
    domain = cfg.domain()
    for key, val in (("sweep.start", cfg.sweep_start),
                     ("sweep.stop", cfg.sweep_stop)):
        if val is not None and not (np.isfinite(val) and val > 0):
            raise ConfigError(f"{key} must be finite and positive, got {val}")
    check_sweep_points(cfg.sweep_points)
    if cfg.time_slice is not None and not 0 <= cfg.time_slice < cfg.T:
        raise ConfigError(
            f"time.slice must lie in [0, T) = [0, {cfg.T}), "
            f"got {cfg.time_slice}")
    try:
        check(cfg, domain.rule)
    except (FemError, PolyspaceError, SmoothnessError) as e:
        raise ConfigError(str(e)) from e
    given = [key for key in ("q1", "q2") if getattr(cfg, key) is not None]
    if given and cfg.s1 is None and cfg.s2 is None:
        raise ConfigError(
            f"{' and '.join(given)} given without s1 or s2: a declared "
            f"regularity needs s1 or s2, else the field family's applies")


@dataclass
class RateFit:
    """Least-squares slope on (log m, log error)."""

    points: list
    slope: float
    intercept: float
    residual: float
    window: tuple
    dropped: int = 0
    excluded_zero: int = 0

    @property
    def rate(self):
        return -self.slope

    def report(self, **more):
        return {"rate": self.rate, "slope": self.slope,
                "intercept": self.intercept, "residual": self.residual,
                "window": list(self.window), **more}


def fit_rate(points, drop_smallest=2) -> RateFit:
    """Fit error ~ c * m^slope from (cardinality, error) pairs.

    Zero-error points are excluded (with notice in the result); the
    ``drop_smallest`` smallest-m points are dropped as pre-asymptotic.
    A cardinality that is not finite and positive, or an error that is
    not finite and non-negative, raises :class:`ConfigError`.
    """
    pts = sorted((float(m), float(e)) for m, e in points)
    for m, e in pts:
        if not (np.isfinite(m) and m > 0):
            raise ConfigError(f"cardinality must be finite and positive, "
                              f"got {m}")
        if not (np.isfinite(e) and e >= 0):
            raise ConfigError(f"error must be finite and non-negative, "
                              f"got {e} at cardinality {m}")
    usable = [(m, e) for m, e in pts if e > 0.0]
    excluded = len(pts) - len(usable)
    if drop_smallest and len(usable) - drop_smallest >= 3:
        usable = usable[drop_smallest:]
        dropped = drop_smallest
    else:
        dropped = 0
    if len(usable) < 3:
        raise ConfigError(f"need at least 3 usable points, got {len(usable)}")
    lm = np.log([m for m, _ in usable])
    le = np.log([e for _, e in usable])
    A = np.stack([lm, np.ones_like(lm)], axis=1)
    (slope, intercept), res, *_ = np.linalg.lstsq(A, le, rcond=None)
    resid = float(np.sqrt(res[0] / len(lm))) if len(res) else 0.0
    return RateFit(points=usable, slope=float(slope),
                   intercept=float(intercept), residual=resid,
                   window=(usable[0][0], usable[-1][0]), dropped=dropped,
                   excluded_zero=excluded)


# ---------------------------------------------------------------------------

def standard_corpus(domain=None):
    """The five-family test corpus used by the acceptance experiments."""
    domain = domain or DomainSpec()
    return [
        make_test_field("constant", [3.0], domain),
        make_test_field("poly", [2, 1], domain),
        make_test_field("time-power", [0.25], domain),
        make_test_field("space-power", [0.3] + [0.5] * domain.n, domain),
        make_test_field("tensor-singular", [0.25], domain),
    ]


def _row(sweep, card, err, t0):
    return {"sweep": float(sweep), "cardinality": int(card),
            "error": float(err), "wall_ms": (time.perf_counter() - t0) * 1e3}


def run_experiment(cfg: ExperimentConfig):
    """Execute the configured sweep; returns (rows, extras)."""
    validate_config(cfg)
    if cfg.mode == "rates":
        return _run_rates(cfg)
    f = cfg.make_field()
    rows, extras = [], {}
    if cfg.mode == "moduli":
        params = SmoothnessParams(r=cfg.r, p=cfg.p)
        omegas, avgs = [], []
        for u in cfg.sweep():
            t0 = time.perf_counter()
            om = modulus_sup(f, (0.0, cfg.T), u, params)
            avgs.append(modulus_avg(f, (0.0, cfg.T), u, params))
            omegas.append(om)
            rows.append(_row(u, 0, om, t0))
        extras = {"omega": omegas, "w_avg": avgs}
    elif cfg.mode == "besov":
        bp = BesovParams(s=cfg.s, q=cfg.q, kmax=cfg.kmax)
        t0 = time.perf_counter()
        terms = besov_terms(f, (0.0, cfg.T), bp,
                            SmoothnessParams(r=bp.order, p=cfg.p))
        partial = lq_sum(terms, cfg.q, partial=True)
        for k, val in enumerate(partial):
            rows.append(_row(k, 0, val, t0))
            t0 = time.perf_counter()
        extras = {"terms": terms.tolist(), "seminorm": float(partial[-1]),
                  "last_term": float(terms[-1])}
    elif cfg.mode == "jackson":
        h_ratios = []
        for L in cfg.sweep():
            t0 = time.perf_counter()
            interval = (0.0, L)
            poly = jackson_construct(f, interval, cfg.r, cfg.p)
            err = lp_error(f, poly, cfg.p)
            w = modulus_avg(f, interval, L / (2 * cfg.r),
                            SmoothnessParams(r=cfg.r, p=cfg.p))
            ratio = 0.0 if w == 0 and err < 1e-9 else (err / w) ** cfg.p
            h_ratios.append(ratio)
            rows.append(_row(L, 0, ratio, t0))
        extras = {"ratios": h_ratios}
    elif cfg.mode == "whitney":
        for L in cfg.sweep():
            t0 = time.perf_counter()
            ratio = whitney_ratio(f, (0.0, L), cfg.r, cfg.p, cfg.q, cfg.s)
            rows.append(_row(L, 0, ratio, t0))
    elif cfg.mode == "greedy-time":
        cache = {}
        for delta in cfg.sweep():
            t0 = time.perf_counter()
            res = greedy_time(f, cfg.r, cfg.p, delta, cache=cache)
            rows.append(_row(delta, res.partition.size, res.global_error(cfg.p), t0))
        extras = {"uniform": [
            {"m": m, "error": uniform_time_error(f, cfg.r, cfg.p, m)}
            for m in (2 ** k for k in range(0, 12))]}
    elif cfg.mode == "greedy-space":
        tstar = cfg.time_slice if cfg.time_slice is not None else cfg.T / 2
        grid_fn = (lambda pts: f.sample([tstar], pts)[0])
        cache = {}      # spaces and refinements, shared across the sweep
        for delta in cfg.sweep():
            t0 = time.perf_counter()
            mesh, fem, hist = greedy_space(grid_fn, cfg.r2, delta, n=cfg.n,
                                           cache=cache)
            rows.append(_row(delta, mesh.size, hist[-1][1], t0))
    elif cfg.mode == "greedy-st":
        cache = {}
        reports = []
        for eps in cfg.sweep():
            t0 = time.perf_counter()
            part, fd, rep = build_fully_discrete(f, eps, cfg.r1, cfg.r2,
                                                 time_cache=cache)
            reports.append(rep)
            rows.append(_row(eps, rep["total_cardinality"],
                             rep["global_error"], t0))
        extras = {"reports": reports}
    if len(rows) >= 5 and all(r["error"] > 0 for r in rows) and \
            cfg.mode in ("greedy-time", "greedy-space", "greedy-st"):
        fit = fit_rate([(r["cardinality"], r["error"]) for r in rows])
        extras["rate_fit"] = fit.report()
    return rows, extras


def _run_rates(cfg):
    try:
        data = np.loadtxt(cfg.data_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as e:
        raise ConfigError(f"{cfg.data_path}: {e}") from e
    if data.shape[1] < 2:
        raise ConfigError(f"{cfg.data_path}: need at least 2 columns "
                          f"(cardinality, error), got {data.shape[1]}")
    # the (cardinality, error) columns; sweep,card,error is the emitted layout
    fit = fit_rate(data[:, 1:3] if data.shape[1] >= 3 else data[:, :2])
    rows = [{"sweep": m, "cardinality": int(m), "error": e, "wall_ms": 0.0}
            for m, e in fit.points]
    extras = {"rate_fit": fit.report(dropped=fit.dropped,
                                     excluded_zero=fit.excluded_zero)}
    return rows, extras


def emit_report(rows, extras, cfg: ExperimentConfig, out_dir=None):
    """Write CSV, JSON and a plot-ready two-column file; returns paths."""
    if not rows:
        raise ConfigError("nothing to report: empty results")
    out = Path(out_dir or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = cfg.mode
    csv_path = out / f"{stem}.csv"
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r['sweep']!r},{r['cardinality']},{r['error']!r},"
                     f"{r['wall_ms']:.3f}")
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out / f"{stem}.json"
    json_path.write_text(json.dumps({
        "config": {k: v for k, v in cfg.raw.items()},
        "seed": cfg.seed,
        "rows": [{k: r[k] for k in ("sweep", "cardinality", "error")}
                 for r in rows],
        "extras": _jsonable(extras),
    }, indent=2))
    dat_path = out / f"{stem}_curve.dat"
    xcol = "cardinality" if cfg.mode.startswith("greedy") else "sweep"
    dat_path.write_text("\n".join(
        f"{r[xcol]!r} {r['error']!r}" for r in rows) + "\n")
    paths = [str(csv_path), str(json_path), str(dat_path)]
    if "uniform" in extras:        # second curve: the non-adaptive baseline
        upath = out / f"{stem}_uniform_curve.dat"
        upath.write_text("\n".join(
            f"{u['m']} {u['error']!r}" for u in extras["uniform"]) + "\n")
        paths.append(str(upath))
    return paths


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
