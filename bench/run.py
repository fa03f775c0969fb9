"""The stgreedy benchmark: one workload per run, untraced or traced.

Run from the root of a checkout (the library is imported from ``src/``)::

    python3 bench/run.py --workload st-1d-moving --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --smoke         # every workload once, coarsest point

A run first times ``SETUP_SAMPLES`` set-ups, each in a fresh interpreter
(import plus field and grid construction), then repeats closed-loop
passes over the workload's sweep until ``--seconds`` have elapsed and
reports medians over the passes.  Times are reported relative to a fixed
calibration kernel (``calibrate.py``) timed after each set-up and between
the passes and their points, which cancels most of the shared host's
drift: ``sweep_norm`` and ``finest_norm`` in units of the kernel's time,
``setup_s`` in seconds at the host speed where the kernel takes
``REFERENCE_CALIBRATION_S``.  The raw seconds are in the report line.  Every sweep point's output is
checked; a failed check counts that point as a failed operation.  Seed 0
is also compared against the outputs recorded in ``reference_seed0.json``.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
time the calls into each module's public functions (see ``tracer.py``)
and give the per-layer metrics, and the spans go to ``bench/out/``.

The next-to-last line of standard output is a full report (environment,
sample counts, quartiles, per-point outputs, per-unit costs); the last is
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference_seed0.json"
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("st-1d-moving", "st-2d-tensor", "time-p1-moving",
                  "moduli-2d-moving")

# A child's set-up time, then either the calibration kernel's time right
# after it or, with one_pass, the peak RSS in MB of set-up plus one pass.
# VmHWM is the high-water mark of the child's own memory; getrusage's
# ru_maxrss would also count the parent's memory at the time of the spawn.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
wl = workloads.WORKLOADS[{name!r}](workloads.Inputs.draw({seed}))
print(time.perf_counter() - t0)
if {one_pass}:
    wl.run_pass()
    with open("/proc/self/status") as status:
        hwm = next(line for line in status if line.startswith("VmHWM:"))
    print(int(hwm.split()[1]) / 1024.0)
else:
    import calibrate
    print(calibrate.Calibration().seconds())
"""
# setup_s is reported in seconds at the host speed where the calibration
# kernel takes this long (about its time on an idle 2-core Xeon VM)
REFERENCE_CALIBRATION_S = 0.1


def cap_blas_threads():
    """One BLAS thread unless the environment asks for more, at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS") or \
        os.environ.get("OMP_NUM_THREADS") or "1"
    threads = max(1, min(int(asked), nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def environment(nproc, threads):
    import platform
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "blas_threads": threads, "loadavg_start": os.getloadavg()}


def in_child(name, seed, one_pass=False):
    """Set-up seconds of a fresh interpreter, then the calibration
    kernel's seconds or, with ``one_pass``, the peak RSS in MB."""
    code = SETUP_CODE.format(bench=str(BENCH), src=str(SRC), name=name,
                             seed=seed, one_pass=one_pass)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=170, check=True)
    return [float(x) for x in done.stdout.split()]


def summary(values):
    """Median with its sample count and quartiles; a high percentile only
    where at least ten samples lie beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


class Runner:
    """Closed-loop passes of one workload, counting failed operations."""

    def __init__(self, workload, reference_check=None):
        self.workload = workload
        self.reference_check = reference_check
        self.passes = []            # untraced passes
        self.attempted = 0
        self.failed = 0
        self.failures = []          # (sweep value, message)

    def one_pass(self, between=None):
        """Run, check and count one pass; None if it raised."""
        try:
            result = self.workload.run_pass(between)
        except Exception:
            # a raising pass fails every point of its sweep
            traceback.print_exc()
            self.attempted += len(self.workload.sweep)
            self.failed += len(self.workload.sweep)
            self.failures.append((None, "pass raised; see stderr"))
            return None
        if self.reference_check is not None:
            self.reference_check(result.points)
        self.attempted += len(result.points)
        for p in result.points:
            if p.failures:
                self.failed += 1
                self.failures.extend((p.sweep, msg) for msg in p.failures)
        return result

    def finish(self):
        """The workload's once-per-run checks, charged to the last point."""
        bad = self.workload.finish(self.passes)
        last = self.passes[-1].points[-1]
        if bad and not last.failures:
            self.failed += 1
        last.failures.extend(bad)
        self.failures.extend((last.sweep, msg) for msg in bad)


def run_untraced(runner, seconds):
    """Passes until ``seconds`` have elapsed, with calibrations in between.

    End-to-end times are reported relative to the calibration kernel (see
    ``calibrate.py``), which follows the host's drifting speed.  It runs
    before and after every pass and between its sweep points; returns the
    calibration times of each pass, the ones before and after it included.
    """
    from calibrate import Calibration
    calibration = Calibration()
    before = calibration.seconds()
    calib = []
    start = perf_counter()
    while not runner.passes or perf_counter() - start < seconds:
        samples = [before]
        done = runner.one_pass(lambda: samples.append(calibration.seconds()))
        if done is None:
            break
        before = calibration.seconds()
        samples.append(before)
        runner.passes.append(done)
        calib.append(samples)
    return calib


def run_traced(runner, seconds):
    """Alternate untraced and traced passes; per-pass layer stats."""
    import tracer as tracing
    tr = tracing.Tracer()
    traced, layer_passes, gc_passes = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        done = runner.one_pass()
        if done is None:
            break
        runner.passes.append(done)
        before = tr.snapshot()
        gc_before = (tr.gc_collections, tr.gc_pause_s)
        tr.install()
        try:
            done = runner.one_pass()
        finally:
            tr.uninstall()
        if done is None:
            break
        traced.append(done)
        layer_passes.append(_diff(tr.snapshot(), before))
        gc_passes.append((tr.gc_collections - gc_before[0],
                          tr.gc_pause_s - gc_before[1]))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / (f"spans-{runner.workload.name}"
                        f"-seed{runner.workload.inputs.seed}.json")
    tr.write(spans_path)
    return traced, layer_passes, gc_passes, spans_path


def _diff(after, before):
    out = {}
    for name, (calls, total, self_s, counters) in after.items():
        c0, t0, s0, k0 = before.get(name, (0, 0.0, 0.0, {}))
        out[name] = (calls - c0, total - t0, self_s - s0,
                     {k: v - k0.get(k, 0) for k, v in counters.items()})
    return out


# per_layer metrics: (name, unit, value from one pass's layer stats).
# Per-unit costs divide the time that scales with that unit: self time
# where the span has no traced children doing the work, total otherwise.
def _stat(name, field):
    index = {"calls": 0, "total_s": 1, "self_s": 2}[field]
    return lambda s: s.get(name, (0, 0.0, 0.0, {}))[index]


def _count(name, key):
    return lambda s: s.get(name, (0, 0.0, 0.0, {}))[3].get(key, 0)


def _per_unit(name, field, key):
    def value(s):
        units = _count(name, key)(s)
        return _stat(name, field)(s) * 1e6 / units if units else 0.0
    return value


def _hit_ratio(s):
    lookups = _count("mesh1d.greedy_time", "lookups")(s)
    misses = _stat("mesh1d.slice_error", "calls")(s)
    return 1.0 - misses / lookups if lookups else 0.0


LAYER_METRICS = []
for _name, _stats, _counters in [
        ("fields.sample", ("calls", "self_s"), ("values",)),
        ("quadrature.time_nodes", ("calls", "self_s"), ("nodes",)),
        ("xvalued.lp_norm", ("calls", "self_s"), ()),
        ("xvalued.pairwise_lp_distance", ("calls", "self_s"),
         ("bytes_computed",)),
        ("smoothness.modulus_sup", ("calls", "self_s"), ("h_points",)),
        ("smoothness.modulus_avg", ("calls", "self_s"), ("h_points",)),
        ("smoothness.besov_seminorm_discrete", ("total_s",), ()),
        ("polyspace.best_error", ("calls", "self_s"), ()),
        ("polyspace.project_time_slice", ("calls", "self_s"), ()),
        ("polyspace.median_constant", ("calls", "self_s"), ()),
        ("polyspace.jackson_construct", ("calls", "total_s"), ()),
        ("mesh1d.greedy_time", ("calls", "total_s"), ("iterations", "leaves")),
        ("mesh1d.slice_error", ("calls",), ()),
        ("meshnd.refine_bisection", ("calls", "self_s"),
         ("marked", "closure_added")),
        ("meshnd.overlay", ("calls", "self_s"), ("elements",)),
        ("fem.FemSpace", ("calls", "self_s"), ("elements", "dofs")),
        ("fem.fem_project", ("calls", "self_s"), ("dofs",)),
        ("fem.element_indicators", ("calls", "self_s"), ()),
        ("fem.greedy_space", ("calls", "total_s"), ("iterations",)),
        ("spacetime.build_fully_discrete", ("total_s",), ()),
        ("spacetime.global_error", ("calls", "self_s"), ()),
        ("harness.run_experiment", ("total_s",), ()),
        ("harness.emit_report", ("total_s",), ()),
        ("harness.fit_rate", ("total_s",), ())]:
    for _field in _stats:
        LAYER_METRICS.append((f"{_name}.{_field}",
                              "count" if _field == "calls" else "s",
                              _stat(_name, _field)))
    for _key in _counters:
        LAYER_METRICS.append((f"{_name}.{_key}",
                              "B" if _key == "bytes_computed" else "count",
                              _count(_name, _key)))
LAYER_METRICS += [
    ("smoothness.modulus_sup.us_per_h_point", "us",
     _per_unit("smoothness.modulus_sup", "total_s", "h_points")),
    ("smoothness.modulus_avg.us_per_h_point", "us",
     _per_unit("smoothness.modulus_avg", "total_s", "h_points")),
    ("mesh1d.greedy_time.us_per_leaf", "us",
     _per_unit("mesh1d.greedy_time", "total_s", "leaves")),
    ("mesh1d.time_cache.hit_ratio", "ratio", _hit_ratio),
    ("meshnd.refine_bisection.us_per_element", "us",
     _per_unit("meshnd.refine_bisection", "self_s", "elements")),
    ("fem.fem_project.us_per_dof", "us",
     _per_unit("fem.fem_project", "self_s", "dofs")),
]


# the remaining per_layer metrics, measured around the passes
RUN_METRICS = [("runtime.gc_collections", "count"),
               ("runtime.gc_pause_s", "s"),
               ("trace.overhead_frac", "ratio")]
END_TO_END = {"setup_s": "s", "sweep_norm": "calib", "finest_norm": "calib",
              "peak_rss_mb": "MB", "rate": "1"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, setup, calib, rss_mb):
    wl = runner.workload
    sweeps = [p.seconds for p in runner.passes]
    finest = [p.points[-1].seconds for p in runner.passes]
    # host speed during a pass, and during its finest point: the mean of
    # the calibrations around them
    host = [statistics.fmean(c) for c in calib]
    host_finest = [statistics.fmean(c[-2:]) for c in calib]
    units = [sum(pt.cardinality for pt in p.points) for p in runner.passes]
    values = {"setup_s": statistics.median(
                  t / c * REFERENCE_CALIBRATION_S for t, c in setup),
              "sweep_norm": statistics.median(s / h
                                              for s, h in zip(sweeps, host)),
              "finest_norm": statistics.median(
                  f / h for f, h in zip(finest, host_finest)),
              "peak_rss_mb": rss_mb,
              "rate": wl.rate(runner.passes[-1].points)}
    metrics = {k: metric(v, END_TO_END[k]) for k, v in values.items()}
    per_unit = {f"sweep_us_per_{wl.size_unit}":
                summary([s * 1e6 / u for s, u in zip(sweeps, units) if u])}
    details = {"setup_s": summary([t for t, _ in setup]),
               "sweep_s": summary(sweeps),
               "finest_s": summary(finest),
               "calibration_s": summary([t for c in calib for t in c]),
               "per_unit": per_unit, "sweep_units": units[-1],
               "samples": {"setup_s": [t for t, _ in setup],
                           "setup_calibration_s": [c for _, c in setup],
                           "sweep_s": sweeps,
                           "finest_s": finest, "calibration_s": calib}}
    return metrics, details


def layer_report(runner, traced, layer_passes, gc_passes):
    metrics = {}
    for name, unit, value in LAYER_METRICS:
        metrics[name] = metric(statistics.median(value(s)
                                                 for s in layer_passes), unit)
    plain = statistics.median(p.seconds for p in runner.passes)
    slow = statistics.median(p.seconds for p in traced)
    values = {"runtime.gc_collections": statistics.median(
                  c for c, _ in gc_passes),
              "runtime.gc_pause_s": statistics.median(
                  p for _, p in gc_passes),
              "trace.overhead_frac": slow / plain - 1.0}
    for name, unit in RUN_METRICS:
        metrics[name] = metric(values[name], unit)
    return metrics


def reference_check(workloads, name, seed):
    """Comparison against the recorded outputs, for seed 0 only."""
    if seed != 0:
        return None
    reference = json.loads(REFERENCE.read_text())
    return lambda points: workloads.check_reference(name, points, reference)


def import_library():
    """The workloads module, importing stgreedy from this checkout only."""
    sys.path[:0] = [str(BENCH), str(SRC)]
    import stgreedy
    here = Path(stgreedy.__file__).resolve().parent
    if here != (SRC / "stgreedy").resolve():
        raise ImportError(f"stgreedy imported from {here}, not {SRC}")
    import workloads
    return workloads


def smoke(workloads, seed):
    """One pass of every workload at its coarsest point, all checks on."""
    attempted = failed = 0
    t0 = perf_counter()
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](workloads.Inputs.draw(seed), smoke=True)
        runner = Runner(wl, reference_check(workloads, name, seed))
        done = runner.one_pass()
        if done is not None:
            runner.passes.append(done)
            runner.finish()
        attempted += runner.attempted
        failed += runner.failed
        print(json.dumps({"workload": name, "attempted": runner.attempted,
                          "failures": runner.failures}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {"smoke_s": metric(perf_counter() - t0,
                                                    "s")}}))
    return 0 if failed == 0 else 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of every workload at its coarsest point")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stgreedy" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}", file=sys.stderr)
        return 2
    nproc, threads = cap_blas_threads()
    workloads = import_library()
    if args.smoke:
        return smoke(workloads, args.seed)

    env = environment(nproc, threads)
    setup = [in_child(args.workload, args.seed)
             for _ in range(SETUP_SAMPLES)]
    inputs = workloads.Inputs.draw(args.seed)
    runner = Runner(workloads.WORKLOADS[args.workload](inputs),
                    reference_check(workloads, args.workload, args.seed))
    report = {"workload": args.workload, "inputs": vars(inputs),
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        traced, layer_passes, gc_passes, spans = run_traced(runner,
                                                            args.seconds)
    else:
        calib = run_untraced(runner, args.seconds)
    if runner.passes:
        runner.finish()

    metrics = {}
    if args.trace and traced:
        metrics = layer_report(runner, traced, layer_passes, gc_passes)
        report["spans"] = str(spans.relative_to(BENCH.parent))
        report["traced_passes"] = len(traced)
    elif not args.trace and runner.passes:
        rss_mb = in_child(args.workload, args.seed, one_pass=True)[1]
        metrics, report["timings"] = end_to_end(runner, setup, calib, rss_mb)
    env["loadavg_end"] = os.getloadavg()
    failed = runner.failed
    report.update(environment=env, passes=len(runner.passes),
                  attempted=runner.attempted, failed=failed,
                  fail_frac=failed / max(runner.attempted, 1),
                  failures=runner.failures[:20],
                  last_pass=[vars(p) for p in runner.passes[-1].points]
                  if runner.passes else [])
    print(json.dumps({"report": report}))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
