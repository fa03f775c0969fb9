"""Tests of the benchmark itself; run with ``python -m pytest bench``."""

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_smoke_runs_every_workload_with_all_checks():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300,
                          cwd=BENCH.parent)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workloads.WORKLOADS)


def test_reference_check_flags_changed_outputs():
    reference = json.loads((BENCH / "reference_seed0.json").read_text())
    recorded = reference["time-p1-moving"][0]
    outputs = dict(recorded["outputs"])
    good = workloads.Point(recorded["sweep"], 0.0, dict(outputs), 0, 0.0)
    outputs["leaves"] += 1
    outputs["global_error"] *= 1 + 1e-6
    bad = workloads.Point(recorded["sweep"], 0.0, outputs, 0, 0.0)
    workloads.check_reference("time-p1-moving", [good, bad], reference)
    assert good.failures == []
    assert len(bad.failures) == 2


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    inner = tr.span("inner", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.02)
        inner()

    tr.span("outer", outer_body)()
    stats = tr.snapshot()
    calls, total, self_s, _ = stats["outer"]
    assert calls == 1 and total >= 0.07
    assert abs(self_s - (total - stats["inner"][1])) < 1e-9
    (_, _, _, parent_inner), (_, _, _, parent_outer) = tr.spans[1], tr.spans[0]
    assert parent_inner == 0 and parent_outer == -1


def test_benchmark_json_names_every_printed_metric():
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = [(name, unit) for name, unit, _ in run.LAYER_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers + run.RUN_METRICS
    assert set(spec["command"][1:2]) == {"bench/run.py"}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
