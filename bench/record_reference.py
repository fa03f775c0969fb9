"""Record the seed-0 outputs that ``run.py`` compares every seed-0 run with.

    python3 bench/record_reference.py

Runs one full pass of every workload at seed 0, refuses to record if any
check fails, and rewrites ``bench/reference_seed0.json``.  Re-record only
when a change is meant to alter the library's outputs.
"""

import json
import sys

import run


def main():
    run.cap_blas_threads()
    workloads = run.import_library()
    recorded = {}
    for name in run.WORKLOAD_NAMES:
        runner = run.Runner(workloads.WORKLOADS[name](workloads.Inputs.draw(0)))
        done = runner.one_pass()
        if done is None:
            return 1
        runner.passes.append(done)
        runner.finish()
        if runner.failed:
            print(f"{name}: {runner.failures}", file=sys.stderr)
            return 1
        recorded[name] = [{"sweep": p.sweep, "outputs": p.outputs}
                          for p in done.points]
    run.REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
