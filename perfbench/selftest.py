"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload shape it runs the traced run twice with one seed and
requires the deterministic counters (layer calls and work counters, round
labels, cache hits on serve-churn, fallbacks, journal records) to repeat
exactly and every output check to pass; then it requires another seed to
change the inputs.  It also checks that ``BENCHMARK.json`` lists exactly
the metrics the code reports.  Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

import run
from common import END_TO_END, PER_LAYER

TINY = {
    "solve-dense": dict(run.WORKLOADS["solve-dense"], n=64, degree=16, ops_per_s=1.0,
                        min_ops=2),
    "solve-sparse": dict(run.WORKLOADS["solve-sparse"], n=128, degree=4, ops_per_s=1.0,
                         min_ops=2),
    "serve-churn": dict(run.WORKLOADS["serve-churn"], n=300, degree=4, ops_per_s=60.0,
                        min_ops=30),
    "serve-hot-reads": dict(run.WORKLOADS["serve-hot-reads"], n=300, degree=4,
                            ops_per_s=400.0, min_ops=200),
}

#: Counters that depend on how two concurrent connections interleave.
SCHEDULE_DEPENDENT = {
    "serve-hot-reads": {"serving.cache.hits", "serving.cache.hit_ratio",
                        "serving.artifact.read.calls"},
}


def deterministic(values, workload: str):
    units = dict(PER_LAYER)
    skip = SCHEDULE_DEPENDENT.get(workload, set())
    return {
        name: value
        for name, value in values.items()
        if units.get(name) == "count" and name not in skip
    }


def main() -> int:
    sys.path.insert(0, run.SRC)
    failures = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != END_TO_END:
        failures.append("BENCHMARK.json end_to_end differs from common.END_TO_END")
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != PER_LAYER:
        failures.append("BENCHMARK.json per_layer differs from common.PER_LAYER")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    work_root = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
    try:
        for workload, config in TINY.items():
            first = run.run_workload(config, 1, 2, True, workdir)
            again = run.run_workload(config, 1, 2, True, workdir)
            other = run.run_workload(config, 2, 2, True, workdir)
            for report in (first, again, other):
                failures += [f"{workload}: {p}" for p in report.problems]
                if report.failed:
                    failures.append(f"{workload}: {report.failed} failed operations")
            a, b = deterministic(first.layers, workload), deterministic(again.layers, workload)
            drift = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
            if drift:
                failures.append(f"{workload}: counters differ across runs: {drift}")
            if first.inputs != again.inputs:
                failures.append(f"{workload}: one seed gave two different inputs")
            if first.inputs == other.inputs:
                failures.append(f"{workload}: seeds 1 and 2 gave the same inputs")
            busy = [name for name, value in a.items() if value]
            print(f"{workload}: {len(a)} counters repeat exactly ({len(busy)} non-zero), "
                  f"inputs {first.inputs} / {other.inputs}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(work_root)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
