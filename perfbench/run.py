"""The repository's benchmark: solver and serving workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``solve-dense``  — ``api.color_edges_local`` on a random 64-regular graph,
  n=512 (the defective-split recursion does most of the work);
* ``solve-sparse`` — the same pipeline and edge count at n=4096, Δ=8 (the
  greedy leaf, the edge schedule and Linial do the work);
* ``serve-churn``  — the E12 delta/read mix against a daemon, one lockstep
  connection (repair, fallback, journal and rebase do the work);
* ``serve-hot-reads`` — a Pareto-skewed read-only stream, two connections
  (the result cache, the codecs and the socket do the work).

The amount of work is fixed by the workload and ``--seconds`` (about that
many seconds of measurement on a 2-core x86 container), so a seed always
produces the same inputs and the same counters.  A run and its daemon
share one core at a time and move to the next core every half second
(``common.CoreRotator``), and the end-to-end times are scaled to a
reference host speed measured by a fixed kernel run between units of work
(``common.Calibrator``).  ``--trace 0`` prints the end-to-end metrics
(``op_ms``, ``work_per_s``, ``setup_s``: see ``common.END_TO_END``;
``layer_map.json`` says what each means per workload) plus the named
per-workload timings as measured (medians, p99s, whole-phase rates) with
their sample counts and the host slowdown; ``--trace 1`` runs the same work untraced and then traced,
at half size each, and prints the per-layer metrics (layer self time,
calls and work counters, round labels, tracing overhead).  The last line
of standard output is the JSON result; the exit code is 1 when any output
check fails and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: ``ops_per_s`` sizes a run: solves (solver), deltas (serve-churn) or
#: reads (serve-hot-reads) per second of ``--seconds``.  At ``--seconds 12``
#: serve-churn sends 2000 deltas (960 in each pass of a traced run): the
#: daemon folds its overlay every ~600 deltas, and both lengths end well
#: between two folds, so every seed folds equally often.
WORKLOADS = {
    "solve-dense": {"kind": "solver", "n": 512, "degree": 64, "ops_per_s": 1.1, "min_ops": 5},
    "solve-sparse": {"kind": "solver", "n": 4096, "degree": 8, "ops_per_s": 7.0, "min_ops": 5},
    "serve-churn": {
        "kind": "serving", "mix": "churn", "n": 20000, "degree": 8, "connections": 1,
        "ops_per_s": 170.0, "min_ops": 320,
    },
    "serve-hot-reads": {
        "kind": "serving", "mix": "hot", "n": 20000, "degree": 8, "connections": 2,
        "ops_per_s": 10000.0, "min_ops": 2000,
    },
}


def run_workload(config, seed: int, seconds: float, trace: bool, workdir: str):
    """Run one workload; returns the filled :class:`common.Report`."""
    from common import Report

    report = Report()
    if config["kind"] == "solver":
        import solver_bench

        solver_bench.run(config, seed, seconds, trace, report)
    else:
        import serving_bench

        serving_bench.run(config, seed, seconds, trace, report, workdir)
    return report


def result_line(report, trace: bool) -> str:
    from common import END_TO_END, PER_LAYER

    if trace:
        metrics = {
            name: {"value": report.layers.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": report.metrics[name], "unit": unit}
            for name, unit in END_TO_END
            if name in report.metrics
        }
    return json.dumps(
        {
            "correct": report.correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    trace = bool(args.trace)
    # A terminated run still unwinds, so it stops the daemon it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    from common import CoreRotator

    try:
        with CoreRotator():
            report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace,
                                  workdir)
    except Exception:  # noqa: BLE001 - a crashed run is reported as a failed run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(work_root)
    for line in report.lines:
        print(line)
    if trace:
        print("per-layer metrics (traced pass):")
        for name, value in sorted(report.layers.items()):
            print(f"  {name:<48} {value:.6g}")
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"attempted {report.attempted}, failed {report.failed}, "
          f"checks {'ok' if report.correct else 'FAILED'}")
    print(result_line(report, trace))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
