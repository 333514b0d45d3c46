"""End-to-end perf harness: regenerate ``benchmarks/BENCH_e2e.json``.

Usage (from the repository root)::

    python benchmarks/run_benchmarks.py           # full sweep
    python benchmarks/run_benchmarks.py --quick   # fast subset

The harness runs the perf scenarios of the :mod:`repro.runtime` registry
(``e1_sweep`` / ``e1_large`` / ``e1_list`` / ``e6_congest`` /
``e8_linial`` / ``serving_churn`` / ``serving_daemon``, each cell timed
best-of-N with generation outside the timer, every output verified by
its runner) and writes ``BENCH_e2e.json`` containing

* ``after`` — the fresh records ``{scenario, n, delta, wall_seconds,
  rounds, messages}`` for the current working tree,
* ``before`` — the seed-revision records, frozen in
  ``benchmarks/seed_baseline.json``,
* ``summary`` — per-scenario wall totals and before/after speedups,
* ``env`` — machine/environment metadata (python and numpy versions,
  platform, cpu count, the engine knobs) so cross-PR trajectories are
  comparable.

Later PRs extend the trajectory by re-running this harness and beating
the recorded ``after`` numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

BASELINE_PATH = os.path.join(HERE, "seed_baseline.json")
OUTPUT_PATH = os.path.join(HERE, "BENCH_e2e.json")


def warmup() -> None:
    """Warm the process (imports, code objects, evaluation caches) with a
    tiny end-to-end run so the first measured cell is not penalized."""
    from repro import api
    from repro.graphs import generators

    graph = generators.random_regular_graph(32, 6, seed=1)
    api.color_edges_local(graph)
    api.color_edges_congest(graph, epsilon=0.5)


def measure(quick: bool, log=print) -> list:
    """Measure the current tree through the scenario registry.

    Runs the perf scenarios serially (timing cells must not contend for
    cores) and converts the runtime rows into the
    ``{scenario, n, delta, wall_seconds, rounds, messages}`` records so
    the BENCH trajectory stays comparable across PRs.
    """
    from repro.runtime import get, run_scenario
    from repro.runtime.scenarios import PERF_SCENARIOS

    warmup()
    records = []
    for legacy_name, registry_name in PERF_SCENARIOS:
        report = run_scenario(get(registry_name), workers=1, quick=quick)
        for row in report.rows:
            result = row["result"]
            record = {
                "scenario": legacy_name,
                "n": result["n"],
                "delta": result.get("delta", row["params"].get("degree", 0)),
                "wall_seconds": row["timing"]["wall_seconds"],
                "rounds": result["rounds"],
                "messages": result.get("messages"),
                "verified": bool(result.get("verified")),
            }
            # The concurrent-clients daemon cell reports its speedup over
            # the serialized client schedule; surface it in the BENCH
            # trajectory (the >=2x acceptance gate reads it here).
            if "clients" in result:
                record["clients"] = result["clients"]
                record["speedup"] = row["timing"].get("speedup")
            records.append(record)
            if log:
                log(
                    f"{record['scenario']:>10}  n={record['n']:>4}  Δ={record['delta']:>2}  "
                    f"{record['wall_seconds']:>8.3f}s  rounds={record['rounds']}"
                )
    return records


def environment_metadata() -> dict:
    """Machine/environment fingerprint recorded next to the numbers.

    Wall-clock trajectories are only comparable across PRs when the
    machine state is known; this pins the interpreter, numpy, platform,
    core count, the engine knobs the run executed under, and the git
    revision the numbers were measured at (so a committed BENCH record
    can always be traced back to the exact tree that produced it).
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    try:
        git_sha = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
    except Exception:  # pragma: no cover - git-less environments
        git_sha = None
    # One source of truth for the knobs: the table-driven resolver the
    # runtime uses for its cache keys.  The metadata block is only
    # written for the current tree, where repro.runtime always exists.
    from repro.runtime.spec import resolve_knobs

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "git_sha": git_sha,
        **resolve_knobs().as_dict(),
    }


def cell_key(record: dict) -> tuple:
    """Identity of a measured cell across BENCH records.

    ``(scenario, n, delta)`` alone is not unique: the E13 concurrent-
    clients cell shares its graph with the kill/replay cell, so the
    ``clients`` count joins the key (absent on every other cell and on
    seed-baseline records, where it is ``None``).
    """
    return (record["scenario"], record["n"], record["delta"], record.get("clients"))


def check_regressions(
    committed: list, fresh: list, tolerance: float, log=print
) -> list:
    """Compare fresh cells against the committed BENCH record.

    Matches cells by ``(scenario, n, delta)`` and compares per-scenario
    wall totals over the matched cells; a scenario whose fresh total
    exceeds ``tolerance ×`` its committed total is a regression.  The
    tolerance is deliberately generous — CI machines differ from the
    box the committed numbers came from — so the gate only catches a
    perf PR being *undone*, not ordinary machine noise.  Returns the
    list of regression descriptions (empty = pass).
    """
    committed_index = {cell_key(r): r for r in committed}
    by_scenario: dict = {}
    for record in fresh:
        old = committed_index.get(cell_key(record))
        if old is None:
            continue
        entry = by_scenario.setdefault(
            record["scenario"], {"committed": 0.0, "fresh": 0.0, "cells": 0}
        )
        entry["committed"] += old["wall_seconds"]
        entry["fresh"] += record["wall_seconds"]
        entry["cells"] += 1
    regressions = []
    for name in sorted(by_scenario):
        entry = by_scenario[name]
        committed_total = entry["committed"]
        fresh_total = entry["fresh"]
        ratio = fresh_total / committed_total if committed_total > 0 else 1.0
        status = "REGRESSION" if ratio > tolerance else "ok"
        if log:
            log(
                f"perf-gate {name:>10}: committed {committed_total:.3f}s  "
                f"fresh {fresh_total:.3f}s  ratio x{ratio:.2f} over "
                f"{entry['cells']} cells  [{status}]"
            )
        if ratio > tolerance:
            regressions.append(
                f"{name}: {fresh_total:.3f}s vs committed {committed_total:.3f}s "
                f"(x{ratio:.2f} > tolerance x{tolerance})"
            )
    if not by_scenario and log:
        log("perf-gate: no matching cells between fresh run and committed record")
    return regressions


def summarize(before: list, after: list) -> dict:
    """Per-scenario wall totals and before/after speedups (matched cells only)."""
    before_index = {cell_key(r): r for r in before}
    names = sorted({r["scenario"] for r in after})
    summary = {}
    for name in names:
        cells = [r for r in after if r["scenario"] == name]
        matched = [
            (before_index[cell_key(r)], r) for r in cells if cell_key(r) in before_index
        ]
        after_total = sum(r["wall_seconds"] for r in cells)
        entry = {"after_wall_seconds": round(after_total, 4), "cells": len(cells)}
        if matched:
            before_total = sum(b["wall_seconds"] for b, _ in matched)
            matched_after = sum(r["wall_seconds"] for _, r in matched)
            entry["before_wall_seconds"] = round(before_total, 4)
            entry["speedup"] = (
                round(before_total / matched_after, 2) if matched_after > 0 else None
            )
        summary[name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run the fast subset only")
    parser.add_argument(
        "--check-regression",
        type=float,
        metavar="FACTOR",
        default=None,
        help="exit 2 if any scenario's matched-cell wall total exceeds "
        "FACTOR x the committed BENCH_e2e.json total (the CI perf gate; "
        "the committed record is read before it is overwritten)",
    )
    args = parser.parse_args()

    committed_after: list = []
    if args.check_regression is not None and os.path.exists(OUTPUT_PATH):
        with open(OUTPUT_PATH, "r", encoding="utf-8") as handle:
            committed_after = json.load(handle).get("after", [])

    records = measure(quick=args.quick)

    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        before = json.load(handle)["records"]

    payload = {
        "before": before,
        "after": records,
        "summary": summarize(before, records),
        "baseline_source": "frozen-seed_baseline.json",
        "quick": args.quick,
        "env": environment_metadata(),
    }
    with open(OUTPUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUTPUT_PATH}")
    for name, entry in payload["summary"].items():
        speedup = entry.get("speedup")
        note = f"  speedup ×{speedup}" if speedup else ""
        print(f"{name:>10}: {entry['after_wall_seconds']:.3f}s over {entry['cells']} cells{note}")

    if args.check_regression is not None:
        if not committed_after:
            print("perf-gate: no committed BENCH_e2e.json to compare against")
            return 2
        regressions = check_regressions(committed_after, records, args.check_regression)
        if regressions:
            print("perf-gate FAILED:")
            for regression in regressions:
                print(f"  {regression}")
            return 2
        print(f"perf-gate passed (tolerance x{args.check_regression})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
