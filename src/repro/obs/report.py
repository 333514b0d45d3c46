"""Render a ``repro-trace/v1`` trace into latency breakdowns.

The report aggregates span events three ways:

- **per span name** — count, total, p50/p95/max wall seconds (the
  "where did the time go" table);
- **per scenario** — ``runtime.cell.*`` spans grouped by their ``spec``
  attribute, with the slowest cells listed;
- **repair radius** — a histogram of the ``touched`` attribute on
  ``serving.delta`` spans (how far recoloring cascades reached).

Percentiles are exact (computed from the sorted per-name samples, not
bucket bounds): a trace file is finite and already paid for, so the
report can afford to hold the durations.
"""

from __future__ import annotations

import csv
import sys
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.trace import load_trace

#: Columns of the machine-readable report formats, in order.
REPORT_COLUMNS = ("name", "count", "total_s", "p50_s", "p95_s", "max_s")


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of a non-empty sorted sequence."""
    if not samples:
        return 0.0
    index = min(len(samples) - 1, max(0, int(round(q * (len(samples) - 1)))))
    return samples[index]


def aggregate_by_name(events: Iterable[dict]) -> List[Dict[str, object]]:
    """Per-span-name latency summary rows, sorted by total time desc."""
    durations: Dict[str, List[float]] = {}
    for event in events:
        durations.setdefault(str(event.get("name", "?")), []).append(
            float(event.get("dur", 0.0))
        )
    rows = []
    for name, walls in durations.items():
        walls.sort()
        rows.append(
            {
                "name": name,
                "count": len(walls),
                "total_s": round(sum(walls), 6),
                "p50_s": round(percentile(walls, 0.50), 6),
                "p95_s": round(percentile(walls, 0.95), 6),
                "max_s": round(walls[-1], 6),
            }
        )
    rows.sort(key=lambda row: (-row["total_s"], row["name"]))
    return rows


def scenario_breakdown(events: Iterable[dict]) -> Dict[str, Dict[str, object]]:
    """Per-scenario cell latency summary from ``runtime.cell.*`` spans."""
    by_spec: Dict[str, List[dict]] = {}
    for event in events:
        if not str(event.get("name", "")).startswith("runtime.cell."):
            continue
        attrs = event.get("attrs", {}) or {}
        spec = attrs.get("spec")
        if spec:
            by_spec.setdefault(str(spec), []).append(event)
    summary: Dict[str, Dict[str, object]] = {}
    for spec, cell_events in sorted(by_spec.items()):
        walls = sorted(float(e.get("dur", 0.0)) for e in cell_events)
        slowest = sorted(cell_events, key=lambda e: -float(e.get("dur", 0.0)))[:5]
        summary[spec] = {
            "cells": len(cell_events),
            "total_s": round(sum(walls), 6),
            "p50_s": round(percentile(walls, 0.50), 6),
            "p95_s": round(percentile(walls, 0.95), 6),
            "slowest": [
                {
                    "name": e.get("name"),
                    "cell_index": (e.get("attrs", {}) or {}).get("cell_index"),
                    "dur_s": round(float(e.get("dur", 0.0)), 6),
                }
                for e in slowest
            ],
        }
    return summary


def repair_radius_histogram(events: Iterable[dict]) -> Dict[int, int]:
    """Histogram of recoloring cascade sizes from ``serving.delta`` spans."""
    histogram: Dict[int, int] = {}
    for event in events:
        if event.get("name") != "serving.delta":
            continue
        touched = (event.get("attrs", {}) or {}).get("touched")
        if isinstance(touched, int):
            histogram[touched] = histogram.get(touched, 0) + 1
    return dict(sorted(histogram.items()))


def phase_breakdown(events: Iterable[dict]) -> Dict[str, Dict[str, object]]:
    """Setup/solve/verify split from ``runtime.phase.*`` spans."""
    by_phase: Dict[str, List[float]] = {}
    for event in events:
        name = str(event.get("name", ""))
        if not name.startswith("runtime.phase."):
            continue
        by_phase.setdefault(name[len("runtime.phase."):], []).append(
            float(event.get("dur", 0.0))
        )
    summary: Dict[str, Dict[str, object]] = {}
    for phase, walls in sorted(by_phase.items()):
        walls.sort()
        summary[phase] = {
            "count": len(walls),
            "total_s": round(sum(walls), 6),
            "p50_s": round(percentile(walls, 0.50), 6),
            "p95_s": round(percentile(walls, 0.95), 6),
        }
    return summary


# ---------------------------------------------------------------- rendering
def write_table(fmt: str, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print ``rows`` under ``columns`` as ``csv`` or a ``markdown`` pipe
    table: ``None`` is an empty cell, every other value goes through
    ``str``.  The one writer of both ``report`` commands' machine formats."""
    cells = [["" if value is None else str(value) for value in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        writer.writerows(cells)
        return
    print("| " + " | ".join(columns) + " |")
    print("|" + "|".join(" --- " for _ in columns) + "|")
    for row in cells:
        print("| " + " | ".join(row) + " |")


def render_table(events: List[dict], top: int = 20) -> None:
    rows = aggregate_by_name(events)
    print(f"{len(events)} spans, {len(rows)} span names")
    print(f"{'name':<32} {'count':>6} {'total_s':>10} {'p50_s':>9} {'p95_s':>9} {'max_s':>9}")
    for row in rows[:top]:
        print(
            f"{row['name']:<32} {row['count']:>6} {row['total_s']:>10.4f} "
            f"{row['p50_s']:>9.4f} {row['p95_s']:>9.4f} {row['max_s']:>9.4f}"
        )
    phases = phase_breakdown(events)
    if phases:
        print("\nphase breakdown:")
        for phase, stats in phases.items():
            print(
                f"  {phase:<12} count={stats['count']} total={stats['total_s']:.4f}s "
                f"p50={stats['p50_s']:.4f}s p95={stats['p95_s']:.4f}s"
            )
    scenarios = scenario_breakdown(events)
    if scenarios:
        print("\nper-scenario cells:")
        for spec, stats in scenarios.items():
            print(
                f"  {spec}: {stats['cells']} cell spans, total {stats['total_s']:.4f}s, "
                f"p50 {stats['p50_s']:.4f}s, p95 {stats['p95_s']:.4f}s"
            )
            for slow in stats["slowest"]:
                print(
                    f"    slowest {slow['name']} cell_index={slow['cell_index']} "
                    f"{slow['dur_s']:.4f}s"
                )
    radius = repair_radius_histogram(events)
    if radius:
        print("\nrepair-radius histogram (serving.delta touched):")
        for touched, count in radius.items():
            print(f"  touched={touched:<6} {count}")


def render_csv(events: List[dict], top: int = 0) -> None:
    rows = aggregate_by_name(events)
    if top:
        rows = rows[:top]
    write_table("csv", REPORT_COLUMNS, ([row[col] for col in REPORT_COLUMNS] for row in rows))


def render_markdown(events: List[dict], top: int = 20) -> None:
    rows = aggregate_by_name(events)[:top]
    write_table("markdown", REPORT_COLUMNS, ([row[col] for col in REPORT_COLUMNS] for row in rows))
    radius = repair_radius_histogram(events)
    if radius:
        print()
        write_table("markdown", ("touched", "count"), radius.items())


def render(path: str, fmt: str = "table", top: int = 20) -> int:
    """Load a trace file/dir and render it; returns a process exit code."""
    events = load_trace(path)
    if not events:
        print(f"no spans in {path}")
        return 1
    if fmt == "csv":
        render_csv(events, top=0)
    elif fmt == "markdown":
        render_markdown(events, top=top)
    else:
        render_table(events, top=top)
    return 0


def summarize(path: str, top: Optional[int] = 5) -> Dict[str, object]:
    """Machine-readable report (tests, embedders)."""
    events = load_trace(path)
    return {
        "spans": len(events),
        "by_name": aggregate_by_name(events),
        "phases": phase_breakdown(events),
        "scenarios": scenario_breakdown(events),
        "repair_radius": repair_radius_histogram(events),
    }
