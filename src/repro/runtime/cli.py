"""``scenarios`` CLI: list, run, report and diff registry scenarios.

Wired into the main entry point (``python -m repro scenarios ...`` or the
``repro-edge-coloring scenarios ...`` console script)::

    python -m repro scenarios list
    python -m repro scenarios run e1_sweep --workers 4
    python -m repro scenarios run e1_sweep --resume        # zero cells second time
    python -m repro scenarios run e1_sweep --timeout 30 --retries 1
    python -m repro scenarios run e1_sweep --resume --retry-errors
    python -m repro scenarios report e1_sweep
    python -m repro scenarios diff a.jsonl b.jsonl         # exit 1 on mismatch
    python -m repro scenarios compact a.jsonl              # drop superseded rows

``run`` appends rows to the scenario's JSONL store (default
``benchmarks/results/scenarios/<name>.jsonl`` under the working
directory, overridable with ``--out`` / ``REPRO_RESULTS_DIR``) and exits
non-zero when any cell was quarantined as an error row — a sweep only
exits 0 when every selected cell has a successful result.  ``--timeout``
and ``--retries`` make the run's
:class:`~repro.runtime.spec.RetryPolicy`; ``--resume`` skips stored
rows, error rows included, and ``--resume --retry-errors`` re-executes
exactly the quarantined cells.  ``diff`` compares two stores modulo the
timing fields and error rows — the check CI uses to hold the workers=1
vs workers=2 determinism contract.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.knobs import KNOBS, add_flag
from repro.obs.report import write_table
from repro.runtime import registry
from repro.runtime.executor import run_scenario
from repro.runtime.spec import RetryPolicy, resolve_knobs
from repro.runtime.store import ResultStore, default_store_path, diff_rows, is_error_row


def _cmd_list(args: argparse.Namespace) -> int:
    specs = registry.REGISTRY.specs()
    print(f"{'scenario':<24} {'cells':>5} {'quick':>5}  {'runner':<22} title")
    for spec in specs:
        if args.tag and args.tag not in spec.tags:
            continue
        print(
            f"{spec.name:<24} {spec.cell_count():>5} {spec.cell_count(quick=True):>5}  "
            f"{spec.runner:<22} {spec.title}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = registry.get(args.scenario)
    store = ResultStore(args.out or default_store_path(spec.name), fsync=args.fsync)
    knobs = resolve_knobs(**{name: getattr(args, name) for name in KNOBS})
    report = run_scenario(
        spec,
        workers=args.workers,
        quick=args.quick,
        resume=args.resume,
        store=store,
        knobs=knobs,
        log=print if not args.no_progress else None,
        retry=RetryPolicy(timeout_seconds=args.timeout, max_retries=args.retries),
        retry_errors=args.retry_errors,
    )
    print(
        f"{spec.name}: {report.executed} executed, {report.skipped} cached, "
        f"{report.errored} errored, {report.wall_seconds:.2f}s wall "
        f"(workers={args.workers}) -> {store.path}"
    )
    if report.errored:
        print(
            f"{report.errored} cell(s) quarantined as error rows; "
            "re-run with `--resume --retry-errors` to re-attempt them",
            file=sys.stderr,
        )
        return 1
    return 0


#: Columns of the machine-readable report formats, in order.  The
#: ``*_s`` columns are the setup/solve/verify phase split runners record
#: in ``timing["phases"]`` (empty for runners without one) — timing
#: fields, so present in reports but never in diffs.
_REPORT_COLUMNS = (
    "spec",
    "cell_index",
    "status",
    "n",
    "delta",
    "colors",
    "rounds",
    "messages",
    "verified",
    "wall_seconds",
    "setup_s",
    "solve_s",
    "verify_s",
)


def _report_records(rows):
    """Flatten store rows into csv/markdown table rows, in column order."""
    records = []
    for row in sorted(
        rows,
        key=lambda r: (r.get("spec", "?"), r.get("cell_index", -1), r.get("key", "")),
    ):
        result = row.get("result", {}) or {}
        error = row.get("error", {}) or {}
        phases = row.get("timing", {}).get("phases", {}) or {}
        record = {
            "spec": row.get("spec", "?"),
            "cell_index": row.get("cell_index"),
            "status": "error" if is_error_row(row) else "ok",
            "verified": result.get("verified"),
            "wall_seconds": row.get("timing", {}).get("wall_seconds"),
            "setup_s": phases.get("setup"),
            "solve_s": phases.get("solve"),
            "verify_s": phases.get("verify"),
        }
        for field in ("n", "delta", "colors", "rounds", "messages"):
            record[field] = result.get(field)
        if is_error_row(row):
            record["messages"] = error.get("message")
        records.append([record[column] for column in _REPORT_COLUMNS])
    return records


def _render_report_table(rows) -> None:
    by_spec = {}
    for row in rows:
        by_spec.setdefault(row.get("spec", "?"), []).append(row)
    for name, spec_rows in sorted(by_spec.items()):
        walls = []
        for row in spec_rows:
            timing = row.get("timing", {})
            # A recorded 0.0 best-of-N wall is a legitimate value; only
            # fall back to the whole-cell wall when no per-run wall exists.
            wall = timing.get("wall_seconds")
            walls.append(timing.get("cell_wall_seconds", 0.0) if wall is None else wall)
        verified = sum(1 for row in spec_rows if row.get("result", {}).get("verified"))
        errors = sum(1 for row in spec_rows if is_error_row(row))
        keys = {row.get("key") for row in spec_rows}
        print(
            f"{name}: {len(spec_rows)} rows ({len(keys)} distinct cells), "
            f"{verified} verified, {errors} error rows, "
            f"total wall {sum(w for w in walls if w):.3f}s"
        )
        for row in sorted(spec_rows, key=lambda r: (r.get("cell_index", -1), r.get("key", ""))):
            timing = row.get("timing", {})
            wall = timing.get("wall_seconds")
            wall_note = f"  {wall}s" if wall is not None else ""
            phases = timing.get("phases") or {}
            if phases:
                split = "/".join(
                    f"{phase}={phases[phase]}" for phase in ("setup", "solve", "verify")
                    if phase in phases
                )
                wall_note += f"  ({split})"
            if is_error_row(row):
                error = row.get("error", {})
                print(
                    f"  [{row.get('cell_index')}] ERROR {error.get('type')} "
                    f"after {error.get('attempts')} attempt(s): {error.get('message', '')}"
                )
                continue
            result = row.get("result", {})
            headline = {
                k: result[k]
                for k in ("n", "delta", "colors", "rounds", "messages")
                if k in result
            }
            print(f"  [{row.get('cell_index')}] {headline}{wall_note}")


def _cmd_report(args: argparse.Namespace) -> int:
    path = args.path
    if path is None or not path.endswith(".jsonl"):
        # Treat the argument as a scenario name.
        name = path or args.scenario
        if name is None:
            print("report needs a scenario name or a .jsonl path", file=sys.stderr)
            return 2
        path = default_store_path(name)
    rows = ResultStore(path).rows()
    if not rows:
        print(f"no rows in {path}")
        return 1
    if args.format == "table":
        _render_report_table(rows)
    else:
        write_table(args.format, _REPORT_COLUMNS, _report_records(rows))
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    path = args.path
    if not path.endswith(".jsonl"):
        path = default_store_path(path)
    store = ResultStore(path)
    before = len(store.rows())
    removed = store.compact()
    print(f"{path}: {before} rows -> {before - removed} rows ({removed} superseded removed)")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    left = ResultStore(args.left).rows()
    right = ResultStore(args.right).rows()
    problems = diff_rows(left, right, ignore_knobs=args.ignore_knobs)
    excluded = "timing+knobs" if args.ignore_knobs else "timing"
    if problems:
        print(f"{len(problems)} difference(s) ({excluded} excluded):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"identical modulo {excluded}: {len(left)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro scenarios",
        description="Scenario registry runtime: declarative experiment orchestration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios with cell counts")
    p_list.add_argument("--tag", help="only scenarios carrying this tag")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run a scenario's cells")
    p_run.add_argument("scenario", help="registry name (see `scenarios list`)")
    p_run.add_argument("--workers", type=int, default=1, help="worker pool size (1 = serial)")
    p_run.add_argument("--quick", action="store_true", help="quick cell subset only")
    p_run.add_argument(
        "--resume", action="store_true", help="skip cells already in the result store"
    )
    p_run.add_argument(
        "--retry-errors",
        dest="retry_errors",
        action="store_true",
        help="with --resume: re-execute quarantined cells instead of skipping their error rows",
    )
    p_run.add_argument(
        "--timeout",
        type=float,
        help="per-attempt wall-clock limit in seconds (workers > 1 only; default: none)",
    )
    p_run.add_argument(
        "--retries",
        type=int,
        default=RetryPolicy.max_retries,
        help="extra attempts before quarantining a failing cell (default: %(default)s)",
    )
    p_run.add_argument(
        "--fsync", action="store_true", help="fsync the store after every appended row"
    )
    p_run.add_argument("--out", help="JSONL store path (default: benchmarks/results/scenarios/)")
    for name in KNOBS:
        add_flag(p_run, name)
    p_run.add_argument("--no-progress", action="store_true", help="suppress per-cell lines")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="summarize a result store")
    p_report.add_argument("path", nargs="?", help="scenario name or .jsonl path")
    p_report.add_argument("--scenario", help="scenario name (alternative to path)")
    p_report.add_argument(
        "--format",
        choices=["table", "csv", "markdown"],
        default="table",
        help="output format: human-readable table (default), csv, or a markdown pipe table",
    )
    p_report.set_defaults(func=_cmd_report)

    p_diff = sub.add_parser(
        "diff", help="compare two result stores modulo timing (exit 1 on mismatch)"
    )
    p_diff.add_argument("left")
    p_diff.add_argument("right")
    p_diff.add_argument(
        "--ignore-knobs",
        action="store_true",
        help="match rows by cell identity and exclude the engine knobs "
        "from the comparison (cross-plane/engine equivalence checks)",
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_compact = sub.add_parser(
        "compact", help="atomically drop superseded duplicate rows from a store"
    )
    p_compact.add_argument("path", help="scenario name or .jsonl path")
    p_compact.set_defaults(func=_cmd_compact)

    return parser


def scenarios_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``scenarios`` subcommand family."""
    args = build_parser().parse_args(argv)
    return args.func(args)
