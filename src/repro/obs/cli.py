"""``obs`` CLI: render trace files into latency breakdowns.

Wired into the main entry point::

    python -m repro obs report benchmarks/results/trace
    python -m repro obs report trace-1234.jsonl --format markdown --top 10

``report`` accepts a single trace file or a directory of per-pid trace
files (the default sink layout under ``REPRO_TRACE_DIR``); formats
mirror ``scenarios report`` (table/csv/markdown).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs import report as report_mod
from repro.obs.trace import trace_dir


def _cmd_report(args: argparse.Namespace) -> int:
    path = args.path or trace_dir()
    try:
        return report_mod.render(path, fmt=args.format, top=args.top)
    except FileNotFoundError:
        print(f"no trace at {path}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bad trace: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Observability plane: render trace files into latency reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="render a trace file/dir into latency breakdowns"
    )
    p_report.add_argument(
        "path",
        nargs="?",
        help="trace .jsonl file or directory of per-pid traces "
        "(default: the REPRO_TRACE_DIR sink)",
    )
    p_report.add_argument(
        "--format",
        choices=["table", "csv", "markdown"],
        default="table",
        help="output format: human-readable table (default), csv, or markdown",
    )
    p_report.add_argument(
        "--top", type=int, default=20, help="span names / slowest cells to show"
    )
    p_report.set_defaults(func=_cmd_report)

    return parser


def obs_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``obs`` subcommand family."""
    args = build_parser().parse_args(argv)
    return args.func(args)
