"""Command line interface.

Run one of the edge-coloring algorithms on a generated graph and print a
summary, e.g.::

    repro-edge-coloring --algorithm local --family random-regular --n 64 --degree 8

The ``scenarios`` subcommand family exposes the experiment runtime
(:mod:`repro.runtime`) — the scenario registry, the sharded executor and
the JSONL result store::

    python -m repro scenarios list
    python -m repro scenarios run e1_sweep --workers 4 --resume
    python -m repro scenarios report e1_sweep
    python -m repro scenarios diff left.jsonl right.jsonl

The ``serve`` / ``query`` pair exposes the serving plane
(:mod:`repro.serving`): ``serve`` is the offline build (graph →
persistent coloring artifact), ``query`` answers batched lookups and
delta requests against a saved artifact::

    python -m repro serve --family random-regular --n 1000 --degree 8 --out art.json
    python -m repro query art.json --request '{"op": "color", "u": 0, "v": 12}'
    python -m repro query art.json --request '{"op": "insert", "u": 3, "v": 9}' --save

``serve`` also fronts the long-lived daemon and journal maintenance::

    python -m repro serve --listen 127.0.0.1:0 --artifact art.json
    python -m repro serve --compact --artifact art.json

The ``obs`` subcommand family renders traces from the observability
plane (:mod:`repro.obs`) — enable with ``REPRO_TRACE=1``, then::

    python -m repro obs report benchmarks/results/trace
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro import api
from repro.analysis.experiments import run_algorithm_suite
from repro.analysis.tables import format_records
from repro.graphs import generators
from repro.graphs.core import Graph


def build_graph(family: str, n: int, degree: int, probability: float, seed: int) -> Graph:
    """Build the requested workload graph."""
    if family == "random-regular":
        return generators.random_regular_graph(n, degree, seed=seed)
    if family == "regular-bipartite":
        graph, _sides = generators.regular_bipartite_graph(n // 2, degree, seed=seed)
        return graph
    if family == "erdos-renyi":
        return generators.erdos_renyi_graph(n, probability, seed=seed)
    if family == "cycle":
        return generators.cycle_graph(n)
    if family == "hypercube":
        return generators.hypercube_graph(max(1, degree))
    if family == "grid":
        side = max(2, int(round(n ** 0.5)))
        return generators.grid_graph(side, side)
    raise ValueError(f"unknown graph family {family}")


def serve_main(argv: list) -> int:
    """``repro serve``: build an artifact, run the daemon, or compact a journal.

    Three modes share the subcommand:

    * ``--out PATH`` (offline build): graph → persistent coloring artifact;
    * ``--listen [HOST:PORT] --artifact PATH`` (daemon): serve the
      newline-delimited JSON protocol until a ``shutdown`` op or
      SIGTERM/SIGINT, journaling each absorbed delta and compacting the
      journal on the way out;
    * ``--compact --artifact PATH``: fold ``PATH.journal`` into the
      artifact JSON and exit (the offline analogue of graceful shutdown).
    """
    from repro.knobs import add_flag
    from repro.serving import build_artifact

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Offline build, serving daemon, or journal compaction",
    )
    parser.add_argument(
        "--family",
        choices=["random-regular", "regular-bipartite", "erdos-renyi", "cycle", "hypercube", "grid"],
        default="random-regular",
    )
    parser.add_argument("--n", type=int, default=64, help="number of nodes")
    parser.add_argument("--degree", type=int, default=8, help="degree parameter Δ")
    parser.add_argument("--probability", type=float, default=0.1, help="edge probability for Erdős–Rényi")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="artifact JSON output path (offline build mode)")
    parser.add_argument(
        "--listen",
        nargs="?",
        const="127.0.0.1:0",
        metavar="HOST:PORT",
        help="run the serving daemon on HOST:PORT (port 0 picks a free port)",
    )
    parser.add_argument(
        "--artifact",
        help="existing artifact JSON to serve (--listen) or compact (--compact)",
    )
    parser.add_argument(
        "--compact",
        action="store_true",
        help="fold the artifact's delta journal into its JSON and exit",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="daemon mode: skip per-delta journal appends (durable only on graceful shutdown)",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync journal appends and artifact saves (survive OS death, not just SIGKILL)",
    )
    add_flag(
        parser,
        "repair_path",
        default="auto",
        help="daemon mode: which repair twin absorbs delta requests",
    )
    parser.add_argument(
        "--radius-limit",
        type=int,
        default=None,
        help="daemon mode: incremental worklist budget before recompute fallback",
    )
    parser.add_argument(
        "--rebase-policy",
        choices=["auto", "off"],
        default="auto",
        help="daemon mode: fold the delta overlay when it outgrows the base",
    )
    parser.add_argument(
        "--journal-max-bytes",
        type=int,
        default=None,
        help="daemon mode: rotate the delta journal when it reaches this size",
    )
    parser.add_argument(
        "--journal-max-records",
        type=int,
        default=None,
        help="daemon mode: rotate the delta journal when it holds this many records",
    )
    args = parser.parse_args(argv)

    if args.compact:
        from repro.serving import compact_artifact

        if not args.artifact:
            print("--compact requires --artifact PATH", file=sys.stderr)
            return 2
        folded = compact_artifact(args.artifact, fsync=args.fsync)
        print(f"compacted {args.artifact}: {folded} journal records folded")
        return 0

    if args.listen is not None:
        from repro.serving.daemon import run_daemon

        if not args.artifact:
            print("--listen requires --artifact PATH", file=sys.stderr)
            return 2
        return run_daemon(
            args.artifact,
            args.listen,
            journal=not args.no_journal,
            fsync=args.fsync,
            repair_path=args.repair_path,
            radius_limit=args.radius_limit,
            rebase_policy=args.rebase_policy,
            journal_max_bytes=args.journal_max_bytes,
            journal_max_records=args.journal_max_records,
        )

    if not args.out:
        print("offline build requires --out PATH", file=sys.stderr)
        return 2
    graph = build_graph(args.family, args.n, args.degree, args.probability, args.seed)
    artifact = build_artifact(graph)
    artifact.save(args.out)
    stats = artifact.stats()
    print(
        f"built {args.out}: n={stats['num_nodes']} m={stats['num_edges']} "
        f"colors={stats['num_colors']} epoch={stats['epoch']}"
    )
    return 0


def query_main(argv: list) -> int:
    """``repro query``: answer requests against a saved artifact.

    Prints one JSON response per request, in order.  Delta requests
    mutate the in-memory artifact; ``--save`` writes the mutated
    artifact back to disk after the batch.
    """
    from repro.knobs import add_flag
    from repro.serving import ColoringArtifact, ServingSession, protocol

    parser = argparse.ArgumentParser(
        prog="repro query", description="Serve queries/deltas against a coloring artifact"
    )
    parser.add_argument("artifact", help="artifact JSON written by 'repro serve'")
    parser.add_argument(
        "--request",
        action="append",
        default=[],
        metavar="JSON",
        help="a request object (repeatable); e.g. '{\"op\": \"color\", \"u\": 0, \"v\": 1}'",
    )
    parser.add_argument(
        "--requests-file",
        help="file with one JSON request per line (processed after --request)",
    )
    add_flag(
        parser, "repair_path", default="auto", help="which repair twin absorbs delta requests"
    )
    parser.add_argument(
        "--radius-limit",
        type=int,
        default=None,
        help="incremental worklist budget before falling back to recompute",
    )
    parser.add_argument(
        "--save",
        action="store_true",
        help="write the (possibly mutated) artifact back to its file",
    )
    parser.add_argument(
        "--journal",
        action="store_true",
        help="with --save: append absorbed deltas to the artifact's journal "
        "instead of rewriting the full JSON",
    )
    args = parser.parse_args(argv)

    lines = list(args.request)
    if args.requests_file:
        with open(args.requests_file, "r", encoding="utf-8") as handle:
            lines.extend(line.strip() for line in handle if line.strip())
    if not lines:
        print("no requests given (use --request or --requests-file)", file=sys.stderr)
        return 2

    artifact = ColoringArtifact.load(args.artifact)
    session = ServingSession(
        artifact, repair_path=args.repair_path, radius_limit=args.radius_limit
    )
    failures = 0
    for line in lines:
        # The protocol layer turns a malformed line into the same
        # structured error answer a daemon would send, instead of a
        # traceback — the CLI speaks repro-serving/v1 like everyone else.
        try:
            request = protocol.decode_request_line(line)
        except protocol.ProtocolError as exc:
            response = exc.response.to_wire()
        else:
            response = session.query(protocol.strip_envelope(request))
        print(protocol.encode_response(response))
        if not response.get("ok"):
            failures += 1
    if args.save:
        artifact.save(args.artifact, journal=args.journal)
    return 1 if failures else 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "scenarios":
        from repro.runtime.cli import scenarios_main

        return scenarios_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "query":
        return query_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])

    parser = argparse.ArgumentParser(description="Distributed edge coloring reproduction")
    parser.add_argument(
        "--algorithm",
        choices=["local", "congest", "bipartite", "compare"],
        default="local",
        help="which algorithm to run ('compare' runs the full suite)",
    )
    parser.add_argument(
        "--family",
        choices=["random-regular", "regular-bipartite", "erdos-renyi", "cycle", "hypercube", "grid"],
        default="random-regular",
    )
    parser.add_argument("--n", type=int, default=64, help="number of nodes")
    parser.add_argument("--degree", type=int, default=8, help="degree parameter Δ")
    parser.add_argument("--probability", type=float, default=0.1, help="edge probability for Erdős–Rényi")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.5)
    args = parser.parse_args(argv)

    graph = build_graph(args.family, args.n, args.degree, args.probability, args.seed)
    print(f"graph: {args.family} n={graph.num_nodes} m={graph.num_edges} Δ={graph.max_degree}")

    if args.algorithm == "compare":
        records = run_algorithm_suite(graph, experiment="cli", seed=args.seed)
        print(format_records(records))
        return 0

    if args.algorithm == "local":
        outcome = api.color_edges_local(graph)
    elif args.algorithm == "congest":
        outcome = api.color_edges_congest(graph, epsilon=args.epsilon)
    else:
        outcome = api.color_edges_bipartite(graph, epsilon=args.epsilon)
    print(
        f"{outcome.algorithm}: colors={outcome.num_colors} bound={outcome.bound:.1f} "
        f"rounds={outcome.rounds} proper={outcome.is_proper}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
