"""Serving workloads: a ``repro serve`` daemon in a child process, closed loop.

``serve-churn`` drives one lockstep connection with the E12 mix (one delta
in delete/insert/set_list order, then three reads).  Every response must be
``ok`` and equal, in order, to an in-process ``connect(session)`` replay of
the same stream made during set-up; after a graceful shutdown the reloaded
artifact must pass ``verify()`` and equal the replay's final coloring.

``serve-hot-reads`` drives two connections from two client threads with a
read-only, Pareto-skewed stream; every answer must equal the in-process
answer to the same request.

``op_ms`` is the mean delta round trip (serve-churn) or read round trip
(serve-hot-reads) and ``work_per_s`` the completed requests per second of
the timed phase, both at reference host speed (see
:data:`common.END_TO_END`); the medians and p99s as measured are printed.

Set-up (``setup_s``) is graph generation, ``build_artifact`` and the
artifact save: the median of :data:`SETUP_REPEATS` in-process
repetitions over seeds of the workload's graph family
(:func:`common.setup_seeds`), at reference host speed.  Daemon spawn time is reported on its own
(``serving.daemon.spawn_s``).
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import Calibrator, Report, digest, follow, setup_seeds, time_setups
from daemon_launcher import REBASE_THRESHOLD
from layers import flatten

SETUP_REPEATS = 5
READ_OPS = ("color", "node_palette", "schedule")
DELTA_OPS = ("insert", "delete", "set_list")
#: Hot-reads key universe: the Pareto rank is folded onto this many nodes,
#: so the distinct keys (3 ops per node) always fit the daemon's 1024-entry
#: result cache.
HOT_NODES = 256
PARETO_ALPHA = 1.6
#: serve-churn carries exactly one full-recompute fallback per this many
#: deltas.
FALLBACK_EVERY = 80
#: Requests per connection between two calibration pauses of the timed phase.
BLOCK = 250
#: Draws allowed for the one wanted fallback of a block.
MAX_DRAWS = 2000
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "daemon_launcher.py")


# ------------------------------------------------------------------ streams
def churn_stream(oracle, n: int, degree: int, num_deltas: int, seed: int
                 ) -> Tuple[List[Dict], int]:
    """The E12 mix: one delta (delete/insert/set_list round-robin), then
    three reads, over the evolving edge set of ``oracle`` (an in-process
    copy of the served artifact, which absorbs every accepted delta).

    About 1.6% of random deltas overflow the repair radius and fall back to
    a full recompute, which dominates stream time; left to chance, the
    fallback count alone would move throughput by ~15% between seeds.  So
    the stream is shaped by redrawing: each block of :data:`FALLBACK_EVERY`
    deltas carries exactly one fallback, at a seeded position.  A drawn
    delta that falls back where it should not (or does not where it should)
    is undone on the oracle and redrawn; the coloring is the canonical
    greedy fixed point of the edge set and lists, so an undo restores it
    exactly.  After :data:`MAX_DRAWS` draws for a wanted fallback the last
    draw is kept as it is.  The oracle repairs with an unbounded radius
    (the same fixed point, without paying for recomputes) and reads off
    whether the served repair, bounded at ``DEFAULT_RADIUS_LIMIT`` worklist
    pops, would have fallen back.  Returns the requests and the fallback
    count the served stream must show.
    """
    from repro.serving.repair import DEFAULT_RADIUS_LIMIT

    def apply(method, op: str, *args) -> bool:
        report = method(*args, radius_limit=sys.maxsize)
        pops = report.touched - (op == "insert")  # an insert also counts its own edge
        return pops > DEFAULT_RADIUS_LIMIT

    rng = random.Random(f"churn:{seed}")
    present = sorted(oracle.colors)
    present_set = set(present)
    list_size = 2 * degree + 4
    color_space = max(4 * degree, list_size + 2)
    requests: List[Dict] = []
    fallbacks = 0
    for i in range(num_deltas):
        kind = ("delete", "insert", "set_list")[i % 3]
        if i % FALLBACK_EVERY == 0:
            wanted_at = i + rng.randrange(FALLBACK_EVERY)
        wanted = i == wanted_at
        draws = 0
        while True:
            draws += 1
            if kind == "delete":
                idx = rng.randrange(len(present))
                u, v = present[idx]
                request = {"op": "delete", "u": u, "v": v}
                falls_back = apply(oracle.delete, "delete", u, v)
                undo = (oracle.insert, "insert", u, v)
            elif kind == "insert":
                while True:
                    u, v = rng.randrange(n), rng.randrange(n)
                    u, v = min(u, v), max(u, v)
                    if u != v and (u, v) not in present_set:
                        break
                request = {"op": "insert", "u": u, "v": v}
                falls_back = apply(oracle.insert, "insert", u, v)
                undo = (oracle.delete, "delete", u, v)
            else:
                u, v = present[rng.randrange(len(present))]
                previous = oracle.lists.get((u, v))
                demand = sorted(rng.sample(range(color_space), list_size))
                request = {"op": "set_list", "u": u, "v": v, "colors": demand}
                falls_back = apply(oracle.set_list, "set_list", u, v, demand)
                undo = (oracle.set_list, "set_list", u, v, previous)
            if falls_back == wanted or (wanted and draws >= MAX_DRAWS):
                break
            apply(*undo)
        fallbacks += falls_back
        if kind == "delete":
            present[idx] = present[-1]
            present.pop()
            present_set.discard((u, v))
        elif kind == "insert":
            present.append((u, v))
            present_set.add((u, v))
        requests.append(request)
        for _ in range(3):
            pick = rng.randrange(3)
            if pick == 0:
                u, v = present[rng.randrange(len(present))]
                requests.append({"op": "color", "u": u, "v": v})
            elif pick == 1:
                requests.append({"op": "node_palette", "v": rng.randrange(n)})
            else:
                requests.append({"op": "schedule", "v": rng.randrange(n)})
    return requests, fallbacks


def hot_stream(graph, count: int, seed: int) -> List[Dict]:
    """Read-only requests over Pareto-ranked hot nodes (heavily repeated keys)."""
    rng = random.Random(f"hot:{seed}")
    hot = rng.sample(range(graph.num_nodes), HOT_NODES)
    requests: List[Dict] = []
    for _ in range(count):
        v = hot[(int(rng.paretovariate(PARETO_ALPHA)) - 1) % HOT_NODES]
        op = READ_OPS[rng.randrange(3)]
        if op == "color":
            requests.append({"op": op, "u": v, "v": graph.neighbors(v)[0]})
        else:
            requests.append({"op": op, "v": v})
    return requests


# ------------------------------------------------------------------ daemon
class Daemon:
    """One launcher child process serving ``artifact``; always reaped."""

    def __init__(self, artifact: str, trace_out: Optional[str]):
        command = [sys.executable, LAUNCHER, "--artifact", artifact]
        if trace_out:
            command += ["--trace-out", trace_out]
        start = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        follow(self.process.pid)
        line = self.process.stdout.readline()
        self.spawn_s = time.perf_counter() - start
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"daemon did not start (first line: {line!r})")
        self.address = line.split("listening on ", 1)[1].strip()

    def stop(self, graceful: bool = False) -> int:
        """Reap the process: wait for the exit a ``shutdown`` op started, else kill."""
        if graceful:
            try:
                self.process.communicate(timeout=120.0)
            except subprocess.TimeoutExpired:
                pass
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
        return self.process.returncode


def _drive(connect, address: str, requests: List[Dict], expected: List[Dict], parts: int,
           rtts: List[float], mismatches: List[int], responses: Optional[List[Dict]],
           gate: threading.Barrier) -> None:
    """One closed-loop connection: send, wait, time, compare.  The stream
    runs in ``parts`` blocks, each between two waits at ``gate``."""
    try:
        client = connect(address, timeout=30.0)
    except OSError:
        gate.abort()
        return
    with client:
        clock = time.perf_counter
        try:
            for block in blocks(len(requests), parts):
                gate.wait()
                for i in block:
                    begin = clock()
                    got = client.request(requests[i])
                    rtts.append(clock() - begin)
                    if got != expected[i]:
                        mismatches[0] += 1
                    if responses is not None:
                        responses.append(got)
                gate.wait()
        except (OSError, ValueError):
            gate.abort()
        except threading.BrokenBarrierError:
            pass


def blocks(count: int, parts: int) -> List[range]:
    """``range(count)`` cut into ``parts`` consecutive blocks of equal size."""
    return [range(k * count // parts, (k + 1) * count // parts) for k in range(parts)]


def serve_pass(artifact_path: str, streams: List[List[Dict]], expected: List[List[Dict]],
               trace_out: Optional[str], keep_responses: bool) -> Dict:
    """Spawn a daemon, run one closed-loop connection per stream, shut it down.

    The connections run :data:`BLOCK` requests each, then pause together
    while this thread calibrates (:class:`common.Calibrator`); ``wall`` is
    the time the blocks took.
    """
    from repro.serving import connect

    daemon = Daemon(artifact_path, trace_out)
    graceful = False
    try:
        parts = max(1, max(len(part) for part in streams) // BLOCK)
        gate = threading.Barrier(len(streams) + 1)
        rtts = [[] for _ in streams]
        mismatches = [[0] for _ in streams]
        responses = [[] if keep_responses else None for _ in streams]
        threads = [
            threading.Thread(
                target=_drive,
                args=(connect, daemon.address, streams[k], expected[k], parts, rtts[k],
                      mismatches[k], responses[k], gate),
            )
            for k in range(len(streams))
        ]
        calibrator = Calibrator()
        wall = 0.0
        # The client's own heap (twin, oracle, streams) is large; freezing it
        # keeps client-side full collections out of the timed round trips.
        gc.collect()
        gc.freeze()
        try:
            for thread in threads:
                thread.start()
            try:
                for _ in range(parts):
                    gate.wait()
                    start = time.perf_counter()
                    gate.wait()
                    block_s = time.perf_counter() - start
                    wall += block_s
                    calibrator.after(block_s)
            except threading.BrokenBarrierError:
                pass
            for thread in threads:
                thread.join()
        finally:
            gc.unfreeze()
        with connect(daemon.address, timeout=30.0) as control:
            stats = control.request({"op": "stats", "scope": "daemon"})
            graceful = control.shutdown().get("ok", False)
    finally:
        code = daemon.stop(graceful)
    return {
        "wall": wall,
        "calibrator": calibrator,
        "rtts": rtts,
        "mismatches": sum(m[0] for m in mismatches),
        "responses": responses,
        "cache_stats": stats.get("cache_stats", {}),
        "spawn_s": daemon.spawn_s,
        "exit_code": code,
    }


def with_trace_ids(stream: List[Dict], connection: int) -> List[Dict]:
    return [
        dict(request, trace={"trace_id": f"{connection}-{i}", "span_id": "client"})
        for i, request in enumerate(stream)
    ]


# --------------------------------------------------------------- workloads
def run(config: Dict, seed: int, seconds: float, trace: bool, report: Report,
        workdir: str) -> None:
    from repro.graphs import generators
    from repro.serving import ColoringArtifact, ServingSession, build_artifact, connect
    from repro.serving.artifact import RebasePolicy

    n, degree, churn = config["n"], config["degree"], config["mix"] == "churn"
    base_path = os.path.join(workdir, "artifact.json")
    gen_walls: List[float] = []
    build_walls: List[float] = []

    def setup(graph_seed: int):
        start = time.perf_counter()
        graph = generators.random_regular_graph(n, degree, seed=graph_seed)
        built = time.perf_counter()
        artifact = build_artifact(graph)
        saved = time.perf_counter()
        artifact.save(base_path)
        gen_walls.append(built - start)
        build_walls.append(saved - built)
        return graph

    import networkx  # noqa: F401 - imported lazily by the generator; not set-up work

    setup_s, graph, setup_walls, setup_speed = time_setups(
        setup, setup_seeds(seed, SETUP_REPEATS)
    )
    report.note(f"graph: random {degree}-regular, n={n}, m={graph.num_edges}, seed={seed}")
    report.show("setup_s", setup_s, "s", len(setup_walls),
                "median of generate + build_artifact + save over family seeds, reference speed")
    setup_speed.show(report, "setup")
    report.metrics["setup_s"] = setup_s

    ops = max(config["min_ops"], round(seconds * config["ops_per_s"]))
    if trace:
        ops = max(config["min_ops"], ops // 2)
    if churn and ops >= FALLBACK_EVERY:
        ops -= ops % FALLBACK_EVERY  # whole blocks, so every window has one fallback

    # The in-process twin answers the same stream during set-up.
    twin = ServingSession(
        ColoringArtifact.load(base_path), rebase_policy=RebasePolicy(threshold=REBASE_THRESHOLD)
    )
    if churn:
        stream, fallbacks = churn_stream(ColoringArtifact.load(base_path), n, degree, ops, seed)
        streams = [stream]
        with connect(twin) as client:
            expected = [[client.request(request) for request in stream]]
        twin_stats = twin.cache_stats()
        report.check(
            twin_stats["fallbacks"] == fallbacks,
            f"in-process replay fell back {twin_stats['fallbacks']} times, "
            f"the stream generator predicted {fallbacks}",
        )
        report.note(
            f"stream: {ops} deltas + {3 * ops} reads (E12 mix), {twin_stats['fallbacks']} "
            f"fallbacks, journal on, fsync off, rebase threshold {REBASE_THRESHOLD}; "
            f"digest {digest(stream)}"
        )
    else:
        stream = hot_stream(graph, ops, seed)
        streams = [stream[k::config["connections"]] for k in range(config["connections"])]
        with connect(twin) as client:
            answers = {}
            for request in stream:
                key = tuple(sorted(request.items()))
                if key not in answers:
                    answers[key] = client.request(request)
        expected = [[answers[tuple(sorted(r.items()))] for r in part] for part in streams]
        report.note(
            f"stream: {ops} reads, {len(answers)} distinct, {len(streams)} connections; "
            f"digest {digest(stream)}"
        )
    report.inputs = digest(stream)
    bad = [r for part in expected for r in part if not r.get("ok")]
    report.check(not bad, f"{len(bad)} in-process answers are not ok: {bad[:2]}")

    def one_pass(label: str, trace_out: Optional[str]) -> Dict:
        path = os.path.join(workdir, f"{label}.json")
        shutil.copyfile(base_path, path)
        sent = streams if trace_out is None else [
            with_trace_ids(part, k) for k, part in enumerate(streams)
        ]
        result = serve_pass(path, sent, expected, trace_out, keep_responses=churn)
        completed = sum(len(r) for r in result["rtts"])
        report.attempted += len(stream)
        report.failed += len(stream) - completed
        report.check(result["exit_code"] == 0, f"{label}: daemon exited {result['exit_code']}")
        report.check(
            result["mismatches"] == 0,
            f"{label}: {result['mismatches']} responses differ from the in-process answers",
        )
        report.note(f"{label}:")
        if churn:
            got = result["responses"][0]
            report.check(
                digest(got) == digest(expected[0]),
                f"{label}: response digest differs from the in-process replay",
            )
            reloaded = ColoringArtifact.load(path)
            try:
                reloaded.verify()
            except ValueError as exc:
                report.check(False, f"{label}: reloaded artifact fails verify(): {exc}")
            report.check(
                reloaded.colors == twin.artifact.colors and reloaded.epoch == twin.artifact.epoch,
                f"{label}: reloaded artifact differs from the in-process final state",
            )
            daemon_stats = result["cache_stats"]
            for key in ("hits", "misses", "deltas_applied", "touched", "recolored", "fallbacks",
                        "rebases"):
                report.check(
                    daemon_stats.get(key) == twin_stats[key],
                    f"{label}: daemon {key}={daemon_stats.get(key)} but the in-process "
                    f"replay has {twin_stats[key]}",
                )
            report.note(f"  response digest {digest(got)}, in-process {digest(expected[0])}")
            kinds = [r["op"] in DELTA_OPS for r in stream]
            rtts = result["rtts"][0]
            writes = [t for t, w in zip(rtts, kinds) if w]
            report.timing("write_ms", writes)
            report.timing("read_ms", [t for t, w in zip(rtts, kinds) if not w])
            timed, what = writes, "mean delta round trip"
        else:
            timed = [t for part in result["rtts"] for t in part]
            report.timing("read_ms", timed)
            what = "mean read round trip"
        requests_per_s = completed / result["wall"]
        report.show("requests_per_s", requests_per_s, "1/s", completed,
                    f"closed loop, {len(streams)} connection(s)")
        report.show("serving.daemon.spawn_s", result["spawn_s"], "s", 1, "not in setup_s")
        result["calibrator"].show(report, label)
        scale = result["calibrator"].scale()
        result["op_ms"] = statistics.mean(timed) * 1e3 * scale
        result["work_per_s"] = requests_per_s / scale
        report.show("op_ms", result["op_ms"], "ms", len(timed), f"{what} at reference speed")
        report.show("work_per_s", result["work_per_s"], "1/s", completed,
                    "requests_per_s at reference speed")
        return result

    if not trace:
        result = one_pass("timed", None)
        report.metrics.update(op_ms=result["op_ms"], work_per_s=result["work_per_s"])
        return

    plain = one_pass("untraced", None)
    trace_out = os.path.join(workdir, "trace.json")
    traced = one_pass("traced", trace_out)
    with open(trace_out, encoding="utf-8") as handle:
        trace_data = json.load(handle)
    _traced_layers(report, trace_data, traced, streams)
    stats = traced["cache_stats"]
    lookups = stats.get("hits", 0) + stats.get("misses", 0)
    deltas = stats.get("deltas_applied", 0)
    report.layers.update(
        {
            "serving.cache.hits": stats.get("hits", 0),
            "serving.cache.lookups": lookups,
            "serving.cache.hit_ratio": stats.get("hits", 0) / lookups if lookups else 0.0,
            "serving.repair.deltas": deltas,
            "serving.repair.fallback_share": stats.get("fallbacks", 0) / deltas if deltas else 0.0,
            "graphs.generate_s": statistics.median(gen_walls),
            "serving.artifact.build_s": statistics.median(build_walls),
            "serving.daemon.spawn_s": traced["spawn_s"],
            "trace.overhead.op_ms": traced["op_ms"] / plain["op_ms"] - 1.0,
            "trace.overhead.work_per_s": traced["work_per_s"] / plain["work_per_s"] - 1.0,
        }
    )


def _traced_layers(report: Report, trace_data: Dict, traced: Dict,
                   streams: List[List[Dict]]) -> None:
    """Layer self times from the daemon's spans plus the client-side socket share."""
    summary = trace_data["layers"]
    served = trace_data["served"]
    socket_s = 0.0
    socket_calls = 0
    rtt_total = 0.0
    for k, rtts in enumerate(traced["rtts"]):
        for i, rtt in enumerate(rtts):
            rtt_total += rtt
            server = served.get(f"{k}-{i}")
            if server is not None:
                socket_s += rtt - server
                socket_calls += 1
    summary["serving.daemon.socket"] = {"self_s": socket_s, "calls": socket_calls}
    load = summary.pop("serving.artifact.load", {})
    report.layers.update(flatten(summary))
    covered = sum(entry["self_s"] for entry in summary.values())
    busy = len(streams) * traced["wall"]
    handle = summary.get("serving.daemon.handle", {})
    report.layers.update(
        {
            "serving.artifact.load_s": load.get("total_s", 0.0),
            "trace.ops": sum(len(part) for part in streams),
            # Client time outside any round trip (the loop itself), as a
            # share of the connections' combined wall time.
            "trace.uncovered_share": 1.0 - covered / busy if busy else 0.0,
            # Daemon time inside ``handle_line`` that no named layer covers
            # (session dispatch, locks, the save around the journal append),
            # as a share of the daemon's request handling time.
            "trace.server_uncovered_share": (
                handle["self_s"] / handle["total_s"] if handle.get("total_s") else 0.0
            ),
        }
    )
    report.note(
        f"  client round trips {rtt_total:.3f} s = socket {socket_s:.3f} s + server spans "
        f"{rtt_total - socket_s:.3f} s (matched by request id)"
    )
