"""Chaos check: the fault-tolerant runtime under injected failures.

Run by the CI ``chaos`` job (and runnable locally)::

    python benchmarks/chaos_check.py

One small sweep, several adversaries at once:

* **worker faults** — a ``chaos_probe`` scenario whose cells SIGKILL
  their worker once, raise deterministically, and hang past the
  per-attempt timeout, executed with ``workers=4``;
* **a parallel simulator sweep** — the registered ``e8_linial``
  scenario (message-passing Linial on the simulator) under
  ``workers=4``, in the same store as the probes;
* **storage faults** — a torn trailing write injected into the result
  store between runs;
* **daemon kill** — the registered E13 kill/replay cell: a serving
  daemon subprocess SIGKILLed mid-stream, restarted from its base
  artifact + delta journal, and diffed against an uninterrupted
  in-process run;
* **concurrent clients + kill** — four client threads hammer a daemon
  running with a journal rotation cap, which folds the journal into
  the base JSON online; the daemon is SIGKILLed mid-traffic and the
  base + journal must replay every acknowledged write;
* **kill inside the shutdown fold** — a journaling daemon holding a
  few hundred deltas is told to shut down and SIGKILLed a random
  0–100 ms after the acknowledgement, so the kill lands before, inside
  or after the full save that folds its journal.

Asserted afterwards:

1. the store is *complete*: every cell of both scenarios has a row —
   the killed workers were requeued, the deterministic failures were
   quarantined as structured error rows, and nothing deadlocked;
2. exactly the deterministic failures (the always-raise and the
   always-hang cell) are quarantined, with the right error kinds;
3. a ``--resume`` run over the torn store *self-heals* (the fragment
   is detected and dropped) and recomputes nothing — every real cell
   is still cached;
4. the parallel ``e8_linial`` rows are *diff-clean* against a serial
   run of the same scenario — worker kills, retries and store healing
   left no trace in the data;
5. the E13 kill/replay cell runs with 0 errored cells: its runner
   asserts that journal replay reproduces the exact pre-kill artifact
   state and that the cross-kill response stream is bit-identical to
   the uninterrupted session;
6. under four concurrent clients and a journal rotation cap, the
   daemon folded the journal into the base JSON online before the
   kill, the journal left behind holds at most the cap, every
   acknowledged write epoch is distinct (the session's total order),
   replaying base + journal reaches at least the highest
   acknowledged epoch, and a restart + graceful shutdown folds the
   journal away;
7. the observability trace sink shares the store's torn-tail contract
   (:mod:`repro.jsonlog`):
   a torn trailing span (a tracer killed mid-write) is skipped on read,
   healed before the next append, and ``repro obs report`` still
   renders over the healed file;
8. wherever the kill lands in the shutdown fold, the artifact loads
   and equals the daemon's live state before the shutdown.

Exit status 0 when all assertions hold.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.runtime import get, run_scenario  # noqa: E402
from repro.runtime.spec import RetryPolicy, spec  # noqa: E402
from repro.runtime.store import ResultStore, diff_rows, is_error_row  # noqa: E402

logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

RETRY = RetryPolicy(timeout_seconds=2.0, max_retries=1)


def probe_spec(marker_dir: str):
    """Worker-fault cells: two SIGKILLs, one raiser, one hanger, two ok."""
    return spec(
        "chaos_probes",
        "chaos: worker kills, a deterministic raiser and a hanger",
        "chaos_probe",
        [
            {"mode": "ok", "payload": 1},
            {"mode": "kill_once", "marker_dir": marker_dir, "cell": "k0"},
            {"mode": "kill_once", "marker_dir": marker_dir, "cell": "k1"},
            {"mode": "raise"},
            {"mode": "sleep", "sleep_seconds": 30.0},
            {"mode": "ok", "payload": 2},
        ],
    )


def check(condition: bool, label: str) -> None:
    if not condition:
        print(f"FAIL: {label}")
        raise SystemExit(1)
    print(f"ok: {label}")


def daemon_kill_replay_probe() -> None:
    """Phase 5: the registered E13 kill/replay cell (``serving_daemon``).

    Its runner SIGKILLs a ``repro serve`` daemon mid-stream and asserts
    the pre-kill epoch and coloring after journal replay, cross-kill
    response bit-identity with an in-process session, and the journal
    compacted on graceful shutdown; any failed assertion errors the cell.
    """
    import dataclasses

    daemon = get("serving_daemon")
    cell = next(c for c in daemon.cells if c.quick and "clients" not in c.params)
    report = run_scenario(dataclasses.replace(daemon, cells=(cell,)), workers=1)
    check(
        report.executed == 1 and report.errored == 0,
        "daemon SIGKILL + journal replay cell ran clean (0 errored)",
    )


def concurrent_clients_kill_probe(workdir: str) -> None:
    """Phase 6: 4 concurrent clients + a rotation cap + SIGKILL mid-traffic.

    Each client thread owns one node (owners pairwise non-adjacent, so
    write sets are disjoint) and toggles its base edges over its own
    socket while the daemon folds its journal into the base JSON every
    8 records.  The daemon is SIGKILLed while traffic is in flight;
    afterwards the base JSON must be past the built epoch (an online
    fold happened), the journal must hold at most 8 records, base +
    journal must replay every *acknowledged* write (journal-before-ack
    inside the session mutex), the acknowledged write epochs must be
    pairwise distinct (the session's total order), and a restart +
    graceful shutdown must fold the journal away.  The daemon runs at
    ``--radius-limit 0``, so every write whose repair pops an edge is a
    fallback; at m=160 the drain budget is 10 pops, so both fallback
    routes run.
    """
    import threading
    import time

    from repro.graphs import generators
    from repro.serving import (
        ColoringArtifact,
        DeltaJournal,
        build_artifact,
        journal_path,
    )
    from repro.serving.daemon import connect, spawned_daemon

    clients, kill_after_writes = 4, 30
    graph = generators.random_regular_graph(80, 4, seed=5)
    path = os.path.join(workdir, "chaos-concurrent.json")
    base = os.path.join(workdir, "chaos-concurrent-base.json")
    built = build_artifact(graph)
    built.save(path)
    built.save(base)

    owners, excluded = [], set()
    for node in range(graph.num_nodes):
        if node in excluded:
            continue
        owners.append(node)
        excluded.add(node)
        excluded.update(graph.neighbors(node))
        if len(owners) == clients:
            break

    cap = 8
    rotation = ["--journal-max-records", str(cap), "--radius-limit", "0"]
    acks = [[] for _ in owners]
    write_count = threading.Lock()
    total_writes = [0]

    def hammer(index, owner):
        edges = sorted((owner, w) if owner < w else (w, owner) for w in graph.neighbors(owner))
        try:
            with connect((host, port)) as client:
                while True:
                    for u, v in edges:
                        for op in ("delete", "insert"):
                            ack = client.request({"op": op, "u": u, "v": v})
                            if ack.get("ok"):
                                acks[index].append(ack)
                                with write_count:
                                    total_writes[0] += 1
                        read = client.request({"op": "node_palette", "v": owner})
                        if not read.get("ok"):
                            return
        except (ConnectionError, OSError, ValueError):
            return  # the kill severed this connection mid-request

    threads = [
        threading.Thread(target=hammer, args=(i, o), daemon=True)
        for i, o in enumerate(owners)
    ]
    with spawned_daemon(path, extra_args=rotation) as (process, host, port):
        for thread in threads:
            thread.start()
        while True:
            with write_count:
                if total_writes[0] >= kill_after_writes:
                    break
            if process.poll() is not None:
                raise RuntimeError("daemon died before the kill point")
            time.sleep(0.005)
        process.kill()
        process.wait(timeout=30)
    for thread in threads:
        thread.join(timeout=30)

    acked = [ack for per_client in acks for ack in per_client]
    check(len(acked) >= kill_after_writes, "concurrent traffic reached the kill point")
    epochs = [ack["epoch"] for ack in acked]
    check(
        len(set(epochs)) == len(epochs),
        "acknowledged write epochs are pairwise distinct across clients",
    )
    for per_client in acks:
        client_epochs = [ack["epoch"] for ack in per_client]
        check(
            client_epochs == sorted(client_epochs),
            "per-client ack order follows epoch order",
        )

    with open(path, encoding="utf-8") as handle:
        folded_epoch = json.load(handle)["epoch"]
    check(
        folded_epoch > built.epoch,
        f"daemon folded the journal online (base epoch {folded_epoch})",
    )
    journal = DeltaJournal(journal_path(path))
    chain = [record["epoch"] for record in journal.records()]
    check(len(chain) <= cap, f"journal holds at most the cap ({len(chain)} <= {cap})")
    recovered = ColoringArtifact.load(path)
    check(
        recovered.epoch >= max(epochs) and recovered.verify(),
        "base + journal replay reaches every acknowledged epoch and verifies",
    )
    check(
        all(b > a for a, b in zip(chain, chain[1:])),
        "journal epochs strictly increase",
    )

    # Restart + graceful shutdown folds everything back into the JSON.
    with spawned_daemon(path, extra_args=rotation) as (process, host, port):
        with connect((host, port)) as client:
            ack = client.shutdown()
        check(ack == {"ok": True, "op": "shutdown"}, "restarted daemon acks shutdown")
        process.wait(timeout=30)
    check(
        not os.path.exists(journal_path(path)),
        "graceful shutdown folded the journal away",
    )
    final = ColoringArtifact.load(path)
    check(
        final.epoch == recovered.epoch and final.verify(),
        "post-compaction artifact carries the recovered state",
    )


def shutdown_fold_kill_probe(workdir: str, repeats: int = 6) -> None:
    """Phase 8: SIGKILL a random 0–100 ms into a graceful shutdown.

    The daemon acknowledges ``shutdown`` before it folds its journal
    into the base JSON with a full save (an atomic rewrite, then the
    journal's deletion), so a kill after the acknowledgement lands
    before, inside or after that fold.  Each repeat starts from the same
    base (n=20000, Δ=8, where a full save takes ≈0.1 s), sends the same
    300 acknowledged deltas, and must load back to the state an
    in-process artifact reaches on those deltas: the same epoch,
    coloring and demand lists.
    """
    import random
    import time

    from repro.graphs import generators
    from repro.serving import ColoringArtifact, build_artifact, journal_path
    from repro.serving.daemon import connect, spawned_daemon

    base = os.path.join(workdir, "chaos-fold-base.json")
    path = os.path.join(workdir, "chaos-fold.json")
    build_artifact(generators.random_regular_graph(20000, 8, seed=8)).save(base)
    expected = ColoringArtifact.load(base)
    rng = random.Random(8)
    present = sorted(expected.colors)
    requests = []
    for i in range(300):
        if i % 3 == 1:
            while True:
                u, v = sorted(rng.sample(range(expected.num_nodes), 2))
                if not expected.graph.has_edge(u, v):
                    break
            expected.insert(u, v)
            present.append((u, v))
            requests.append({"op": "insert", "u": u, "v": v})
        elif i % 3 == 0:
            u, v = present.pop(rng.randrange(len(present)))
            expected.delete(u, v)
            requests.append({"op": "delete", "u": u, "v": v})
        else:
            u, v = present[rng.randrange(len(present))]
            colors = sorted(rng.sample(range(40), 20))
            expected.set_list(u, v, colors)
            requests.append({"op": "set_list", "u": u, "v": v, "colors": colors})

    folded = 0
    for _ in range(repeats):
        shutil.copyfile(base, path)
        with spawned_daemon(path) as (process, host, port):
            with connect((host, port)) as client:
                acks = [client.request(request) for request in requests]
                check(all(ack.get("ok") for ack in acks), "every delta acknowledged")
                check(client.shutdown().get("ok"), "daemon acks shutdown")
            time.sleep(rng.uniform(0.0, 0.1))
            process.kill()
            process.wait(timeout=30)
        folded += not os.path.exists(journal_path(path))  # the fold finished
        loaded = ColoringArtifact.load(path)
        check(
            loaded.epoch == expected.epoch
            and loaded.colors == expected.colors
            and loaded.lists == expected.lists,
            f"artifact loads at the pre-shutdown state (epoch {loaded.epoch})",
        )
        if os.path.exists(journal_path(path)):
            os.remove(journal_path(path))
    print(f"  {folded} of {repeats} kills came after the fold had finished")


def trace_sink_probe(workdir: str) -> None:
    """Phase 7: a torn trailing span heals and the report still renders."""
    from repro.obs import trace as obs_trace
    from repro.obs.report import summarize

    path = os.path.join(workdir, "chaos-trace.jsonl")
    trc = obs_trace.configure(path)
    with trc.span("runtime.cell.run", spec="chaos_probes", cell_index=0):
        pass
    trc.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"trace_id": "killed-mid-write", "span_id": "x"')  # no \n

    events = obs_trace.read_events(path)
    check(
        [e["name"] for e in events] == ["runtime.cell.run"],
        "torn trailing span skipped on read",
    )

    trc = obs_trace.configure(path)  # reopening heals the tail first
    with trc.span("serving.delta", touched=2):
        pass
    trc.close()
    obs_trace.reset()
    summary = summarize(path)
    check(summary["spans"] == 2, "trace sink healed before the next append")
    check(
        summary["repair_radius"] == {2: 1},
        "obs report renders over the healed trace",
    )


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="chaos-check-")
    try:
        store = ResultStore(os.path.join(workdir, "chaos.jsonl"), fsync=True)
        probes = probe_spec(os.path.join(workdir, "markers"))
        sweep = get("e8_linial")

        # --- phase 1: worker faults under workers=4 -------------------
        probe_report = run_scenario(probes, workers=4, store=store, retry=RETRY)
        check(
            probe_report.executed == len(probes.cells),
            "probe sweep completed despite kills/raise/hang",
        )
        check(probe_report.errored == 2, "exactly the raiser and the hanger quarantined")
        kinds = sorted(
            row["error"]["kind"] for row in probe_report.rows if is_error_row(row)
        )
        check(kinds == ["exception", "timeout"], f"error kinds recorded: {kinds}")
        attempts = [row["error"]["attempts"] for row in probe_report.rows if is_error_row(row)]
        check(
            all(a == 1 + RETRY.max_retries for a in attempts),
            "quarantine only after exhausting retries",
        )

        # --- phase 2: the simulator sweep under workers=4 -------------
        sweep_report = run_scenario(sweep, workers=4, store=store, retry=RETRY)
        check(
            sweep_report.errored == 0 and sweep_report.executed == len(sweep.cells),
            "e8_linial completed under workers=4",
        )

        # --- phase 3: torn write + resume self-heal -------------------
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"spec": "e8_linial", "cell_index": 99, "resu')
        resumed = run_scenario(sweep, workers=2, store=store, resume=True, retry=RETRY)
        check(
            resumed.executed == 0 and resumed.skipped == len(sweep.cells),
            "resume over the torn store executed nothing",
        )
        rows = store.rows()  # would raise on an unhealed mid-file fragment
        check(
            len([r for r in rows if r.get("spec") == sweep.name]) == len(sweep.cells),
            "store parses clean after the torn write",
        )

        # --- phase 4: diff-clean vs a serial run ---------------------
        serial_store = ResultStore(os.path.join(workdir, "serial.jsonl"))
        serial = run_scenario(sweep, workers=1, store=serial_store)
        check(serial.errored == 0, "serial e8_linial run is clean")
        chaos_sweep_rows = [r for r in store.rows() if r.get("spec") == sweep.name]
        problems = diff_rows(chaos_sweep_rows, serial_store.rows())
        for problem in problems:
            print(f"  diff: {problem}")
        check(not problems, "chaos-run rows diff-clean vs serial run")

        # --- phase 5: daemon SIGKILL + journal replay ------------------
        daemon_kill_replay_probe()

        # --- phase 6: concurrent clients + rotation + SIGKILL ----------
        concurrent_clients_kill_probe(workdir)

        # --- phase 7: torn trace sink heals ----------------------------
        trace_sink_probe(workdir)

        # --- phase 8: SIGKILL inside the shutdown fold -----------------
        shutdown_fold_kill_probe(workdir)

        print("chaos check passed")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
