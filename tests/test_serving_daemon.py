"""Durability plane: delta journal, compaction, and the serving daemon.

The load-bearing contracts here mirror the E13 scenario: every
*acknowledged* delta is durable (journal append before response), a torn
journal tail heals to the last complete epoch, and the socket daemon is
a bit-identical twin of an in-process :class:`ServingSession` — across a
crash-and-replay restart and a graceful compacting shutdown.
"""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro import cli
from repro.graphs import generators
from repro.serving import (
    DELTA_OPS,
    JOURNAL_FORMAT,
    ColoringArtifact,
    DeltaJournal,
    JournalError,
    ServingSession,
    build_artifact,
    compact_artifact,
    journal_path,
)
from repro.serving import protocol
from repro.serving.daemon import (
    ColoringDaemon,
    connect,
    parse_address,
    spawned_daemon,
)


def small_graph():
    return generators.random_regular_graph(24, 4, seed=7)


def absent_pair(graph):
    for u in range(graph.num_nodes):
        for v in range(u + 1, graph.num_nodes):
            if not graph.has_edge(u, v):
                return (u, v)
    raise AssertionError("graph is complete")


def saved_artifact(tmp_path):
    path = str(tmp_path / "artifact.json")
    build_artifact(small_graph()).save(path)
    return path


def churn_batch(artifact, rounds=6):
    """A deterministic delete/insert/set_list stream for one artifact."""
    graph = artifact.graph
    iu, iv = absent_pair(graph)
    du, dv = sorted(artifact.colors)[0]
    batch = []
    for _ in range(rounds):
        batch.append({"op": "delete", "u": du, "v": dv})
        batch.append({"op": "insert", "u": du, "v": dv})
        batch.append({"op": "insert", "u": iu, "v": iv})
        batch.append({"op": "set_list", "u": iu, "v": iv,
                      "colors": [1, 3, 5, 7, 9, 11, 13, 15, 17]})
        batch.append({"op": "delete", "u": iu, "v": iv})
        batch.append({"op": "node_palette", "v": du})
        batch.append({"op": "color", "u": du, "v": dv})
    return batch


# -------------------------------------------------------------------- journal
class TestDeltaJournal:
    def test_journal_save_appends_and_load_replays(self, tmp_path):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        session = ServingSession(artifact, rebase_policy=None)
        for response in session.serve_batch(churn_batch(artifact, rounds=2)):
            assert response["ok"]
        artifact.save(path, journal=True)
        jpath = journal_path(path)
        assert os.path.exists(jpath)
        with open(jpath, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines[0] == {"format": JOURNAL_FORMAT}
        epochs = [row["epoch"] for row in lines[1:]]
        assert epochs == list(range(1, artifact.epoch + 1))
        assert set(lines[1]) == {"epoch", "op", "u", "v", "colors"}

        replayed = ColoringArtifact.load(path)
        assert replayed.epoch == artifact.epoch
        assert replayed.colors == artifact.colors
        assert replayed.lists == artifact.lists
        assert replayed.verify()

    def test_failed_delta_leaves_no_trace_in_the_journal(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        build_artifact(generators.cycle_graph(8)).save(path)
        daemon = ColoringDaemon(path, journal=True)
        answers = [
            json.loads(daemon.handle_line(json.dumps(request)))
            for request in (
                {"op": "set_list", "u": 0, "v": 1, "colors": [5]},
                {"op": "set_list", "u": 1, "v": 2, "colors": [5]},
                {"op": "delete", "u": 3, "v": 4},
            )
        ]
        assert [a.get("epoch", a.get("code")) for a in answers] == [
            1, "list-exhausted", 2,
        ]
        live = daemon.session.artifact
        assert live.verify()
        daemon.stop(compact=False)
        reloaded = ColoringArtifact.load(path)
        assert (reloaded.colors, reloaded.lists, reloaded.epoch) == (
            live.colors, live.lists, live.epoch,
        )
        assert reloaded.verify()

    def test_journal_save_is_incremental(self, tmp_path):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        iu, iv = absent_pair(artifact.graph)
        artifact.insert(iu, iv)
        artifact.save(path, journal=True)
        size_one = os.path.getsize(journal_path(path))
        artifact.delete(iu, iv)
        artifact.save(path, journal=True)
        assert os.path.getsize(journal_path(path)) > size_one
        # saving with no pending deltas appends nothing
        artifact.save(path, journal=True)
        records = DeltaJournal(journal_path(path)).records()
        assert [r["op"] for r in records] == ["insert", "delete"]
        replayed = ColoringArtifact.load(path)
        assert replayed.epoch == 2 and replayed.colors == artifact.colors

    def test_journal_requires_tracked_artifact(self, tmp_path):
        from repro.serving import RepairError

        artifact = build_artifact(small_graph())
        with pytest.raises(RepairError, match="journal"):
            artifact.save(str(tmp_path / "never-saved.json"), journal=True)

    def test_full_save_folds_and_clears_journal(self, tmp_path):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        iu, iv = absent_pair(artifact.graph)
        artifact.insert(iu, iv)
        artifact.save(path, journal=True)
        assert os.path.exists(journal_path(path))
        artifact.save(path)  # full rewrite folds the journal in
        assert not os.path.exists(journal_path(path))
        assert ColoringArtifact.load(path).epoch == artifact.epoch

    def test_compact_artifact(self, tmp_path):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        session = ServingSession(artifact, rebase_policy=None)
        responses = session.serve_batch(churn_batch(artifact, rounds=3))
        assert all(r["ok"] for r in responses)
        artifact.save(path, journal=True)
        folded = compact_artifact(path)
        assert folded == artifact.epoch > 0
        assert not os.path.exists(journal_path(path))
        compacted = ColoringArtifact.load(path)
        assert compacted.epoch == artifact.epoch
        assert compacted.colors == artifact.colors
        assert compact_artifact(path) == 0  # journal-less: a no-op

    def test_compact_artifact_reads_the_journal_once(self, tmp_path, monkeypatch):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        session = ServingSession(artifact, rebase_policy=None)
        session.serve_batch(churn_batch(artifact, rounds=2))
        artifact.save(path, journal=True)
        reads = []
        original = DeltaJournal.records

        def counted(journal):
            reads.append(journal.path)
            return original(journal)

        monkeypatch.setattr(DeltaJournal, "records", counted)
        assert compact_artifact(path) == artifact.epoch > 0
        assert reads == [journal_path(path)]

    def test_append_after_external_compact_lands_in_a_fresh_journal(self, tmp_path):
        # Compacting (as `serve --compact` does from another process)
        # deletes the journal under the artifact's held append handle; the
        # next acknowledged delta must survive a reload.
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        iu, iv = absent_pair(artifact.graph)
        artifact.insert(iu, iv)
        artifact.save(path, journal=True)
        assert compact_artifact(path) == artifact.epoch == 1
        artifact.delete(iu, iv)
        artifact.save(path, journal=True)
        artifact.close()
        reloaded = ColoringArtifact.load(path)
        assert reloaded.epoch == 2 and reloaded.colors == artifact.colors
        assert [r["op"] for r in DeltaJournal(journal_path(path)).records()] == ["delete"]

    def test_torn_tail_heals_to_last_complete_epoch(self, tmp_path):
        # Satellite: truncate mid-record; load() must heal to the last
        # complete epoch and a subsequent delta must resume cleanly.
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        iu, iv = absent_pair(artifact.graph)
        artifact.insert(iu, iv)
        du, dv = sorted(artifact.colors)[0]
        artifact.delete(du, dv)
        artifact.save(path, journal=True)
        jpath = journal_path(path)
        with open(jpath, "rb+") as handle:
            handle.seek(-9, os.SEEK_END)  # rip the epoch-2 record in half
            handle.truncate()
        healed = ColoringArtifact.load(path)
        assert healed.epoch == 1  # the torn delta was never acknowledged
        assert healed.graph.has_edge(iu, iv)
        assert healed.graph.has_edge(du, dv)
        assert healed.verify()
        # resuming appends after the healed tail without corruption
        healed.delete(du, dv)
        healed.save(path, journal=True)
        resumed = ColoringArtifact.load(path)
        assert resumed.epoch == 2
        assert not resumed.graph.has_edge(du, dv)
        assert resumed.verify()

    def test_mid_file_corruption_is_an_error_not_a_heal(self, tmp_path):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        iu, iv = absent_pair(artifact.graph)
        artifact.insert(iu, iv)
        artifact.delete(iu, iv)
        artifact.save(path, journal=True)
        jpath = journal_path(path)
        with open(jpath, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"  # corrupt a middle record
        with open(jpath, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(JournalError, match="corrupt record"):
            ColoringArtifact.load(path)

    def test_bad_header_and_bad_epoch_order_are_rejected(self, tmp_path):
        jpath = str(tmp_path / "a.json.journal")
        with open(jpath, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"format": "something/else"}) + "\n")
        with pytest.raises(JournalError, match="unsupported journal format"):
            DeltaJournal(jpath).records()
        with open(jpath, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"format": JOURNAL_FORMAT}) + "\n")
            handle.write('{"epoch": 2, "op": "insert", "u": 0, "v": 1, "colors": null}\n')
            handle.write('{"epoch": 2, "op": "delete", "u": 0, "v": 1, "colors": null}\n')
        with pytest.raises(JournalError, match="non-increasing epoch"):
            DeltaJournal(jpath).records()


# --------------------------------------------------------------------- daemon
class TestColoringDaemon:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:8431") == ("127.0.0.1", 8431)
        assert parse_address(":0") == ("127.0.0.1", 0)
        assert parse_address("0") == ("127.0.0.1", 0)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("localhost")

    def test_socket_responses_match_in_process_session(self, tmp_path):
        path = saved_artifact(tmp_path)
        twin_artifact = ColoringArtifact.load(path)
        twin = ServingSession(twin_artifact, rebase_policy=None)
        batch = churn_batch(twin_artifact) + [{"op": "stats"}]
        expected = twin.serve_batch(batch)

        daemon = ColoringDaemon(path)
        host, port = daemon.start()
        try:
            with connect((host, port)) as client:
                got = client.request_many(batch)
                # malformed lines answer instead of wedging the stream
                assert not json.loads(daemon.handle_line("{not json"))["ok"]
                ack = client.shutdown()
        finally:
            daemon.stop(compact=True)
        assert ack == {"ok": True, "op": "shutdown"}
        assert got == expected
        assert not os.path.exists(journal_path(path))
        final = ColoringArtifact.load(path)
        assert final.epoch == twin_artifact.epoch
        assert final.colors == twin_artifact.colors

    def test_concurrent_clients_totals_are_exact(self, tmp_path):
        # Four clients race a fixed mix; every total the session mutex
        # guards must come out exact, whatever the interleaving.
        path = saved_artifact(tmp_path)
        edges = sorted(ColoringArtifact.load(path).colors)
        clients, rounds = 4, 25
        streams = []
        for k in range(clients):
            u, v = edges[k]  # each client toggles its own edge
            su, sv = edges[-1 - k]
            streams.append(
                [
                    request
                    for i in range(rounds)
                    for request in (
                        {"op": "delete", "u": u, "v": v},
                        {"op": "color", "u": su, "v": sv},
                        {"op": "insert", "u": u, "v": v},
                        {"op": "node_palette", "v": (k + i) % 24},
                        {"op": "schedule", "v": (k * i) % 24},
                        {"op": "stats"},
                    )
                ]
            )
        daemon = ColoringDaemon(path)
        host, port = daemon.start()
        answers = [None] * clients

        def work(index):
            with connect((host, port)) as client:
                answers[index] = client.request_many(streams[index])

        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            # A handler decrements the gauge after its client hangs up.
            polls, deadline = 0, time.monotonic() + 10
            while True:
                polls += 1
                stats = json.loads(daemon.handle_line('{"op": "stats", "scope": "daemon"}'))
                if stats["connections"] == 0 or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        finally:
            daemon.stop(compact=True)
        assert all(r["ok"] for part in answers for r in part)
        sent = clients * rounds * 6
        cache = stats["cache_stats"]
        assert stats["connections"] == 0
        assert stats["requests_served"] == sent + polls
        assert cache["hits"] + cache["misses"] == clients * rounds * 3
        assert cache["deltas_applied"] == clients * rounds * 2
        assert stats["artifact"]["epoch"] == clients * rounds * 2
        write_epochs = sorted(
            r["epoch"] for part in answers for r in part if r["op"] in DELTA_OPS
        )
        assert write_epochs == list(range(1, clients * rounds * 2 + 1))

    def test_crash_without_compact_replays_from_journal(self, tmp_path):
        path = saved_artifact(tmp_path)
        twin = ServingSession(ColoringArtifact.load(path), rebase_policy=None)
        batch = churn_batch(twin.artifact, rounds=2)
        expected = twin.serve_batch(batch)

        daemon = ColoringDaemon(path)
        host, port = daemon.start()
        try:
            with connect((host, port)) as client:
                got = client.request_many(batch)
        finally:
            daemon.stop(compact=False)  # the crash path, minus the crash
        assert got == expected
        assert os.path.exists(journal_path(path))
        recovered = ColoringArtifact.load(path)
        assert recovered.epoch == twin.artifact.epoch
        assert recovered.colors == twin.artifact.colors
        assert recovered.verify()

    def test_cache_hit_bytes_are_the_canonical_encoding(self, tmp_path):
        path = saved_artifact(tmp_path)
        twin = ServingSession(ColoringArtifact.load(path))
        request = {"op": "node_palette", "v": 3}
        expected = (protocol.encode_response(twin.query(request)) + "\n").encode("utf-8")
        assert expected == (json.dumps(twin.query(request), sort_keys=True) + "\n").encode()

        daemon = ColoringDaemon(path, journal=False)
        host, port = daemon.start()
        try:
            with socket.create_connection((host, port), timeout=30) as sock:
                stream = sock.makefile("rb")
                sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
                miss = stream.readline()
                traced = dict(request, trace={"trace_id": "t-1", "span_id": "s-1"})
                sock.sendall((json.dumps(traced) + "\n").encode("utf-8"))
                hit = stream.readline()
                stream.close()
            assert daemon.session.cache_stats()["hits"] == 1
        finally:
            daemon.stop(compact=False)
        assert miss == expected
        assert hit == expected

    def test_stop_folds_the_records_on_disk(self, tmp_path):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        batch = churn_batch(artifact, rounds=3)
        # A crash leaves journal records behind; a journaled daemon with
        # rotation appends more; stop() reports what the file holds.
        crashed = ColoringDaemon(path, journal_max_records=7)
        host, port = crashed.start()
        with connect((host, port)) as client:
            assert all(r["ok"] for r in client.request_many(batch[:11]))
        assert crashed.stop(compact=False) == 0
        left = len(DeltaJournal(journal_path(path)).records())
        assert left > 0

        for journal, more in ((False, batch[11:13]), (True, batch[14:17])):
            daemon = ColoringDaemon(path, journal=journal, journal_max_records=7)
            host, port = daemon.start()
            with connect((host, port)) as client:
                assert all(r["ok"] for r in client.request_many(more))
            deltas = sum(r["op"] in DELTA_OPS for r in more)
            on_disk = len(DeltaJournal(journal_path(path)).records())
            assert on_disk == left + (deltas if journal else 0)
            assert daemon.stop(compact=True) == on_disk
            assert not os.path.exists(journal_path(path))
            left = 0

    def test_no_journal_daemon_is_durable_only_on_compact(self, tmp_path):
        path = saved_artifact(tmp_path)
        daemon = ColoringDaemon(path, journal=False)
        host, port = daemon.start()
        try:
            with connect((host, port)) as client:
                iu, iv = absent_pair(daemon.session.artifact.graph)
                assert client.request({"op": "insert", "u": iu, "v": iv})["ok"]
            assert not os.path.exists(journal_path(path))
            assert ColoringArtifact.load(path).epoch == 0  # nothing durable yet
        finally:
            daemon.stop(compact=True)
        assert ColoringArtifact.load(path).epoch == 1


# ------------------------------------------------------- held journal handle
@pytest.fixture()
def journal_handles(monkeypatch):
    """Every handle :mod:`repro.jsonlog` opens for appending, in order."""
    from repro import jsonlog

    handles = []
    original = jsonlog.open_append

    def recorded(*args, **kwargs):
        handles.append(original(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(jsonlog, "open_append", recorded)
    return handles


def journal_lines(path):
    with open(journal_path(path), encoding="utf-8") as handle:
        return handle.read().splitlines()


class TestHeldJournalHandle:
    """The journal opens once per artifact and is released by every fold."""

    def test_fifty_journal_saves_open_the_file_once(self, tmp_path, journal_handles):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        du, dv = sorted(artifact.colors)[0]
        for i in range(50):
            (artifact.delete if i % 2 == 0 else artifact.insert)(du, dv)
            artifact.save(path, journal=True)
        assert len(journal_handles) == 1 and not journal_handles[0].closed
        assert len(DeltaJournal(journal_path(path)).records()) == 50
        artifact.close()
        artifact.close()  # idempotent
        assert journal_handles[0].closed

    def test_full_save_and_capped_fold_release_the_handle(self, tmp_path, journal_handles):
        from repro.serving import RotationPolicy

        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        du, dv = sorted(artifact.colors)[0]
        artifact.delete(du, dv)
        artifact.save(path, journal=True)
        artifact.save(path)  # full save
        assert journal_handles[0].closed
        assert not os.path.exists(journal_path(path))

        artifact.insert(du, dv)
        artifact.save(path, journal=True)  # re-created, header first
        assert len(journal_handles) == 2
        assert journal_lines(path)[0] == json.dumps({"format": JOURNAL_FORMAT})
        assert [r["epoch"] for r in DeltaJournal(journal_path(path)).records()] == [2]

        artifact.delete(du, dv)
        artifact.save(path, journal=True, rotation=RotationPolicy(max_records=2))
        assert journal_handles[1].closed  # the capped fold released it
        assert not os.path.exists(journal_path(path))
        assert base_epoch(path) == 3

        artifact.insert(du, dv)
        artifact.save(path, journal=True)
        assert len(journal_handles) == 3
        assert journal_lines(path)[0] == json.dumps({"format": JOURNAL_FORMAT})
        assert ColoringArtifact.load(path).colors == artifact.colors
        artifact.close()

    @pytest.mark.parametrize("compact", [True, False], ids=["compact", "crash"])
    def test_daemon_stop_leaves_no_open_handle(self, tmp_path, journal_handles, compact):
        path = saved_artifact(tmp_path)
        daemon = ColoringDaemon(path)
        batch = churn_batch(daemon.session.artifact, rounds=1)
        host, port = daemon.start()
        try:
            with connect((host, port)) as client:
                assert all(r["ok"] for r in client.request_many(batch))
            assert len(journal_handles) == 1 and not journal_handles[0].closed
        finally:
            daemon.stop(compact=compact)
        assert journal_handles[0].closed
        assert os.path.exists(journal_path(path)) is not compact
        assert ColoringArtifact.load(path).colors == daemon.session.artifact.colors


# ---------------------------------------------------------------- end to end
@pytest.mark.slow
class TestDaemonSubprocess:
    def test_cli_daemon_sigkill_replay_and_graceful_compact(self, tmp_path):
        path = saved_artifact(tmp_path)
        twin = ServingSession(ColoringArtifact.load(path), rebase_policy=None)
        batch = churn_batch(twin.artifact, rounds=2)
        cut = len(batch) // 2
        expected_prefix = twin.serve_batch(batch[:cut])
        prefix_epoch = twin.artifact.epoch
        prefix_colors = dict(twin.artifact.colors)
        expected_suffix = twin.serve_batch(batch[cut:])

        with spawned_daemon(path) as (process, host, port):
            with connect((host, port)) as client:
                got_prefix = client.request_many(batch[:cut])
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        recovered = ColoringArtifact.load(path)
        assert recovered.epoch == prefix_epoch
        assert recovered.colors == prefix_colors
        assert recovered.verify()

        with spawned_daemon(path) as (process, host, port):
            with connect((host, port)) as client:
                got_suffix = client.request_many(batch[cut:])
                assert client.shutdown() == {"ok": True, "op": "shutdown"}
            assert process.wait(timeout=30) == 0
        assert got_prefix + got_suffix == expected_prefix + expected_suffix
        assert not os.path.exists(journal_path(path))
        final = ColoringArtifact.load(path)
        assert final.epoch == twin.artifact.epoch
        assert final.colors == twin.artifact.colors

    def test_cli_compact_mode(self, tmp_path, capsys):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        iu, iv = absent_pair(artifact.graph)
        artifact.insert(iu, iv)
        artifact.save(path, journal=True)
        assert cli.main(["serve", "--compact", "--artifact", path]) == 0
        out = capsys.readouterr().out
        assert "1 journal records folded" in out
        assert not os.path.exists(journal_path(path))

    def test_query_journal_save(self, tmp_path, capsys):
        path = saved_artifact(tmp_path)
        iu, iv = absent_pair(ColoringArtifact.load(path).graph)
        code = cli.main([
            "query", path,
            "--request", json.dumps({"op": "insert", "u": iu, "v": iv}),
            "--save", "--journal",
        ])
        assert code == 0
        capsys.readouterr()
        assert os.path.exists(journal_path(path))
        replayed = ColoringArtifact.load(path)
        assert replayed.epoch == 1 and replayed.graph.has_edge(iu, iv)


# ------------------------------------------------------------------- rotation
def base_epoch(path):
    """The epoch recorded in the artifact JSON itself (no journal replay)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["epoch"]


def artifact_files(path):
    """Every file next to the artifact that belongs to it."""
    directory, name = os.path.split(path)
    return sorted(entry for entry in os.listdir(directory) if entry.startswith(name))


class TestJournalRotation:
    """A capped journal folds online: bounded disk, bounded replay, no loss."""

    def test_rotation_policy_validation(self):
        from repro.serving import RotationPolicy

        with pytest.raises(ValueError, match="max_bytes and/or max_records"):
            RotationPolicy()
        with pytest.raises(ValueError, match="max_records"):
            RotationPolicy(max_records=0)
        policy = RotationPolicy(max_records=3)
        journal = DeltaJournal("/nonexistent")
        assert not policy.should_rotate(journal, 2)
        assert policy.should_rotate(journal, 3)

    def test_rotation_policy_byte_cap(self, tmp_path, monkeypatch):
        from repro.serving import RotationPolicy

        journal = DeltaJournal(str(tmp_path / "journal"))
        journal.append([{"epoch": 1, "op": "insert", "u": 0, "v": 1}])
        size = os.path.getsize(journal.path)

        def no_stat(_path):
            raise AssertionError("the byte cap stats the journal")

        # The held handle's position is the size: no stat per append.
        monkeypatch.setattr(os.path, "getsize", no_stat)
        assert journal.size() == size
        assert RotationPolicy(max_bytes=size).should_rotate(journal, 0)
        assert not RotationPolicy(max_bytes=size + 1).should_rotate(journal, 0)
        monkeypatch.undo()
        journal.close()
        assert journal.size() == size  # no handle: the file's size

    def test_byte_cap_between_two_journal_sizes_folds_on_the_crossing_append(
        self, tmp_path
    ):
        from repro.serving import RotationPolicy

        def sizes_and_base_epochs(directory, rotation):
            directory.mkdir()
            path = saved_artifact(directory)
            artifact = ColoringArtifact.load(path)
            du, dv = sorted(artifact.colors)[0]
            seen = []
            for toggle in (artifact.delete, artifact.insert, artifact.delete):
                toggle(du, dv)
                artifact.save(path, journal=True, rotation=rotation)
                jpath = journal_path(path)
                size = os.path.getsize(jpath) if os.path.exists(jpath) else 0
                seen.append((size, base_epoch(path)))
            artifact.close()
            return seen

        uncapped = sizes_and_base_epochs(tmp_path / "uncapped", None)
        assert [epoch for _size, epoch in uncapped] == [0, 0, 0]
        # A cap strictly between the 2nd and 3rd sizes: the 3rd append
        # reaches it and folds, as the stat-based check did.
        cap = uncapped[1][0] + 1
        assert cap < uncapped[2][0]
        capped = sizes_and_base_epochs(tmp_path / "capped", RotationPolicy(max_bytes=cap))
        assert capped == uncapped[:2] + [(0, 3)]

    def _churned_save(self, artifact, path, rotation, rounds):
        """Absorb ``rounds`` toggles, journal-saving (with rotation) each."""
        du, dv = sorted(artifact.colors)[0]
        for _ in range(rounds):
            artifact.delete(du, dv)
            artifact.save(path, journal=True, rotation=rotation)
            artifact.insert(du, dv)
            artifact.save(path, journal=True, rotation=rotation)

    def test_rotation_folds_into_the_base_and_replays(self, tmp_path):
        from repro.serving import RotationPolicy

        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        self._churned_save(artifact, path, RotationPolicy(max_records=3), rounds=5)

        # Ten deltas under a 3-record cap: folds at epochs 3, 6 and 9,
        # then the journal restarts and holds epoch 10 alone.
        assert base_epoch(path) == 9
        assert [r["epoch"] for r in DeltaJournal(journal_path(path)).records()] == [10]
        assert artifact.journal_records == 1
        assert artifact_files(path) == ["artifact.json", "artifact.json.journal"]

        recovered = ColoringArtifact.load(path)
        assert recovered.epoch == artifact.epoch == 10
        assert recovered.colors == artifact.colors
        recovered.verify()

    def test_full_save_clears_journal(self, tmp_path):
        from repro.serving import RotationPolicy

        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        du, dv = sorted(artifact.colors)[0]
        artifact.delete(du, dv)
        artifact.save(path, journal=True, rotation=RotationPolicy(max_records=2))
        assert base_epoch(path) == 0 and os.path.exists(journal_path(path))
        artifact.save(path)  # a full save supersedes the journal
        assert artifact_files(path) == ["artifact.json"]
        reloaded = ColoringArtifact.load(path)
        assert base_epoch(path) == reloaded.epoch == artifact.epoch == 1
        assert reloaded.colors == artifact.colors

    def test_byte_cap_folds_every_oversized_save(self, tmp_path):
        from repro.serving import RotationPolicy

        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        # Any appended record outgrows a 1-byte cap, so each journal save
        # folds at once and the journal never outlives the save.
        self._churned_save(artifact, path, RotationPolicy(max_bytes=1), rounds=2)
        assert base_epoch(path) == artifact.epoch == 4
        assert artifact.journal_records == 0
        assert artifact_files(path) == ["artifact.json"]
        reloaded = ColoringArtifact.load(path)
        assert reloaded.colors == artifact.colors
        reloaded.verify()

    def test_fold_keeps_its_span_and_counter(self, tmp_path):
        from repro.obs import get_registry, read_events
        from repro.obs import trace as obs_trace
        from repro.serving import RotationPolicy

        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        trace_file = str(tmp_path / "trace.jsonl")
        rotations = get_registry().counter("journal.rotations").value
        obs_trace.configure(trace_file)
        try:
            # Four deltas under a 3-record cap: one fold, at epoch 3.
            self._churned_save(artifact, path, RotationPolicy(max_records=3), rounds=2)
        finally:
            obs_trace.disable()
        assert get_registry().counter("journal.rotations").value == rotations + 1
        folds = [e for e in read_events(trace_file) if e["name"] == "journal.rotate"]
        assert [e["attrs"] for e in folds] == [{"artifact": path}]
        assert base_epoch(path) == 3

    def test_load_ignores_leftover_segment_files(self, tmp_path):
        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        du, dv = sorted(artifact.colors)[0]
        artifact.delete(du, dv)
        artifact.save(path, journal=True)
        artifact.insert(du, dv)
        artifact.save(path, journal=True)
        # A segment as older versions left it: records already in the base.
        with open(journal_path(path), "rb") as handle:
            segment = handle.read()
        artifact.save(path)
        with open(journal_path(path) + ".1", "wb") as handle:
            handle.write(segment)

        reloaded = ColoringArtifact.load(path)
        assert reloaded.epoch == base_epoch(path) == 2
        assert reloaded.journal_records == 0
        assert reloaded.colors == artifact.colors
        reloaded.verify()

    def test_fold_killed_before_the_journal_delete(self, tmp_path, monkeypatch):
        from repro.serving import RotationPolicy

        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        du, dv = sorted(artifact.colors)[0]
        rotation = RotationPolicy(max_records=2)
        artifact.delete(du, dv)
        artifact.save(path, journal=True, rotation=rotation)
        artifact.insert(du, dv)

        def killed(_self):
            raise OSError("killed between the JSON rewrite and the journal delete")

        monkeypatch.setattr(DeltaJournal, "clear", killed)
        with pytest.raises(OSError, match="killed"):
            artifact.save(path, journal=True, rotation=rotation)
        monkeypatch.undo()

        # The rewrite landed; the stale journal only holds folded records.
        assert base_epoch(path) == 2
        assert [r["epoch"] for r in DeltaJournal(journal_path(path)).records()] == [1, 2]
        recovered = ColoringArtifact.load(path)
        assert recovered.epoch == artifact.epoch == 2
        assert recovered.colors == artifact.colors

        # The next journal save appends after the stale records, and
        # replay skips those and applies the new one.
        recovered.delete(du, dv)
        recovered.save(path, journal=True)
        assert [r["epoch"] for r in DeltaJournal(journal_path(path)).records()] == [1, 2, 3]
        replayed = ColoringArtifact.load(path)
        assert replayed.epoch == 3 and not replayed.graph.has_edge(du, dv)
        assert replayed.colors == recovered.colors
        replayed.verify()
        assert artifact_files(path) == ["artifact.json", "artifact.json.journal"]

    def test_daemon_rotates_online_and_compacts_on_shutdown(self, tmp_path):
        path = saved_artifact(tmp_path)
        twin = ServingSession(ColoringArtifact.load(path), rebase_policy=None)
        batch = churn_batch(twin.artifact, rounds=8)
        expected = twin.serve_batch(batch)

        daemon = ColoringDaemon(path, journal_max_records=3, rebase_policy=None)
        host, port = daemon.start()
        try:
            with connect((host, port)) as client:
                got = client.request_many(batch)
            live = daemon.session.artifact
            assert base_epoch(path) > 0, "daemon never folded online"
            assert base_epoch(path) + live.journal_records == live.epoch
            assert live.journal_records < 3
            assert artifact_files(path) in (
                ["artifact.json"], ["artifact.json", "artifact.json.journal"]
            )
            # Mid-life crash replay covers base + journal.
            recovered = ColoringArtifact.load(path)
            assert recovered.epoch == live.epoch
            assert recovered.colors == live.colors
        finally:
            daemon.stop(compact=True)
        assert got == expected
        assert artifact_files(path) == ["artifact.json"]
        final = ColoringArtifact.load(path)
        assert final.epoch == base_epoch(path) == twin.artifact.epoch
        assert final.colors == twin.artifact.colors

    def test_resolved_port_is_printed_and_nonzero(self, tmp_path):
        path = saved_artifact(tmp_path)
        daemon = ColoringDaemon(path, listen="127.0.0.1:0", journal=False)
        host, port = daemon.start()
        try:
            assert host == "127.0.0.1" and port != 0
        finally:
            daemon.stop(compact=False)
        # The subprocess driver depends on the exact stdout line; it
        # parses "listening on HOST:PORT" with the *resolved* port.
        with spawned_daemon(path, listen="127.0.0.1:0") as (_process, shost, sport):
            assert sport != 0
            with connect((shost, sport)) as client:
                stats = client.request({"op": "stats", "scope": "daemon"})
            assert stats["ok"] and stats["proto"] == "repro-serving/v1"
