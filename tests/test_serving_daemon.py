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
class TestJournalRotation:
    """Online compact-and-rotate: bounded disk, bounded replay, no loss."""

    def test_rotation_policy_validation(self):
        from repro.serving import RotationPolicy, resolve_rotation

        with pytest.raises(ValueError, match="max_bytes and/or max_records"):
            RotationPolicy()
        with pytest.raises(ValueError, match="max_records"):
            RotationPolicy(max_records=0)
        policy = RotationPolicy(max_records=3)
        assert not policy.should_rotate("/nonexistent", 2)
        assert policy.should_rotate("/nonexistent", 3)
        assert resolve_rotation(None) is None
        assert resolve_rotation("off") is None
        assert resolve_rotation(policy) is policy
        with pytest.raises(ValueError, match="unknown rotation"):
            resolve_rotation("hourly")

    def test_rotation_policy_byte_cap(self, tmp_path):
        from repro.serving import RotationPolicy

        target = tmp_path / "journal"
        target.write_text("x" * 100)
        policy = RotationPolicy(max_bytes=100)
        assert policy.should_rotate(str(target), 0)
        assert not RotationPolicy(max_bytes=101).should_rotate(str(target), 0)

    def _churned_save(self, artifact, path, rotation, rounds):
        """Absorb ``rounds`` toggles, journal-saving (with rotation) each."""
        du, dv = sorted(artifact.colors)[0]
        for _ in range(rounds):
            artifact.delete(du, dv)
            artifact.save(path, journal=True, rotation=rotation)
            artifact.insert(du, dv)
            artifact.save(path, journal=True, rotation=rotation)

    def test_rotate_creates_prunes_and_replays_segments(self, tmp_path):
        from repro.serving import RotationPolicy, segment_paths

        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        rotation = RotationPolicy(max_records=2, keep_segments=2)
        self._churned_save(artifact, path, rotation, rounds=5)

        segments = segment_paths(path)
        assert len(segments) == 2, "keep_segments must prune older segments"
        # Segment numbering keeps ascending across prunes.
        numbers = [int(p.rsplit(".", 1)[1]) for p in segments]
        assert numbers == sorted(numbers) and numbers[-1] >= 4

        # Replay (base + retained segments + active journal) lands on
        # the live state: rotation folded first, so nothing is lost or
        # double-applied.
        recovered = ColoringArtifact.load(path)
        assert recovered.epoch == artifact.epoch == 10
        assert recovered.colors == artifact.colors
        recovered.verify()

    def test_full_save_clears_journal_and_segments(self, tmp_path):
        from repro.serving import RotationPolicy, segment_paths

        path = saved_artifact(tmp_path)
        artifact = ColoringArtifact.load(path)
        self._churned_save(
            artifact, path, RotationPolicy(max_records=2), rounds=3
        )
        assert segment_paths(path)
        artifact.save(path)  # full save supersedes journal + segments
        assert not os.path.exists(journal_path(path))
        assert segment_paths(path) == []
        reloaded = ColoringArtifact.load(path)
        assert reloaded.epoch == artifact.epoch
        assert reloaded.colors == artifact.colors

    def test_daemon_rotates_online_and_compacts_on_shutdown(self, tmp_path):
        from repro.serving import segment_paths

        path = saved_artifact(tmp_path)
        twin = ServingSession(ColoringArtifact.load(path), rebase_policy=None)
        batch = churn_batch(twin.artifact, rounds=8)
        expected = twin.serve_batch(batch)

        daemon = ColoringDaemon(path, journal_max_records=2, rebase_policy=None)
        host, port = daemon.start()
        try:
            with connect((host, port)) as client:
                got = client.request_many(batch)
            assert segment_paths(path), "daemon never rotated online"
            # Mid-life crash replay covers base + segments + active.
            recovered = ColoringArtifact.load(path)
            assert recovered.epoch == daemon.session.artifact.epoch
            assert recovered.colors == daemon.session.artifact.colors
        finally:
            daemon.stop(compact=True)
        assert got == expected
        assert not os.path.exists(journal_path(path))
        assert segment_paths(path) == []
        final = ColoringArtifact.load(path)
        assert final.epoch == twin.artifact.epoch
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
