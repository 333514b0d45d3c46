"""The ``repro-serving/v1`` wire protocol and its concurrency contract.

Three pinned surfaces:

* **wire stability** — golden request/response round-trips and the
  :data:`repro.serving.protocol.ERROR_CODES` table are API: these tests
  fail on any rename or shape drift;
* **client surface** — :func:`repro.serving.connect` returns the same
  duck-typed client for every target kind;
* **linearizability** — concurrent mixed read/write schedules against
  one :class:`ServingSession` (and against a threaded in-process
  daemon over real sockets) are bit-identical to a serial twin that
  replays the writes in epoch order, with every snapshot read valid at
  some epoch inside its issuer's write window.
"""

import json
import threading

import pytest

from repro.graphs import generators
from repro.runtime.spec import canonical_json
from repro.serving import (
    ColoringArtifact,
    ServingSession,
    artifact_from_coloring,
    build_artifact,
    connect,
    journal_path,
)
from repro.serving import protocol
from repro.serving.daemon import ColoringDaemon, DaemonClient, SessionClient
from repro.serving.journal import DeltaJournal
from repro.serving.protocol import (
    ERROR_CODES,
    PROTOCOL_FORMAT,
    DeltaRequest,
    ProtocolError,
    QueryRequest,
    RebaseRequest,
    ShutdownRequest,
    StatsRequest,
)


def small_graph():
    return generators.random_regular_graph(24, 4, seed=7)


def fresh_session(**kwargs):
    return ServingSession(build_artifact(small_graph()), **kwargs)


# ------------------------------------------------------------------ wire pins
class TestWireGoldens:
    """Golden round-trips: raw payload -> typed request -> canonical wire."""

    ROUND_TRIPS = [
        ({"op": "color", "u": 0, "v": 1}, QueryRequest),
        ({"op": "node_palette", "v": 3}, QueryRequest),
        ({"op": "schedule", "v": 5}, QueryRequest),
        ({"op": "stats"}, StatsRequest),
        ({"op": "stats", "scope": "daemon"}, StatsRequest),
        ({"op": "insert", "u": 2, "v": 7}, DeltaRequest),
        ({"op": "delete", "u": 2, "v": 7}, DeltaRequest),
        ({"op": "set_list", "u": 2, "v": 7, "colors": [1, 2, 3]}, DeltaRequest),
        ({"op": "set_list", "u": 2, "v": 7, "colors": None}, DeltaRequest),
        ({"op": "rebase"}, RebaseRequest),
        ({"op": "shutdown"}, ShutdownRequest),
    ]

    def test_parse_to_wire_round_trips(self):
        for payload, expected_type in self.ROUND_TRIPS:
            parsed = protocol.parse_request(payload)
            assert isinstance(parsed, expected_type), payload
            wire = parsed.to_wire()
            # to_wire() reproduces exactly the canonical fields.
            expected = {k: v for k, v in payload.items() if not (
                k == "colors" and v is None and payload["op"] != "set_list"
            )}
            assert wire == expected, payload

    def test_encode_request_is_canonical(self):
        line = protocol.encode_request({"op": "color", "v": 1, "u": 0})
        assert line == '{"op": "color", "u": 0, "v": 1}'
        parsed = protocol.parse_request({"op": "set_list", "u": 1, "v": 2, "colors": [3]})
        assert protocol.encode_request(parsed) == (
            '{"colors": [3], "op": "set_list", "u": 1, "v": 2}'
        )

    def test_encode_response_sorts_keys(self):
        assert protocol.encode_response({"op": "x", "ok": True}) == (
            '{"ok": true, "op": "x"}'
        )

    def test_shared_encoders_write_the_json_dumps_bytes(self, tmp_path):
        payloads = [
            {"op": "schedule", "ok": True, "slots": [[0, 5], [3, 1]], "epoch": 7},
            {"error": "naïve \u2028 \"quoted\"", "code": "bad-field", "ok": False, "op": None},
            {"z": {"b": 1.5, "a": [None, True]}, "colors": []},
        ]
        for payload in payloads:
            assert protocol.encode_response(payload) == json.dumps(payload, sort_keys=True)
            assert protocol.encode_request(payload) == json.dumps(payload, sort_keys=True)
        journal = DeltaJournal(str(tmp_path / "artifact.json.journal"))
        records = [
            {"epoch": 3, "op": "set_list", "u": 1, "v": 7, "colors": [2, 4]},
            {"epoch": 4, "op": "delete", "u": 0, "v": 9, "colors": None},
        ]
        journal.append(records)
        journal.close()
        lines = (tmp_path / "artifact.json.journal").read_text().splitlines()[1:]
        assert lines == [
            json.dumps(record, sort_keys=True, separators=(",", ":")) for record in records
        ]

    def test_int_coercion_accepts_numeric_rejects_bool(self):
        parsed = protocol.parse_request({"op": "color", "u": "3", "v": 4.0})
        assert (parsed.u, parsed.v) == (3, 4)
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request({"op": "color", "u": True, "v": 1})
        assert err.value.code == "bad-field"

    def test_envelope_fields_are_stripped_and_ignored(self):
        payload = {
            "op": "color",
            "u": 0,
            "v": 1,
            "proto": PROTOCOL_FORMAT,
            "trace": {"trace_id": "t", "span_id": "s"},
            "future_field": 42,
        }
        assert protocol.parse_request(payload) == QueryRequest(op="color", u=0, v=1)
        stripped = protocol.strip_envelope(payload)
        assert "proto" not in stripped and "trace" not in stripped
        assert stripped["future_field"] == 42

    def test_op_classification(self):
        assert set(protocol.READ_OPS) == {"color", "node_palette", "schedule", "stats"}
        assert set(protocol.DELTA_OPS) == {"insert", "delete", "set_list"}


# ---------------------------------------------------------------- error codes
class TestErrorCodeStability:
    """The code table is API: pinned names, pinned trigger scenarios."""

    def test_error_code_table_is_stable(self):
        # Never rename or drop; only add.  This pin is the contract.
        assert set(ERROR_CODES) >= {
            "malformed-request",
            "not-an-object",
            "unsupported-protocol",
            "unknown-op",
            "bad-field",
            "absent-edge",
            "node-out-of-range",
            "bad-list",
            "list-exhausted",
            "lookup-only",
            "wire-only",
            "repair-failed",
        }

    def test_error_response_shape(self):
        wire = protocol.error_response("unknown-op", "unknown op 'teleport'", op="teleport")
        assert wire == {
            "ok": False,
            "op": "teleport",
            "error": "unknown op 'teleport'",
            "code": "unknown-op",
        }
        with pytest.raises(ValueError, match="unknown error code"):
            protocol.error_response("made-up-code", "nope")

    def test_malformed_and_not_an_object(self):
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request_line("{not json")
        assert err.value.code == "malformed-request"
        with pytest.raises(ProtocolError) as err:
            protocol.decode_request_line("[1, 2, 3]")
        assert err.value.code == "not-an-object"

    def test_session_answers_structured_errors(self):
        session = fresh_session()
        graph = session.artifact.graph

        def code_of(request):
            response = session.query(request)
            assert response["ok"] is False
            return response["code"]

        assert code_of({"op": "teleport"}) == "unknown-op"
        assert "teleport" in session.query({"op": "teleport"})["error"]
        assert code_of({"op": "color", "v": 1}) == "bad-field"
        assert code_of({"op": "stats", "proto": "repro-serving/v99"}) == (
            "unsupported-protocol"
        )
        absent = next(
            (u, v)
            for u in range(graph.num_nodes)
            for v in range(u + 1, graph.num_nodes)
            if not graph.has_edge(u, v)
        )
        assert code_of({"op": "color", "u": absent[0], "v": absent[1]}) == "absent-edge"
        assert code_of({"op": "delete", "u": absent[0], "v": absent[1]}) == "absent-edge"
        assert code_of({"op": "node_palette", "v": 10**6}) == "node-out-of-range"
        u, v = sorted(session.artifact.colors)[0]
        assert code_of({"op": "set_list", "u": u, "v": v, "colors": []}) == "bad-list"
        assert code_of({"op": "shutdown"}) == "wire-only"

    def test_out_of_range_endpoints_answer_stable_codes(self):
        # -1 and n are outside the node range: no edge reaches them, and
        # no node lookup answers for them.
        session = fresh_session()
        n = session.artifact.num_nodes
        for x in (-1, n):
            for u, v in ((x, 0), (0, x), (x, n - 1), (n - 1, x)):
                for request in (
                    {"op": "delete", "u": u, "v": v},
                    {"op": "set_list", "u": u, "v": v, "colors": [0]},
                    {"op": "color", "u": u, "v": v},
                ):
                    response = session.query(request)
                    assert (response["ok"], response["code"]) == (False, "absent-edge")
            for op in ("node_palette", "schedule"):
                response = session.query({"op": op, "v": x})
                assert (response["ok"], response["code"]) == (False, "node-out-of-range")
        assert session.artifact.epoch == 0
        assert session.artifact.verify()

    def test_lookup_only_artifact_rejects_deltas_with_code(self):
        graph = small_graph()
        canonical = build_artifact(graph)
        edge_colors = [
            canonical.colors[tuple(sorted(graph.edge_endpoints(e)))]
            for e in range(graph.num_edges)
        ]
        session = ServingSession(artifact_from_coloring(graph, edge_colors))
        u, v = sorted(session.artifact.colors)[0]
        response = session.query({"op": "delete", "u": u, "v": v})
        assert response["ok"] is False and response["code"] == "lookup-only"


# -------------------------------------------------------------------- connect
class TestConnectDispatch:
    def test_connect_session_and_artifact_are_in_process(self):
        artifact = build_artifact(small_graph())
        with connect(ServingSession(artifact)) as client:
            assert isinstance(client, SessionClient)
            assert client.request({"op": "stats"})["ok"]
        with connect(artifact) as client:
            assert isinstance(client, SessionClient)

    def test_connect_artifact_path_wins_over_address_shape(self, tmp_path):
        # A file named like HOST:PORT must still be served in-process.
        path = str(tmp_path / "127.0.0.1:9")
        build_artifact(small_graph()).save(path)
        with connect(path) as client:
            assert isinstance(client, SessionClient)
            assert client.request({"op": "stats"})["ok"]

    def test_connect_in_process_shutdown_is_wire_only(self):
        with connect(build_artifact(small_graph())) as client:
            response = client.shutdown()
        assert response["ok"] is False and response["code"] == "wire-only"

    def test_connect_rejects_unknown_targets(self):
        with pytest.raises(ValueError, match="neither an existing artifact"):
            connect("/no/such/file/and/not/an/address")
        with pytest.raises(TypeError):
            connect(42)

    def test_connect_address_builds_a_daemon_client(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        build_artifact(small_graph()).save(path)
        daemon = ColoringDaemon(path, journal=False)
        host, port = daemon.start()
        try:
            with connect((host, port)) as client:
                assert isinstance(client, DaemonClient)
                assert client.request({"op": "stats"})["ok"]
            with connect(f"{host}:{port}") as client:
                assert isinstance(client, DaemonClient)
        finally:
            daemon.stop(compact=False)


# ------------------------------------------------------------- linearizability
def _disjoint_write_streams(artifact, clients, toggles):
    """Per-client toggle streams over pairwise-non-adjacent owner nodes.

    Disjoint write sets make the final state interleaving-independent
    (each toggle restores its edge; the canonical fixed point of the
    restored graph is unique), which is what lets the stress tests
    assert bit-identity instead of mere plausibility.
    """
    graph = artifact.graph
    owners, excluded = [], set()
    for node in range(graph.num_nodes):
        if node in excluded:
            continue
        neighbors = {w for (u, v) in artifact.colors for w in (u, v) if node in (u, v)} - {node}
        if len(neighbors) < toggles:
            continue
        owners.append(node)
        excluded.add(node)
        excluded.update(neighbors)
        if len(owners) == clients:
            break
    assert len(owners) == clients
    owner_set = set(owners)
    streams = []
    for owner in owners:
        edges = sorted(e for e in artifact.colors if owner in e)[:toggles]
        writes = []
        for u, v in edges:
            writes.append({"op": "delete", "u": u, "v": v})
            writes.append({"op": "insert", "u": u, "v": v})
        streams.append(writes)
    stable = sorted(
        e for e in artifact.colors if e[0] not in owner_set and e[1] not in owner_set
    )
    return streams, stable


class TestLinearizability:
    """Concurrent schedules == some serial schedule, bit for bit."""

    CLIENTS = 4
    TOGGLES = 3

    def test_concurrent_session_is_linearizable(self):
        artifact = build_artifact(generators.random_regular_graph(48, 4, seed=3))
        base_colors = dict(artifact.colors)
        epoch0 = artifact.epoch
        session = ServingSession(artifact, rebase_policy=None)
        streams, stable = _disjoint_write_streams(artifact, self.CLIENTS, self.TOGGLES)

        # Each client: write, then read its own toggled edge and a
        # stable edge, recording the epoch window [prev own write epoch,
        # next own write epoch - 1] each read must be explainable in.
        records = [[] for _ in streams]

        def run_client(index, writes):
            log = records[index]
            prev_epoch = epoch0
            for write in writes:
                read_own = {"op": "color", "u": write["u"], "v": write["v"]}
                ru, rv = stable[index % len(stable)]
                read_stable = {"op": "color", "u": ru, "v": rv}
                own_answer = session.query(read_own)
                stable_answer = session.query(read_stable)
                ack = session.query(write)
                assert ack["ok"], ack
                log.append((read_own, own_answer, prev_epoch, ack["epoch"] - 1))
                log.append((read_stable, stable_answer, prev_epoch, ack["epoch"] - 1))
                prev_epoch = ack["epoch"]
            log.append(("final-epoch", prev_epoch))

        threads = [
            threading.Thread(target=run_client, args=(i, writes))
            for i, writes in enumerate(streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total_writes = sum(len(w) for w in streams)
        assert session.artifact.epoch == epoch0 + total_writes
        # Interleaving-independent fixed point: every toggle restored.
        assert session.artifact.colors == base_colors
        session.artifact.verify()

        # Serial twin: replay *all* writes in epoch order on a fresh
        # session, snapshotting every read's answer at every epoch.
        twin = ServingSession(
            build_artifact(generators.random_regular_graph(48, 4, seed=3)),
            rebase_policy=None,
        )
        # Writes in epoch order across all clients: collect (epoch, op).
        epoch_order = {}
        for index, writes in enumerate(streams):
            log = [e for e in records[index] if e[0] != "final-epoch"]
            # own-read windows alternate with writes; the write that
            # closed window k produced epoch hi_k + 1.
            for k, write in enumerate(writes):
                hi = log[2 * k][3]
                epoch_order[hi + 1] = write
        assert sorted(epoch_order) == list(range(epoch0 + 1, epoch0 + total_writes + 1))

        read_requests = {
            canonical_json(entry[0]): entry[0]
            for log in records
            for entry in log
            if entry[0] != "final-epoch"
        }
        answers_at = {key: {} for key in read_requests}
        for key, request in read_requests.items():
            answers_at[key][epoch0] = twin.query(request)
        for epoch in sorted(epoch_order):
            ack = twin.query(epoch_order[epoch])
            assert ack == {"ok": True, "op": epoch_order[epoch]["op"], "epoch": epoch}
            for key, request in read_requests.items():
                answers_at[key][epoch] = twin.query(request)
        assert twin.artifact.colors == session.artifact.colors

        # Every concurrent read matches the serial twin at some epoch
        # inside its issuer's write window.
        for log in records:
            for entry in log:
                if entry[0] == "final-epoch":
                    continue
                request, answer, lo, hi = entry
                window = [
                    answers_at[canonical_json(request)][e] for e in range(lo, hi + 1)
                ]
                assert answer in window, (
                    f"read {request} answered {answer}, not explainable at any "
                    f"epoch in [{lo}, {hi}]"
                )

    def test_threaded_daemon_matches_journal_order_twin(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        base = str(tmp_path / "base.json")
        built = build_artifact(generators.random_regular_graph(48, 4, seed=3))
        built.save(path)
        built.save(base)
        streams, stable = _disjoint_write_streams(built, self.CLIENTS, self.TOGGLES)

        daemon = ColoringDaemon(path, journal=True, rebase_policy=None)
        host, port = daemon.start()
        acks = [[] for _ in streams]
        try:
            def run_client(index, writes):
                with connect((host, port)) as client:
                    for write in writes:
                        ru, rv = stable[index % len(stable)]
                        read = client.request({"op": "color", "u": ru, "v": rv})
                        assert read["ok"], read
                        acks[index].append(client.request(write))

            threads = [
                threading.Thread(target=run_client, args=(i, w))
                for i, w in enumerate(streams)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            daemon.stop(compact=False)

        flat = [ack for per_client in acks for ack in per_client]
        assert all(ack["ok"] for ack in flat)
        total_writes = sum(len(w) for w in streams)
        assert sorted(ack["epoch"] for ack in flat) == list(
            range(built.epoch + 1, built.epoch + total_writes + 1)
        )

        # Journal order == epoch order == ack order (per client, acks
        # are monotone; globally, the journal is the total order).
        journal = DeltaJournal(journal_path(path))
        journal_records = journal.records()
        assert [r["epoch"] for r in journal_records] == list(
            range(built.epoch + 1, built.epoch + total_writes + 1)
        )
        for per_client in acks:
            epochs = [ack["epoch"] for ack in per_client]
            assert epochs == sorted(epochs)

        # Serial twin replay of the journal's total order on the
        # untouched base is bit-identical to the daemon's end state.
        twin = ServingSession(ColoringArtifact.load(base), rebase_policy=None)
        for record in journal_records:
            request = {"op": record["op"], "u": record["u"], "v": record["v"]}
            if record["op"] == "set_list":
                request["colors"] = record["colors"]
            ack = twin.query(request)
            assert ack["ok"] and ack["epoch"] == record["epoch"]
        assert twin.artifact.colors == daemon.session.artifact.colors
        assert twin.artifact.epoch == daemon.session.artifact.epoch

        # Crash-replay equivalence: loading base+journal from disk lands
        # on the same state (nothing acknowledged was lost).
        recovered = ColoringArtifact.load(path)
        assert recovered.epoch == daemon.session.artifact.epoch
        assert recovered.colors == daemon.session.artifact.colors
        recovered.verify()


# ------------------------------------------------------------------- CLI pins
class TestCliProtocol:
    def test_query_cli_answers_protocol_errors(self, tmp_path, capsys):
        from repro import cli

        path = str(tmp_path / "artifact.json")
        build_artifact(small_graph()).save(path)
        rc = cli.main(
            ["query", path, "--request", "{not json", "--request", '{"op": "stats"}']
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 1  # one failure in the batch
        first, second = json.loads(out[0]), json.loads(out[1])
        assert first["ok"] is False and first["code"] == "malformed-request"
        assert second["ok"] is True and second["op"] == "stats"
