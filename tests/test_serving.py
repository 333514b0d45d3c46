"""Serving plane: offline build, incremental repair, sessions, CLI.

The load-bearing suite here is :class:`TestTwinDiscipline` — the
acceptance contract that the incremental repair path is **bit-identical**
to a from-scratch recompute across the full delta matrix
(insert / delete / list-change) under every ``repair_path`` knob and
under forced radius-limit fallback.
"""

import copy
import json
import random

import pytest

from repro import api, cli
from repro.graphs import generators
from repro.graphs.delta import DeltaGraph
from repro.runtime.spec import Knobs
from repro.runtime.workloads import RUNNERS, CellContext
from repro.serving import (
    DEFAULT_RADIUS_LIMIT,
    ColoringArtifact,
    RebasePolicy,
    RepairError,
    ServingSession,
    artifact_from_coloring,
    artifact_from_list_coloring,
    build_artifact,
    full_recompute,
    normalize_list,
    resolve_rebase_policy,
    resolve_repair_path,
    result_cache_key,
)
from repro.serving import protocol
from repro.serving.protocol import PROTOCOL_FORMAT, parse_request
from repro.serving.repair import choose_color


def small_graph():
    return generators.random_regular_graph(24, 4, seed=7)


def absent_pair(graph):
    """The lexicographically first edge *not* present in ``graph``."""
    for u in range(graph.num_nodes):
        for v in range(u + 1, graph.num_nodes):
            if not graph.has_edge(u, v):
                return (u, v)
    raise AssertionError("graph is complete")


def rebuilt_twin(artifact):
    """A fresh canonical artifact for the artifact's *current* edge set."""
    return build_artifact(artifact.graph.snapshot(), dict(artifact.lists))


# --------------------------------------------------------------------- repair
class TestRepairPrimitives:
    def test_resolve_repair_path(self):
        assert resolve_repair_path(None) == "incremental"
        assert resolve_repair_path("auto") == "incremental"
        assert resolve_repair_path("recompute") == "recompute"
        with pytest.raises(ValueError, match="unknown repair_path"):
            resolve_repair_path("magic")

    def test_normalize_list(self):
        assert normalize_list([3, 1, 3, 2]) == (1, 2, 3)
        with pytest.raises(RepairError):
            normalize_list([])
        with pytest.raises(RepairError):
            normalize_list([0, -1])

    def test_choose_color_open_palette_is_mex(self):
        assert choose_color(0b0, None) == 0
        assert choose_color(0b1011, None) == 2
        assert choose_color((1 << 60) - 1, None) == 60

    def test_choose_color_demand_list(self):
        assert choose_color(0b0110, (1, 2, 5)) == 5
        with pytest.raises(RepairError, match="exhausted"):
            choose_color(0b100110, (1, 2, 5))


class TestOfflineBuild:
    def test_build_is_canonical_and_verifies(self):
        graph = small_graph()
        artifact = build_artifact(graph)
        assert artifact.canonical and artifact.epoch == 0
        assert len(artifact.colors) == graph.num_edges
        assert artifact.verify()
        assert artifact.colors == full_recompute(DeltaGraph(graph), {})

    def test_build_respects_demand_lists(self):
        graph = generators.cycle_graph(8)
        lists = {(0, 1): (5, 7), (2, 3): (4,)}
        artifact = build_artifact(graph, lists)
        assert artifact.color(0, 1) in (5, 7)
        assert artifact.color(2, 3) == 4
        assert artifact.verify()

    def test_build_rejects_list_for_absent_edge(self):
        with pytest.raises(RepairError, match="absent edge"):
            build_artifact(generators.cycle_graph(8), {(0, 4): (1, 2)})

    def test_palette_table_and_stats(self):
        artifact = build_artifact(small_graph())
        table = artifact.palette_table()
        assert sum(table.values()) == artifact.num_edges
        assert list(table) == sorted(table)
        stats = artifact.stats()
        assert stats["num_colors"] == artifact.num_colors == len(table)
        assert stats["canonical"] is True

    def test_reads(self):
        graph = small_graph()
        artifact = build_artifact(graph)
        v = 0
        palette = artifact.node_colors(v)
        assert len(palette) == graph.degree(v) == len(set(palette))
        slots = artifact.schedule(v)
        assert [c for c, _w in slots] == palette
        assert sorted(w for _c, w in slots) == list(graph.neighbors(v))
        for c, w in slots:
            assert artifact.color(v, w) == c
        with pytest.raises(RepairError, match="not present"):
            artifact.color(0, 0)
        with pytest.raises(RepairError, match="out of range"):
            artifact.node_colors(999)


# ------------------------------------------------------------ twin discipline
class TestTwinDiscipline:
    """Incremental repair is bit-identical to from-scratch recompute."""

    @pytest.mark.parametrize("path", ["incremental", "recompute"])
    @pytest.mark.parametrize(
        "op,extra",
        [
            ("insert", ()),
            ("delete", ()),
            ("set_list", ((9, 11),)),
            ("set_list", (None,)),
        ],
    )
    def test_single_delta_matches_rebuild(self, path, op, extra):
        graph = small_graph()
        if op == "insert":
            args = absent_pair(graph) + extra
        else:
            args = tuple(sorted(graph.edge_endpoints(0))) + extra
        artifact = build_artifact(graph)
        report = getattr(artifact, op)(*args, path=path)
        assert report.path == path
        assert report.epoch == artifact.epoch == 1
        assert artifact.verify()
        assert artifact.colors == rebuilt_twin(artifact).colors

    @pytest.mark.parametrize("radius_limit", [0, 1, DEFAULT_RADIUS_LIMIT])
    def test_fallback_reaches_same_fixed_point(self, radius_limit):
        graph = small_graph()
        artifact = build_artifact(graph)
        u, v = sorted(graph.edge_endpoints(0))
        report = artifact.delete(u, v, path="incremental", radius_limit=radius_limit)
        assert artifact.verify()
        assert artifact.colors == rebuilt_twin(artifact).colors
        if radius_limit == 0:
            assert report.fallback  # worklist never allowed to run

    def test_randomized_churn_twins_stay_identical(self):
        """80 mixed deltas: incremental twin == recompute twin after each."""
        base = generators.random_regular_graph(40, 4, seed=3)
        inc = build_artifact(base)
        rec = build_artifact(base)
        rng = random.Random(17)
        n = base.num_nodes
        present = sorted(inc.colors)
        fallbacks = 0
        for step in range(80):
            kind = step % 3
            if kind == 0 and present:  # delete
                u, v = present.pop(rng.randrange(len(present)))
                r1 = inc.delete(u, v, path="incremental")
                rec.delete(u, v, path="recompute")
            elif kind == 1:  # insert a currently-absent edge
                while True:
                    u, v = rng.randrange(n), rng.randrange(n)
                    if u != v and not inc.graph.has_edge(u, v):
                        break
                key = (u, v) if u < v else (v, u)
                present.append(key)
                r1 = inc.insert(u, v, path="incremental")
                rec.insert(u, v, path="recompute")
            else:  # demand-list change on a present edge
                u, v = present[rng.randrange(len(present))]
                demand = tuple(sorted(rng.sample(range(16), 6)))
                r1 = inc.set_list(u, v, demand, path="incremental")
                rec.set_list(u, v, demand, path="recompute")
            fallbacks += r1.fallback
            assert inc.colors == rec.colors, f"diverged at step {step}"
            assert inc.epoch == rec.epoch
        assert inc.verify() and rec.verify()
        # the suite must actually exercise the worklist, not just fall back
        assert fallbacks < 40

    def test_insert_rejects_existing_edge_without_epoch_bump(self):
        artifact = build_artifact(generators.cycle_graph(8))
        with pytest.raises((RepairError, ValueError)):
            artifact.insert(0, 1)
        assert artifact.epoch == 0
        assert artifact.verify()

    def test_unsatisfiable_list_is_rejected(self):
        artifact = build_artifact(generators.cycle_graph(8))
        # (0,1) is the highest-priority edge, so its list always sticks;
        # forcing the same single color onto adjacent (1,2) must exhaust.
        artifact.set_list(0, 1, (5,))
        with pytest.raises(RepairError, match="exhausted"):
            artifact.set_list(1, 2, (5,))


# ---------------------------------------------------------------- lookup-only
class TestLookupArtifacts:
    def test_from_coloring_serves_reads_refuses_deltas(self):
        graph = small_graph()
        canonical = build_artifact(graph)
        edge_colors = [
            canonical.colors[tuple(sorted(graph.edge_endpoints(e)))]
            for e in graph.edges()
        ]
        lookup = artifact_from_coloring(graph, edge_colors)
        assert not lookup.canonical
        assert lookup.color(*graph.edge_endpoints(0)) == edge_colors[0]
        with pytest.raises(RepairError, match="lookup-only"):
            lookup.insert(0, 1)
        with pytest.raises(RepairError, match="lookup-only"):
            lookup.delete(*graph.edge_endpoints(0))

    def test_from_coloring_length_mismatch(self):
        with pytest.raises(RepairError, match="entries for"):
            artifact_from_coloring(small_graph(), [0, 1])

    def test_from_list_coloring_adopts_build_state(self):
        from collections import Counter

        from repro.core.list_edge_coloring import list_edge_coloring

        graph = generators.random_regular_graph(16, 4, seed=2)
        result = list_edge_coloring(graph)
        artifact = artifact_from_list_coloring(graph, result)
        assert artifact.builder == "list_edge_coloring"
        assert artifact.palette_table() == Counter(result.colors.values())
        for e in graph.edges():
            assert artifact.color(*graph.edge_endpoints(e)) == result.colors[e]


# -------------------------------------------------------------------- session
class TestServingSession:
    def test_reads_cache_by_epoch(self):
        session = ServingSession(build_artifact(small_graph()))
        req = {"op": "node_palette", "v": 3}
        first = session.query(req)
        assert first["ok"] and session.cache_stats()["misses"] == 1
        hit = session.query(req)  # served from cache (a fresh decode)
        assert hit == first and hit is not first
        assert session.cache_stats()["hits"] == 1
        # a delta bumps the epoch: same request misses, answer may differ
        session.query({"op": "delete", "u": 3, "v": session.artifact.schedule(3)[0][1]})
        second = session.query(req)
        assert second is not first
        assert session.cache_stats()["misses"] == 2
        assert len(second["colors"]) == len(first["colors"]) - 1

    def test_cache_eviction_and_disable(self):
        session = ServingSession(build_artifact(small_graph()), cache_size=1)
        session.query({"op": "node_palette", "v": 0})
        session.query({"op": "node_palette", "v": 1})
        stats = session.cache_stats()
        assert stats["evictions"] == 1 and stats["size"] == 1
        off = ServingSession(build_artifact(small_graph()), cache_size=0)
        req = {"op": "stats"}
        assert off.query(req) is not off.query(req)
        assert off.cache_stats()["hits"] == 0

    def test_result_cache_key_separates_epoch_and_request(self):
        req = parse_request({"op": "color", "u": 0, "v": 1})
        same = parse_request({"op": "color", "u": "0", "v": 1, "trace": {}, "x": 2})
        other = parse_request({"op": "node_palette", "v": 1})
        assert result_cache_key(0, req) == result_cache_key(0, same)
        assert result_cache_key(0, req) != result_cache_key(1, req)
        assert result_cache_key(0, req) != result_cache_key(0, other)

    def test_envelope_and_unknown_fields_share_one_cache_entry(self):
        session = ServingSession(build_artifact(small_graph()))
        u, v = sorted(session.artifact.colors)[0]
        plain = session.query({"op": "color", "u": u, "v": v})
        dressed = session.query(
            {
                "op": "color",
                "u": u,
                "v": v,
                "proto": PROTOCOL_FORMAT,
                "trace": {"trace_id": "t-1", "span_id": "s-1"},
                "extra": [1, 2],
            }
        )
        assert dressed == plain
        stats = session.cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)

    def test_cache_hit_neither_encodes_nor_copies(self, monkeypatch):
        session = ServingSession(build_artifact(small_graph()))
        req = {"op": "schedule", "v": 5}
        line = session.query_line(req)  # miss: encoded once, cached
        assert line == protocol.encode_response(session.query(req))
        calls = {"encode": 0, "deepcopy": 0}
        real_encode = protocol.encode_response

        def counting_encode(response):
            calls["encode"] += 1
            return real_encode(response)

        def counting_deepcopy(obj, memo=None):
            calls["deepcopy"] += 1
            return obj

        monkeypatch.setattr(protocol, "encode_response", counting_encode)
        monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
        assert session.query_line(req) is line  # the cached line itself
        assert session.query(req) == json.loads(line)
        assert calls == {"encode": 0, "deepcopy": 0}
        assert session.cache_stats()["hits"] == 3
        # a miss encodes exactly once
        session.query_line({"op": "schedule", "v": 6})
        assert calls == {"encode": 1, "deepcopy": 0}

    def test_stats_after_rebase_is_fresh(self):
        # Regression: stats was cached by epoch and rebase keeps the
        # epoch, so a stats after a rebase answered the pre-rebase
        # overlay_size / base_edges.
        session = ServingSession(build_artifact(generators.cycle_graph(8)), rebase_policy="off")
        assert session.query({"op": "insert", "u": 0, "v": 4})["ok"]
        before = session.query({"op": "stats"})
        assert (before["overlay_size"], before["base_edges"]) == (1, 8)
        assert session.query({"op": "rebase"})["ok"]
        after = session.query({"op": "stats"})
        assert after["epoch"] == before["epoch"]
        assert (after["overlay_size"], after["base_edges"]) == (0, 9)
        assert after == {"ok": True, "op": "stats", **session.artifact.stats()}
        assert session.cache_stats()["hits"] == 0

    def test_bad_requests_answer_instead_of_raising(self):
        session = ServingSession(build_artifact(generators.cycle_graph(6)))
        batch = [
            {"op": "teleport"},
            {"op": "color", "u": 0, "v": 3},  # absent edge
            {"op": "color", "u": 0},  # missing field
            {"op": "insert", "u": 0, "v": 1},  # already present
            {"op": "color", "u": 0, "v": 1},  # still served after failures
        ]
        responses = session.serve_batch(batch)
        assert [r["ok"] for r in responses] == [False, False, False, False, True]
        assert "teleport" in responses[0]["error"]
        assert session.artifact.epoch == 0  # failed delta absorbed nothing

    def test_delta_responses_are_path_independent(self):
        graph = small_graph()
        iu, iv = absent_pair(graph)
        du, dv = sorted(graph.edge_endpoints(0))
        batch = [
            {"op": "insert", "u": iu, "v": iv},
            {"op": "color", "u": iu, "v": iv},
            {"op": "delete", "u": iu, "v": iv},
            {"op": "set_list", "u": du, "v": dv, "colors": [3, 5, 7, 9, 11]},
            {"op": "node_palette", "v": 0},
            {"op": "stats"},
        ]
        twins = {}
        for path in ("incremental", "recompute"):
            session = ServingSession(build_artifact(graph), repair_path=path)
            twins[path] = session.serve_batch(batch)
            assert all(r["ok"] for r in twins[path])
            assert len(session.reports) == 3
            assert {r["path"] for r in session.reports} == {path}
            assert session.artifact.verify()
        assert twins["incremental"] == twins["recompute"]

    def test_api_entry_point(self):
        session = api.build_coloring_service(small_graph(), repair_path="recompute")
        assert isinstance(session, ServingSession)
        assert session.repair_path == "recompute"
        assert session.query({"op": "stats"})["ok"]

    def test_mutating_a_response_cannot_corrupt_the_cache(self):
        # Regression: query() used to hand back the cached dict itself,
        # so a caller scribbling on its answer poisoned every later hit.
        session = ServingSession(build_artifact(small_graph()))
        req = {"op": "node_palette", "v": 3}
        pristine = {k: (list(v) if isinstance(v, list) else v)
                    for k, v in session.query(req).items()}
        victim = session.query(req)  # cache hit
        victim["colors"].append(999)
        victim["ok"] = False
        again = session.query(req)  # another hit: must be unscathed
        assert again == pristine
        # the put path is isolated too: mutate the *first* (miss) answer
        other = {"op": "schedule", "v": 5}
        first = session.query(other)
        first["slots"].clear()
        assert session.query(other)["slots"]  # cached copy kept its slots

    def test_reports_ring_buffer_stays_bounded(self):
        # Regression: session.reports grew one dict per delta forever.
        graph = generators.cycle_graph(12)
        session = ServingSession(
            build_artifact(graph), reports_cap=16, rebase_policy=None
        )
        u, v = 0, 1
        for _ in range(5000):  # 10^4 deltas: alternate delete/insert
            assert session.query({"op": "delete", "u": u, "v": v})["ok"]
            assert session.query({"op": "insert", "u": u, "v": v})["ok"]
        stats = session.cache_stats()
        assert len(session.reports) == 16  # bounded
        assert stats["reports_retained"] == 16 and stats["reports_cap"] == 16
        assert stats["deltas_applied"] == 10_000  # totals are lossless
        assert stats["touched"] >= 10_000
        assert session.artifact.epoch == 10_000
        zero = ServingSession(build_artifact(graph), reports_cap=0)
        zero.query({"op": "delete", "u": 0, "v": 1})
        assert len(zero.reports) == 0
        assert zero.cache_stats()["deltas_applied"] == 1
        with pytest.raises(ValueError, match="reports_cap"):
            ServingSession(build_artifact(graph), reports_cap=-1)


# --------------------------------------------------------------------- rebase
class TestRebasePolicy:
    def test_resolve_rebase_policy(self):
        assert resolve_rebase_policy(None) is None
        assert resolve_rebase_policy("off") is None
        assert resolve_rebase_policy("auto") == RebasePolicy()
        custom = RebasePolicy(threshold=0.5, min_overlay=2)
        assert resolve_rebase_policy(custom) is custom
        with pytest.raises(ValueError, match="rebase_policy"):
            resolve_rebase_policy("sometimes")
        with pytest.raises(ValueError):
            RebasePolicy(threshold=0.0)
        with pytest.raises(ValueError):
            RebasePolicy(min_overlay=0)

    def test_rebase_op_is_epoch_preserving_and_policy_independent(self):
        session = ServingSession(build_artifact(small_graph()), rebase_policy=None)
        iu, iv = absent_pair(session.artifact.graph)
        epoch = session.query({"op": "insert", "u": iu, "v": iv})["epoch"]
        before = session.query({"op": "node_palette", "v": iu})
        assert session.artifact.graph.overlay_size == 1
        ack = session.query({"op": "rebase"})
        assert ack == {"ok": True, "op": "rebase", "epoch": epoch}
        assert session.artifact.graph.overlay_size == 0
        assert session.query({"op": "node_palette", "v": iu}) == before
        assert session.cache_stats()["rebases"] == 1
        assert session.cache_stats()["overlay_folded"] == 1
        assert session.artifact.verify()

    def test_rebase_under_churn_twins_stay_identical(self):
        # Randomized twin: a session that rebases every k deltas must
        # answer the exact same stream as one that never rebases — and a
        # third that auto-rebases on the overlay-ratio policy.
        graph = generators.random_regular_graph(48, 4, seed=11)
        rng = random.Random(20260808)
        present = sorted(build_artifact(graph).colors)
        present_set = set(present)
        requests = []
        for i in range(120):
            if rng.random() < 0.5 and present:
                idx = rng.randrange(len(present))
                u, v = present[idx]
                present[idx] = present[-1]
                present.pop()
                present_set.discard((u, v))
                requests.append({"op": "delete", "u": u, "v": v})
            else:
                while True:
                    u, v = rng.randrange(48), rng.randrange(48)
                    key = (u, v) if u < v else (v, u)
                    if u != v and key not in present_set:
                        break
                present.append(key)
                present_set.add(key)
                requests.append({"op": "insert", "u": key[0], "v": key[1]})
            requests.append({"op": "node_palette", "v": rng.randrange(48)})
            if i % 7 == 0 and present:
                u, v = present[rng.randrange(len(present))]
                requests.append({"op": "color", "u": u, "v": v})

        never = ServingSession(build_artifact(graph), rebase_policy=None)
        never_responses = never.serve_batch(requests)

        every_k = ServingSession(build_artifact(graph), rebase_policy=None)
        k_responses = []
        for i, request in enumerate(requests):
            k_responses.append(every_k.query(request))
            if i % 9 == 8:
                every_k.query({"op": "rebase"})

        auto = ServingSession(
            build_artifact(graph),
            rebase_policy=RebasePolicy(threshold=0.05, min_overlay=4),
        )
        auto_responses = auto.serve_batch(requests)

        assert k_responses == never_responses
        assert auto_responses == never_responses
        for session in (never, every_k, auto):
            assert session.artifact.colors == never.artifact.colors
            assert session.artifact.epoch == never.artifact.epoch
            assert session.artifact.verify()
        # The rebasing twins actually rebased, and the policy twin's
        # overlay stayed bounded under sustained churn.
        assert every_k.cache_stats()["rebases"] >= 10
        assert auto.cache_stats()["rebases"] >= 1
        policy = auto.rebase_policy
        bound = max(
            policy.min_overlay,
            policy.threshold * auto.artifact.graph.base.num_edges,
        )
        assert auto.artifact.graph.overlay_size <= bound
        # The never-rebasing twin is the leak the policy exists to stop.
        assert never.artifact.graph.overlay_size > bound

    def test_auto_policy_threshold_arithmetic(self):
        graph = generators.cycle_graph(40)  # 40 base edges
        dg = DeltaGraph(graph)
        policy = RebasePolicy(threshold=0.25, min_overlay=8)
        for i in range(7):
            dg.delete_edge(i, i + 1)
        assert not policy.should_rebase(dg)  # below min_overlay
        dg.delete_edge(7, 8)
        assert not policy.should_rebase(dg)  # 8 < 0.25 * 40 = 10
        dg.delete_edge(8, 9)
        dg.delete_edge(9, 10)
        assert policy.should_rebase(dg)  # 10 >= 10


# -------------------------------------------------------------------- persist
class TestPersistence:
    def test_json_roundtrip_preserves_everything(self, tmp_path):
        graph = small_graph()
        artifact = build_artifact(graph, {tuple(sorted(graph.edge_endpoints(0))): (2, 4, 6, 8)})
        artifact.insert(0, 9)
        path = tmp_path / "artifact.json"
        artifact.save(str(path))
        loaded = ColoringArtifact.load(str(path))
        assert loaded.colors == artifact.colors
        assert loaded.lists == artifact.lists
        assert loaded.epoch == artifact.epoch == 1
        assert loaded.graph.overlay_size == 0  # overlay folded on save
        assert loaded.verify()
        # the loaded artifact keeps absorbing deltas
        loaded.delete(0, 9)
        assert loaded.verify()

    def test_from_json_rejects_unknown_format(self):
        with pytest.raises(RepairError, match="unsupported artifact format"):
            ColoringArtifact.from_json({"format": "something/else"})


# ------------------------------------------------------------------------ cli
class TestServingCli:
    def test_serve_then_query_roundtrip(self, tmp_path, capsys):
        art = tmp_path / "art.json"
        rc = cli.main(
            ["serve", "--family", "cycle", "--n", "8", "--out", str(art)]
        )
        assert rc == 0
        assert art.exists()
        capsys.readouterr()
        rc = cli.main(
            [
                "query",
                str(art),
                "--request",
                '{"op": "color", "u": 0, "v": 1}',
                "--request",
                '{"op": "stats"}',
            ]
        )
        assert rc == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        assert [r["ok"] for r in lines] == [True, True]
        assert lines[1]["num_edges"] == 8

    def test_query_save_and_failure_exit_codes(self, tmp_path, capsys):
        art = tmp_path / "art.json"
        cli.main(["serve", "--family", "cycle", "--n", "8", "--out", str(art)])
        capsys.readouterr()
        # a delta with --save persists the new epoch
        rc = cli.main(
            ["query", str(art), "--request", '{"op": "insert", "u": 0, "v": 4}', "--save"]
        )
        assert rc == 0
        capsys.readouterr()
        assert ColoringArtifact.load(str(art)).epoch == 1
        # failed request -> exit 1; no requests at all -> exit 2
        assert (
            cli.main(["query", str(art), "--request", '{"op": "color", "u": 0, "v": 2}'])
            == 1
        )
        capsys.readouterr()
        assert cli.main(["query", str(art)]) == 2
        capsys.readouterr()

    def test_query_requests_file_and_repair_path(self, tmp_path, capsys):
        art = tmp_path / "art.json"
        cli.main(["serve", "--family", "cycle", "--n", "8", "--out", str(art)])
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            '{"op": "delete", "u": 0, "v": 1}\n{"op": "node_palette", "v": 0}\n'
        )
        capsys.readouterr()
        rc = cli.main(
            ["query", str(art), "--requests-file", str(reqs), "--repair-path", "recompute"]
        )
        assert rc == 0
        lines = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        assert lines[0] == {"ok": True, "op": "delete", "epoch": 1}
        assert lines[1]["degree"] == 1


# -------------------------------------------------------------------- runtime
class TestServingChurnRunner:
    def test_twin_rows_identical_modulo_timing(self):
        params = {"n": 60, "delta": 4, "churn": 0.05, "graph_seed": 9}
        rows = {}
        for path in ("incremental", "recompute"):
            ctx = CellContext(
                params=params, seed=1234, knobs=Knobs(repair_path=path)
            )
            rows[path] = RUNNERS["serving_churn"](ctx)
            assert rows[path]["verified"]
        stripped = [
            {k: v for k, v in row.items() if k != "timing"}
            for row in rows.values()
        ]
        assert stripped[0] == stripped[1]
        assert rows["incremental"]["timing"]["fallbacks"] == 0


# --------------------------------------------------------------- api guards
class TestLinialNetworkGuard:
    def test_mismatch_reports_both_node_counts(self):
        big = generators.cycle_graph(12)
        small = generators.cycle_graph(6)
        network = api.build_linial_network(big)
        with pytest.raises(ValueError) as err:
            api.run_linial_network(small, network=network)
        message = str(err.value)
        assert "12 nodes" in message and "6 nodes" in message
        assert "build_linial_network" in message
