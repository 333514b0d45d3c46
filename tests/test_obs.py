"""Observability plane: tracer, metrics, and the obs-field quarantine.

The load-bearing contract is the **quarantine rule**: everything the obs
plane emits is timing-like — spans and metrics never enter cell seeds,
cache keys, serving responses, or ``diff_rows``.  The differential
matrix here pins it the same way the engine twins are pinned: the same
work with tracing on and off must produce bit-identical stores and
response streams across engine × plane × repair-path combinations.
"""

import json
import os
import sys

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    PhaseTimer,
    TRACE_FORMAT,
    Tracer,
    load_trace,
    read_events,
)
from repro.obs import report as obs_report
from repro.obs import trace as obs_trace
from repro.obs.cli import obs_main
from repro.runtime import diff_rows, get, run_scenario
from repro.runtime.spec import Knobs
from repro.runtime.store import ResultStore
from repro.serving import (
    DEFAULT_RADIUS_LIMIT,
    ColoringArtifact,
    ServingSession,
    build_artifact,
    repair,
)
from repro.serving.daemon import ColoringDaemon
from repro.graphs import generators

#: Tracing on vs off must be invisible at every twin point: engine
#: (``scan_path``) and the serving repair path.
KNOB_MATRIX = (
    Knobs(scan_path="python", repair_path="recompute"),
    Knobs(scan_path="numpy", repair_path="incremental"),
)


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    """Every test starts and ends with the env-resolved (disabled) tracer."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_FILE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    obs_trace.reset()
    yield
    obs_trace.reset()


def churn_requests(artifact, rounds=3):
    """A deterministic read/delta stream touching every op family."""
    graph = artifact.graph
    du, dv = sorted(artifact.colors)[0]
    iu = iv = None
    for u in range(graph.num_nodes):
        for v in range(u + 1, graph.num_nodes):
            if not graph.has_edge(u, v):
                iu, iv = u, v
                break
        if iu is not None:
            break
    batch = []
    for _ in range(rounds):
        batch.extend(
            [
                {"op": "color", "u": du, "v": dv},
                {"op": "delete", "u": du, "v": dv},
                {"op": "insert", "u": du, "v": dv},
                {"op": "insert", "u": iu, "v": iv},
                {"op": "set_list", "u": iu, "v": iv, "colors": [1, 3, 5, 7, 9, 11]},
                {"op": "delete", "u": iu, "v": iv},
                {"op": "node_palette", "v": du},
                {"op": "color", "u": du, "v": dv},
                {"op": "stats"},
            ]
        )
    return batch


# -------------------------------------------------------------------- tracer
class TestTracer:
    def test_span_events_carry_header_nesting_and_attrs(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trc = obs_trace.configure(path)
        with trc.span("outer", spec="e1_sweep") as outer:
            with trc.span("inner") as inner:
                inner.set(cell_index=3)
        trc.close()

        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["format"] == TRACE_FORMAT
        assert header["pid"] == os.getpid()

        events = read_events(path)
        assert [e["name"] for e in events] == ["inner", "outer"]
        by_name = {e["name"]: e for e in events}
        assert by_name["inner"]["parent"] == outer.span_id
        assert by_name["inner"]["trace_id"] == by_name["outer"]["trace_id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["attrs"] == {"spec": "e1_sweep"}
        assert by_name["inner"]["attrs"] == {"cell_index": 3}
        assert all(e["dur"] >= 0.0 for e in events)

    def test_span_records_error_attr_on_exception(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trc = obs_trace.configure(path)
        with pytest.raises(RuntimeError):
            with trc.span("doomed"):
                raise RuntimeError("boom")
        trc.close()
        (event,) = read_events(path)
        assert event["attrs"]["error"] == "RuntimeError"

    def test_emit_records_externally_measured_interval(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trc = obs_trace.configure(path)
        trc.emit("runtime.cell.queued", 1000.0, 0.25, cell_index=1)
        trc.close()
        (event,) = read_events(path)
        assert event["name"] == "runtime.cell.queued"
        assert event["t0"] == 1000.0
        assert event["dur"] == 0.25

    def test_set_context_seeds_cross_process_propagation(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trc = obs_trace.configure(path)
        obs_trace.set_context("trace-abc", "span-root")
        with trc.span("child"):
            pass
        obs_trace.set_context(None, None)
        trc.close()
        (event,) = read_events(path)
        assert event["trace_id"] == "trace-abc"
        assert event["parent"] == "span-root"

    def test_torn_tail_skipped_on_read_and_healed_on_append(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trc = obs_trace.configure(path)
        with trc.span("complete"):
            pass
        trc.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"trace_id": "torn')  # no newline: a killed writer

        events = read_events(path)
        assert [e["name"] for e in events] == ["complete"]

        trc = obs_trace.configure(path)
        with trc.span("after-heal"):
            pass
        trc.close()
        events = read_events(path)
        assert [e["name"] for e in events] == ["complete", "after-heal"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trc = obs_trace.configure(path)
        with trc.span("one"):
            pass
        trc.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{corrupt}\n")
            handle.write(
                json.dumps(
                    {
                        "trace_id": "t",
                        "span_id": "s",
                        "parent": None,
                        "name": "two",
                        "t0": 0.0,
                        "dur": 0.0,
                        "attrs": {},
                    }
                )
                + "\n"
            )
        with pytest.raises(ValueError, match="middle of the trace"):
            read_events(path)

    def test_bad_header_raises(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "not-a-trace/v9"}\n')
        with pytest.raises(ValueError, match="unsupported trace format"):
            read_events(path)

    def test_load_trace_merges_per_pid_directory(self, tmp_path):
        for pid_tag in ("a", "b"):
            trc = obs_trace.configure(str(tmp_path / f"trace-{pid_tag}.jsonl"))
            with trc.span(f"span-{pid_tag}"):
                pass
            trc.close()
        obs_trace.reset()
        events = load_trace(str(tmp_path))
        assert sorted(e["name"] for e in events) == ["span-a", "span-b"]

    def test_disabled_by_default_and_writes_nothing(self, tmp_path):
        trc = obs_trace.tracer()
        assert trc is NULL_TRACER
        assert trc.enabled is False
        span = trc.span("anything", attr=1)
        with span as entered:
            entered.set(more=2)
        assert not list(tmp_path.iterdir())

    def test_env_var_enables_and_resolves_per_pid_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        obs_trace.reset()
        trc = obs_trace.tracer()
        assert isinstance(trc, Tracer)
        assert trc.path == str(tmp_path / f"trace-{os.getpid()}.jsonl")

    def test_phase_timer_accumulates_and_emits_spans(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs_trace.configure(path)
        phases = PhaseTimer("runtime.phase", runner="local_coloring")
        with phases.phase("setup"):
            pass
        with phases.phase("solve"):
            pass
        with phases.phase("solve"):  # accumulates, second span
            pass
        with phases.phase("verify"):
            pass
        obs_trace.disable()

        timing = phases.as_timing()
        assert set(timing) == {"setup", "solve", "verify"}
        names = [e["name"] for e in read_events(path)]
        assert names.count("runtime.phase.solve") == 2
        assert names.count("runtime.phase.setup") == 1
        assert names.count("runtime.phase.verify") == 1

    def test_phase_timer_measures_with_tracing_off(self):
        phases = PhaseTimer("runtime.phase")
        with phases.phase("solve"):
            pass
        assert "solve" in phases.as_timing()


# ------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == {"kind": "counter", "value": 5}

        gauge = Gauge("g")
        gauge.set(7.0)
        gauge.inc(2.0)
        assert gauge.snapshot()["value"] == 9.0

        hist = Histogram("h", buckets=(1, 2, 4))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["max"] == 100.0
        assert snap["buckets"]["+inf"] == 1  # overflow bucket is bounded
        assert hist.quantile(0.5) == 2

    def test_registry_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("x")

    def test_snapshot_is_sorted_and_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("b.second").inc()
        registry.counter("a.first").inc()
        assert list(registry.snapshot()) == ["a.first", "b.second"]
        registry.reset()
        assert registry.snapshot() == {}

    def test_session_registry_holds_the_serving_totals(self):
        session = ServingSession(
            build_artifact(generators.random_regular_graph(24, 4, seed=7)),
            rebase_policy=None,
        )
        before = session.metrics.counter("serving.cache.deltas_applied").value
        for response in session.serve_batch(churn_requests(session.artifact, 1)):
            assert response["ok"]
        stats = session.cache_stats()  # a view over session.metrics
        snap = session.metrics.snapshot()
        assert snap["serving.cache.deltas_applied"]["value"] > before
        assert snap["serving.repair_radius"]["kind"] == "histogram"
        assert snap["serving.cache.hits"]["value"] == stats["hits"]


# ---------------------------------------------------------------- quarantine
class TestQuarantine:
    """Obs output never enters rows, keys, seeds, or responses."""

    def test_traced_scenario_rows_are_bit_identical_and_trace_free(self, tmp_path):
        baseline = run_scenario(get("e4_token_dropping"), workers=1, quick=True).rows

        obs_trace.configure(str(tmp_path / "trace.jsonl"))
        store = ResultStore(str(tmp_path / "results.jsonl"))
        run_scenario(get("e4_token_dropping"), workers=1, quick=True, store=store)
        obs_trace.disable()

        on_disk = store.rows()
        assert diff_rows(on_disk, baseline) == []
        for row in on_disk:
            assert "trace" not in row
            assert "trace" not in row.get("result", {})
        assert load_trace(str(tmp_path / "trace.jsonl"))  # the trace did happen

    def test_traced_serving_responses_are_bit_identical(self, tmp_path):
        graph = generators.random_regular_graph(24, 4, seed=7)
        plain = ServingSession(build_artifact(graph), rebase_policy=None)
        expected = plain.serve_batch(churn_requests(plain.artifact))

        obs_trace.configure(str(tmp_path / "trace.jsonl"))
        traced = ServingSession(build_artifact(graph), rebase_policy=None)
        got = traced.serve_batch(churn_requests(traced.artifact))
        obs_trace.disable()

        assert got == expected
        names = {e["name"] for e in load_trace(str(tmp_path / "trace.jsonl"))}
        assert "serving.query" in names
        assert "serving.delta" in names

    def test_trace_attrs_carry_repair_radius(self, tmp_path):
        obs_trace.configure(str(tmp_path / "trace.jsonl"))
        session = ServingSession(
            build_artifact(generators.random_regular_graph(24, 4, seed=7)),
            rebase_policy=None,
        )
        session.serve_batch(churn_requests(session.artifact, 1))
        obs_trace.disable()
        deltas = [
            e
            for e in load_trace(str(tmp_path / "trace.jsonl"))
            if e["name"] == "serving.delta"
        ]
        assert deltas
        for event in deltas:
            assert isinstance(event["attrs"]["touched"], int)
            assert event["attrs"]["path"] in ("incremental", "recompute")

    def test_drained_fallback_shows_its_real_radius(self, tmp_path, monkeypatch, capsys):
        graph = generators.random_regular_graph(4000, 8, seed=1)
        u, v = sorted(build_artifact(graph).colors)[0]
        pops = build_artifact(graph).delete(u, v, radius_limit=sys.maxsize).touched
        assert DEFAULT_RADIUS_LIMIT < pops <= 512

        def refuse(*args, **kwargs):
            raise AssertionError("a drained fallback must not recompute")

        monkeypatch.setattr(repair, "canonical_rows", refuse)
        path = str(tmp_path / "trace.jsonl")
        obs_trace.configure(path)
        session = ServingSession(build_artifact(graph), rebase_policy=None)
        assert session.serve_batch([{"op": "delete", "u": u, "v": v}])[0]["ok"]
        obs_trace.disable()
        stats = session.cache_stats()
        assert (stats["fallbacks"], stats["touched"]) == (1, pops)
        radius = session.metrics.snapshot()["serving.repair_radius"]
        assert radius["max"] == pops and radius["buckets"]["512"] == 1
        assert obs_report.summarize(path)["repair_radius"] == {pops: 1}
        capsys.readouterr()
        assert obs_main(["report", path, "--format", "markdown"]) == 0
        assert f"| {pops} | 1 |" in capsys.readouterr().out

    def test_daemon_strips_trace_field_before_session(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        build_artifact(generators.random_regular_graph(24, 4, seed=7)).save(path)
        twin = ServingSession(ColoringArtifact.load(path), rebase_policy=None)
        request = {"op": "color", "u": 0, "v": twin.artifact.graph.neighbors(0)[0]}
        expected = twin.query(dict(request))

        daemon = ColoringDaemon(path)
        carrying = dict(request)
        carrying["trace"] = {"trace_id": "t-1", "span_id": "s-1"}
        got = json.loads(daemon.handle_line(json.dumps(carrying)))
        assert got == expected
        # context is reset after the request, not leaked into later spans
        assert obs_trace.current_context() == (None, None)

    def test_daemon_scope_stats_is_wire_only_introspection(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        build_artifact(generators.random_regular_graph(24, 4, seed=7)).save(path)
        daemon = ColoringDaemon(path)
        session_stats = json.loads(daemon.handle_line(json.dumps({"op": "stats"})))
        daemon_stats = json.loads(
            daemon.handle_line(json.dumps({"op": "stats", "scope": "daemon"}))
        )
        # bare stats stays the session twin's answer (pinned elsewhere to
        # match the in-process session bit-for-bit)
        assert session_stats == daemon.session.query({"op": "stats"})
        assert daemon_stats["ok"] is True
        assert daemon_stats["scope"] == "daemon"
        assert daemon_stats["requests_served"] >= 1
        assert "registry" in daemon_stats
        assert "cache_stats" in daemon_stats
        assert daemon_stats["artifact"]["epoch"] == daemon.session.artifact.epoch

    def test_daemon_stats_report_each_total_once(self, tmp_path):
        path = str(tmp_path / "artifact.json")
        graph = generators.random_regular_graph(24, 4, seed=7)
        build_artifact(graph).save(path)
        daemon = ColoringDaemon(path, journal=False)
        u, v = graph.edge_endpoints(0)
        absent = next(w for w in range(1, 24) if w not in graph.neighbors(0))
        requests = [{"op": "color", "u": u, "v": v}] * 3 + [
            {"op": "insert", "u": 0, "v": absent},
            {"op": "stats", "scope": "daemon"},
        ]
        *answers, answer = [json.loads(daemon.handle_line(json.dumps(r))) for r in requests]
        assert all(a["ok"] for a in answers)
        stats, registry = answer["cache_stats"], answer["registry"]
        assert (stats["hits"], stats["misses"], stats["deltas_applied"]) == (2, 1, 1)
        totals = ("hits", "misses", "evictions", "deltas_applied", "touched",
                  "recolored", "fallbacks", "rebases", "overlay_folded")
        for key in totals:
            # One instrument per total, and it agrees with cache_stats.
            assert [name for name in registry if name.rsplit(".", 1)[-1] == key] == [
                f"serving.cache.{key}"
            ]
            assert registry[f"serving.cache.{key}"]["value"] == stats[key]
        assert registry["daemon.requests"]["value"] == answer["requests_served"] == 5


# ------------------------------------------------------- differential matrix
class TestTracingDifferential:
    """Tracing on vs off is bit-identical across the twin matrix."""

    @pytest.mark.parametrize("knobs", KNOB_MATRIX, ids=("compat", "fast"))
    @pytest.mark.parametrize("scenario", ("e1_sweep", "e2_congest"))
    def test_scenario_rows_match_across_knobs(self, tmp_path, scenario, knobs):
        plain = run_scenario(get(scenario), workers=1, quick=True, knobs=knobs).rows
        obs_trace.configure(str(tmp_path / "trace.jsonl"))
        traced = run_scenario(get(scenario), workers=1, quick=True, knobs=knobs).rows
        obs_trace.disable()
        assert diff_rows(traced, plain) == []

    @pytest.mark.parametrize("repair_path", ("incremental", "recompute"))
    def test_serving_responses_match_across_repair_paths(self, tmp_path, repair_path):
        graph = generators.random_regular_graph(24, 4, seed=7)
        plain = ServingSession(
            build_artifact(graph), repair_path=repair_path, rebase_policy=None
        )
        expected = plain.serve_batch(churn_requests(plain.artifact))

        obs_trace.configure(str(tmp_path / "trace.jsonl"))
        traced = ServingSession(
            build_artifact(graph), repair_path=repair_path, rebase_policy=None
        )
        got = traced.serve_batch(churn_requests(traced.artifact))
        obs_trace.disable()
        assert got == expected


# -------------------------------------------------------------------- report
class TestReport:
    def _sample_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trc = obs_trace.configure(path)
        trc.emit("runtime.cell.run", 0.0, 0.2, spec="e1_sweep", cell_index=0)
        trc.emit("runtime.cell.run", 0.0, 0.4, spec="e1_sweep", cell_index=1)
        trc.emit("runtime.phase.solve", 0.0, 0.3)
        trc.emit("serving.delta", 0.0, 0.01, touched=3)
        trc.emit("serving.delta", 0.0, 0.01, touched=3)
        trc.emit("serving.delta", 0.0, 0.02, touched=17)
        obs_trace.disable()
        return path

    def test_summarize_aggregates_all_breakdowns(self, tmp_path):
        summary = obs_report.summarize(self._sample_trace(tmp_path))
        assert summary["spans"] == 6
        by_name = {row["name"]: row for row in summary["by_name"]}
        assert by_name["runtime.cell.run"]["count"] == 2
        assert by_name["runtime.cell.run"]["max_s"] == 0.4
        assert summary["phases"]["solve"]["count"] == 1
        cells = summary["scenarios"]["e1_sweep"]
        assert cells["cells"] == 2
        assert cells["slowest"][0]["cell_index"] == 1
        assert summary["repair_radius"] == {3: 2, 17: 1}

    def test_percentiles_are_exact_nearest_rank(self):
        assert obs_report.percentile([], 0.5) == 0.0
        samples = sorted(float(i) for i in range(1, 101))
        assert obs_report.percentile(samples, 0.50) == 51.0
        assert obs_report.percentile(samples, 0.95) == 95.0

    def test_cli_renders_all_formats(self, tmp_path, capsys):
        path = self._sample_trace(tmp_path)
        assert obs_main(["report", path]) == 0
        assert "runtime.cell.run" in capsys.readouterr().out
        assert obs_main(["report", path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(obs_report.REPORT_COLUMNS)
        assert obs_main(["report", path, "--format", "markdown"]) == 0
        assert "| touched | count |" in capsys.readouterr().out

    def test_cli_rejects_missing_and_empty_traces(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "absent.jsonl")]) == 1
        capsys.readouterr()
        empty = str(tmp_path)  # a directory with no trace files
        assert obs_main(["report", empty]) == 1
        assert "no spans" in capsys.readouterr().out
