"""Differential test matrix: every fast path against its reference twin.

The vectorized engines — the orientation proposal/accept loop, the
line-graph Linial schedule, the defective min-conflict reduction, the
local-search round loop, and the simulator's batched send *and* receive
planes — each ship with a pure-python (or per-node) reference twin.
This matrix runs a seeded randomized sweep (varying n, Δ,
bipartite/general topology, both sides of the engine-size threshold and
of the legacy 384-edge mark) and asserts the twins are
**bit-identical**: same colorings, orientations, round counts and
CONGEST metrics, down to dict contents and violation lists.  The
simulator planes are checked over the full send × receive combination
matrix.  CI runs the matrix twice more with ``REPRO_SCAN_PATH`` forcing
each engine across the whole suite, and the scenario-runtime job diffs
result stores across the plane knobs.
"""

from __future__ import annotations

import math

import pytest

from repro import api
from repro.coloring.greedy import proper_edge_schedule
from repro.coloring.linial import LinialNodeAlgorithm
from repro.core import parameters
from repro.core.balanced_orientation import (
    NUMPY_SCAN_THRESHOLD,
    _np,
    compute_balanced_orientation,
)
from repro.core.defective_edge_coloring import defective_split_level, degrees_within
from repro.core.list_edge_coloring import partially_color_bipartite
from repro.core.slack import uniform_instance
from repro.distributed.algorithms import NodeAlgorithm
from repro.distributed.faults import FaultPlan
from repro.distributed.model import Model
from repro.distributed.network import SynchronousNetwork
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.identifiers import id_space_size
from repro.verification.checkers import is_proper_edge_coloring

requires_numpy = pytest.mark.skipif(_np is None, reason="numpy not installed")

#: (kind, n, Δ) cells of the sweep; edge counts 32..640 cross both the
#: current engine threshold (NUMPY_SCAN_THRESHOLD = 128 edges) and the
#: legacy 384-edge mark the scan-only path used.
GRAPH_CELLS = [
    ("bipartite", 16, 4),  # 32 edges
    ("bipartite", 32, 8),  # 128 edges
    ("bipartite", 48, 12),  # 288 edges
    ("bipartite", 64, 16),  # 512 edges
    ("general", 24, 4),  # 48 edges
    ("general", 32, 10),  # 160 edges
    ("general", 48, 16),  # 384 edges
    ("general", 64, 20),  # 640 edges
]

assert any(n * d // 2 < NUMPY_SCAN_THRESHOLD for _k, n, d in GRAPH_CELLS)
assert any(NUMPY_SCAN_THRESHOLD <= n * d // 2 < 384 for _k, n, d in GRAPH_CELLS)
assert any(n * d // 2 >= 384 for _k, n, d in GRAPH_CELLS)


def _make_graph(kind: str, n: int, delta: int, seed: int):
    if kind == "bipartite":
        graph, _bip = generators.regular_bipartite_graph(n, delta, seed=seed)
        return graph
    return generators.random_regular_graph(n, delta, seed=seed)


def _outcome_fingerprint(outcome):
    return (
        outcome.colors,
        outcome.num_colors,
        outcome.bound,
        outcome.rounds,
        outcome.is_proper,
        outcome.details,
    )


@requires_numpy
class TestOrientationEngineMatrix:
    """compute_balanced_orientation: numpy engine vs python reference."""

    @pytest.mark.parametrize("n,delta", [(16, 4), (32, 8), (48, 12), (64, 16), (96, 16)])
    @pytest.mark.parametrize("nu", [None, 0.03, 0.125])
    def test_engines_bit_identical(self, n, delta, nu):
        graph, bipartition = generators.regular_bipartite_graph(n, delta, seed=n + delta)
        eta = {e: 0.5 * (e % 5) - 1.0 for e in graph.edges()}
        results = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            r = compute_balanced_orientation(
                graph, bipartition, eta, epsilon=0.25, nu=nu, tracker=tracker, scan_path=path
            )
            results[path] = (
                r.orientation,
                list(r.orientation.items()),  # insertion order too
                r.in_degrees,
                r.phases,
                r.rounds,
                r.nu,
                r.bar_delta,
                tracker.breakdown,
            )
        assert results["python"] == results["numpy"]

    @pytest.mark.parametrize("stride", [2, 3])
    def test_engines_bit_identical_on_subsets(self, stride):
        graph, bipartition = generators.regular_bipartite_graph(48, 12, seed=9)
        subset = sorted(set(graph.edges()) - set(range(0, graph.num_edges, stride)))
        eta = {e: float(e % 3) - 1.0 for e in subset}
        py = compute_balanced_orientation(
            graph, bipartition, eta, epsilon=0.5, edge_set=subset, scan_path="python"
        )
        np_ = compute_balanced_orientation(
            graph, bipartition, eta, epsilon=0.5, edge_set=subset, scan_path="numpy"
        )
        assert py.orientation == np_.orientation
        assert list(py.orientation.items()) == list(np_.orientation.items())
        assert py.in_degrees == np_.in_degrees
        assert (py.phases, py.rounds) == (np_.phases, np_.rounds)

    def test_env_override_steers_auto_mode(self, monkeypatch):
        from repro.core import engine

        monkeypatch.setattr(engine, "_ENV_SCAN_PATH", "python")
        assert engine.resolve_use_numpy("auto", 10**6) is False
        monkeypatch.setattr(engine, "_ENV_SCAN_PATH", "numpy")
        assert engine.resolve_use_numpy("auto", 1) is True
        # Explicit arguments always win over the environment.
        assert engine.resolve_use_numpy("python", 10**6) is False

    def test_unknown_env_value_is_rejected_not_ignored(self, monkeypatch):
        from repro.core import engine

        monkeypatch.setenv("REPRO_SCAN_PATH", "nmpy")
        # Drop the once-per-process cache so the engine rereads the env.
        monkeypatch.setattr(engine, "_ENV_SCAN_PATH", getattr(engine, "_UNREAD", None))
        with pytest.raises(ValueError, match="REPRO_SCAN_PATH"):
            engine.resolve_use_numpy("auto", 10**4)


@requires_numpy
class TestScheduleEngineMatrix:
    """proper_edge_schedule: vectorized Linial steps vs reference."""

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS)
    def test_schedules_bit_identical(self, kind, n, delta):
        graph = _make_graph(kind, n, delta, seed=3 * n + delta)
        for subset in (list(graph.edges()), list(graph.edges())[::2]):
            a = proper_edge_schedule(graph, subset, scan_path="python")
            b = proper_edge_schedule(graph, subset, scan_path="numpy")
            assert a == b

    def test_round_charges_identical(self):
        graph = _make_graph("general", 48, 16, seed=1)
        charges = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            proper_edge_schedule(graph, list(graph.edges()), tracker=tracker, scan_path=path)
            charges[path] = tracker.breakdown
        assert charges["python"] == charges["numpy"]


@requires_numpy
class TestDefectiveReductionMatrix:
    """polynomial_defective_reduction: vectorized min-conflict vs reference."""

    @pytest.mark.parametrize("n,delta", [(64, 8), (128, 16), (160, 24)])
    def test_engines_bit_identical(self, n, delta):
        from repro.coloring.defective_vertex import polynomial_defective_reduction
        from repro.coloring.linial import linial_vertex_coloring

        graph = generators.random_regular_graph(n, delta, seed=n + delta)
        colors, count = linial_vertex_coloring(graph)
        for target in (1, max(1, delta // 3), delta):
            py = polynomial_defective_reduction(
                graph, colors, count, target_defect=target, scan_path="python"
            )
            np_ = polynomial_defective_reduction(
                graph, colors, count, target_defect=target, scan_path="numpy"
            )
            assert py == np_


@requires_numpy
class TestLocalSearchEngineMatrix:
    """defective_coloring_local_search: vectorized rounds vs reference."""

    @pytest.mark.parametrize("n,delta,num_classes,slack", [
        (32, 4, 2, 1),
        (64, 8, 4, 2),
        (128, 16, 4, 3),
        (128, 32, 4, 5),
        (96, 12, 3, 1),
    ])
    def test_engines_bit_identical(self, n, delta, num_classes, slack):
        from repro.coloring.defective_vertex import (
            defective_coloring_local_search,
            monochromatic_degree,
        )

        graph = generators.random_regular_graph(n, delta, seed=n + delta)
        results = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            classes, rounds = defective_coloring_local_search(
                graph, num_classes, slack, tracker=tracker, scan_path=path
            )
            results[path] = (
                classes,
                rounds,
                tracker.breakdown,
                monochromatic_degree(graph, classes, scan_path=path),
            )
        assert results["python"] == results["numpy"]

    def test_seeded_split_bit_identical(self):
        from repro.coloring.defective_vertex import defective_split_coloring
        from repro.coloring.linial import linial_vertex_coloring

        graph = generators.random_regular_graph(128, 16, seed=21)
        colors, count = linial_vertex_coloring(graph)
        results = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            results[path] = (
                defective_split_coloring(
                    graph,
                    4,
                    0.125,
                    proper_coloring=colors,
                    proper_num_colors=count,
                    tracker=tracker,
                    scan_path=path,
                ),
                tracker.breakdown,
            )
        assert results["python"] == results["numpy"]


@requires_numpy
class TestPipelineScanPathMatrix:
    """Full Theorem D.4 / 6.3 pipelines under both orientation engines."""

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS)
    def test_local_pipeline_bit_identical(self, kind, n, delta):
        graph = _make_graph(kind, n, delta, seed=7 * n + delta)
        py = api.color_edges_local(graph, scan_path="python")
        np_ = api.color_edges_local(graph, scan_path="numpy")
        assert _outcome_fingerprint(py) == _outcome_fingerprint(np_)
        assert py.is_proper
        assert is_proper_edge_coloring(graph, py.colors)

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS[1::2])
    def test_congest_pipeline_bit_identical(self, kind, n, delta):
        # The CONGEST pipeline's fingerprint covers its round breakdown —
        # the CONGEST cost accounting — as well as the palette details.
        graph = _make_graph(kind, n, delta, seed=11 * n + delta)
        py = api.color_edges_congest(graph, epsilon=0.5, scan_path="python")
        np_ = api.color_edges_congest(graph, epsilon=0.5, scan_path="numpy")
        assert _outcome_fingerprint(py) == _outcome_fingerprint(np_)
        assert py.is_proper

    def test_list_instance_pipeline_bit_identical(self):
        graph = generators.random_regular_graph(48, 10, seed=5)
        lists, space = generators.list_edge_coloring_lists(graph, slack=1.0, seed=7)
        from repro.core.slack import ListEdgeColoringInstance

        def run(path):
            instance = ListEdgeColoringInstance(
                graph, {e: list(lists[e]) for e in graph.edges()}, space
            )
            return api.color_edges_local(graph, instance=instance, scan_path=path)

        assert _outcome_fingerprint(run("python")) == _outcome_fingerprint(run("numpy"))


@requires_numpy
class TestSplitLevelMatrix:
    """defective_split_level: one lock-step numpy call vs the python twin per part.

    The level mixes everything the segmented engine masks per part: parts
    that share nodes, a dense part (Δ̄ 44, 20+ phases) next to a part of
    stars (Δ̄ 1, at most 2 phases), a part below the engine threshold,
    per-edge λ ≠ 1/2, a β per part (``beta_override=None``) and, with a
    phase cap, edges left for the final U→V step.
    """

    @staticmethod
    def level():
        graph, bipartition = generators.regular_bipartite_graph(64, 24, seed=4)
        edge_u, edge_v = graph.endpoint_arrays()
        sides = bipartition.sides
        dense = [e for e in graph.edges() if e % 4]
        stars: list = []
        small: list = []
        load = [0] * graph.num_nodes
        for e in graph.edges():
            if not e % 4:
                a, b = edge_u[e], edge_v[e]
                u, v = (a, b) if sides[a] == 0 else (b, a)
                # U centers with at most two leaves: every edge degree ≤ 1.
                if load[u] < 2 and load[v] < 1:
                    load[u] += 1
                    load[v] += 1
                    stars.append(e)
                elif len(small) < 40:
                    small.append(e)
        return graph, bipartition, [dense, stars, small]

    @pytest.mark.parametrize("max_phases", [None, 6])
    def test_level_matches_python_twin_per_part(self, max_phases):
        graph, bipartition, parts = self.level()
        assert len(parts[2]) < NUMPY_SCAN_THRESHOLD <= len(parts[0])
        degrees = [max(degrees_within(graph, part)[1]) for part in parts]
        assert degrees[0] >= 10 * degrees[1]
        params = parameters.PracticalParameters(beta_override=None)
        betas = [params.beta(degree) for degree in degrees]
        assert len(set(betas)) == len(parts)
        lambdas = {e: ((e * 7) % 11) / 10.0 for e in graph.edges()}
        common = dict(epsilon=0.5, nu=params.resolved_nu(), max_phases=max_phases)
        level = defective_split_level(
            graph, bipartition, parts, lambdas, betas=betas, scan_path="numpy", **common
        )
        alone = [
            defective_split_level(
                graph, bipartition, [part], lambdas, betas=[beta], scan_path="python", **common
            )[0]
            for part, beta in zip(parts, betas)
        ]
        assert level == alone
        for split, part in zip(level, parts):
            assert sorted(split.red + split.blue) == part
            assert split.red == sorted(split.red) and split.blue == sorted(split.blue)
            # The class degrees read off the in-degrees are the counted ones.
            assert split.red_degrees == degrees_within(graph, split.red)[1]
            assert split.blue_degrees == degrees_within(graph, split.blue)[1]
        # 2 proposal rounds per phase: uncapped, the star part stops after
        # ≤ 2 phases while the dense part keeps going for 20+.
        proposals = [split.breakdown["orientation-proposals"] for split in level]
        if max_phases is None:
            assert proposals[1] <= 4
            assert proposals[0] >= 40
        else:
            assert proposals[0] == 2 * max_phases
            assert level[0].breakdown["orientation-final"] == 1

    def test_partial_coloring_calls_engine_once_per_split_level(self, monkeypatch):
        from repro.core import defective_edge_coloring

        calls = []
        engine = defective_edge_coloring.orient_segments

        def counting(seg, *args, **kwargs):
            calls.append(seg.num_parts)
            return engine(seg, *args, **kwargs)

        monkeypatch.setattr(defective_edge_coloring, "orient_segments", counting)
        graph, bipartition = generators.regular_bipartite_graph(64, 24, seed=3)
        tracker = RoundTracker()
        partially_color_bipartite(
            graph,
            bipartition,
            uniform_instance(graph),
            list(graph.edges()),
            {},
            tracker=tracker,
            scan_path="numpy",
        )
        # Every call is a Lemma D.3 level: no Lemma D.2 level split here.
        assert tracker.breakdown["list-solver-split-level"] == 0
        split_levels = math.ceil(math.log2(parameters.DEFAULT_PARAMETERS.list_reduction_parts))
        assert len(calls) <= split_levels
        assert calls == [1, 2, 4, 8]


class _SelectivePortAlgorithm(NodeAlgorithm):
    """A dict-plane algorithm with ragged sends, ``None`` payloads, mixed
    payload types and staggered termination — exercises slot semantics,
    late delivery and audit equivalence through the default bridge."""

    def initialize(self, ctx):
        return {"log": [], "round": 0}

    def send(self, ctx, state, round_index):
        outbox = {}
        for port in range(ctx.degree):
            if (port + round_index + ctx.node) % 3 == 0:
                outbox[port] = None  # explicitly not sent
            elif (port + round_index) % 2 == 0:
                outbox[port] = ctx.node_id * 10 + round_index
            else:
                outbox[port] = (ctx.node_id, "r", round_index)
        return outbox

    def receive(self, ctx, state, inbox, round_index):
        state["log"].append((round_index, inbox.to_dict()))
        state["round"] = round_index + 1

    def finished(self, ctx, state):
        return state["round"] > ctx.node % 3

    def output(self, ctx, state):
        return state["log"]


class _BroadcastAlgorithm(NodeAlgorithm):
    """Native batched broadcaster (mirrors LinialNodeAlgorithm's shape)."""

    batched_send = True
    ROUNDS = 3

    def initialize(self, ctx):
        return {"seen": [], "round": 0}

    def send(self, ctx, state, round_index):
        return {port: ctx.node_id + round_index for port in range(ctx.degree)}

    def send_batch(self, ctx, state, round_index, outbox):
        outbox.broadcast(ctx.node_id + round_index)

    def receive(self, ctx, state, inbox, round_index):
        state["seen"].append(list(inbox.values()))
        state["round"] = round_index + 1

    def finished(self, ctx, state):
        return state["round"] >= self.ROUNDS

    def output(self, ctx, state):
        return state["seen"]


def _metrics_fingerprint(metrics):
    return (
        metrics.rounds,
        metrics.messages,
        metrics.max_message_bits,
        metrics.congest_violations,
        metrics.congest_budget_bits,
    )


#: Every send × receive plane combination the simulator offers.
PLANE_MATRIX = [
    (send, receive) for send in ("dict", "batched") for receive in ("dict", "batched")
]


class TestSendPlaneMatrix:
    """Send × receive plane matrix: bit-identical outputs and metrics."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("model", [Model.LOCAL, Model.CONGEST])
    def test_linial_planes_bit_identical(self, n, model):
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(n, 4, seed=n), seed=n, id_space_factor=8
        )
        network = SynchronousNetwork(
            graph, model=model, global_knowledge={"id_space": id_space_size(graph)}
        )
        results = [
            network.run(LinialNodeAlgorithm(), send_plane=send, receive_plane=receive)
            for send, receive in PLANE_MATRIX
        ]
        results.append(network.run(LinialNodeAlgorithm()))  # auto -> batched/batched
        reference_out, reference_metrics = results[0]
        for out, metrics in results[1:]:
            assert out == reference_out
            assert _metrics_fingerprint(metrics) == _metrics_fingerprint(
                reference_metrics
            )

    @pytest.mark.parametrize("kind,n,delta", [("general", 24, 4), ("bipartite", 32, 8), ("general", 32, 10)])
    def test_selective_sends_bridge_bit_identical(self, kind, n, delta):
        # Ragged ports, None payloads, tuples/strings, staggered finishes
        # (late delivery to finished nodes) through the send() and
        # receive() bridges, across all four plane combinations.
        graph = _make_graph(kind, n, delta, seed=n + delta)

        def run(send, receive):
            # Fresh network per combination: the CONGEST auditor
            # accumulates across runs of one network by design.
            network = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)
            return network.run(
                _SelectivePortAlgorithm(), send_plane=send, receive_plane=receive
            )

        results = [run(send, receive) for send, receive in PLANE_MATRIX]
        reference_out, reference_metrics = results[0]
        for out, metrics in results[1:]:
            assert out == reference_out
            assert _metrics_fingerprint(metrics) == _metrics_fingerprint(
                reference_metrics
            )
        # The ragged payloads overflow the tightened budget somewhere —
        # otherwise the violation-list comparison would be vacuous.
        assert reference_metrics.congest_violations > 0

    def test_native_broadcast_planes_bit_identical(self):
        graph = generators.random_regular_graph(48, 6, seed=2)
        network = SynchronousNetwork(graph, model=Model.CONGEST)
        results = [
            network.run(_BroadcastAlgorithm(), send_plane=send, receive_plane=receive)
            for send, receive in PLANE_MATRIX
        ]
        reference_out, reference_metrics = results[0]
        for out, metrics in results[1:]:
            assert out == reference_out
            assert _metrics_fingerprint(metrics) == _metrics_fingerprint(
                reference_metrics
            )

    def test_api_linial_network_plane_matrix(self):
        # The public E8 entry point: every send × receive combination
        # produces the same MessagePassingOutcome on a reused network.
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(96, 4, seed=7), seed=7, id_space_factor=8
        )
        network = api.build_linial_network(graph)
        outcomes = [
            api.run_linial_network(
                graph, send_plane=send, receive_plane=receive, network=network
            )
            for send, receive in PLANE_MATRIX
        ]
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0]

    def test_auditor_state_identical_across_planes(self):
        graph = generators.random_regular_graph(24, 4, seed=3)

        def run(plane):
            network = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)
            network.run(_SelectivePortAlgorithm(), send_plane=plane)
            auditor = network._auditor
            return (
                auditor.messages_recorded,
                auditor.total_bits,
                auditor.max_bits,
                auditor.violations,
            )

        assert run("dict") == run("batched")

    def test_unknown_send_plane_rejected(self):
        graph = generators.path_graph(4)
        network = SynchronousNetwork(graph)
        with pytest.raises(ValueError, match="send_plane"):
            network.run(LinialNodeAlgorithm(), send_plane="pigeon")

    @pytest.mark.parametrize("plane", ["dict", "batched"])
    def test_invalid_port_errors_match(self, plane):
        class BadPort(NodeAlgorithm):
            def send(self, ctx, state, round_index):
                return {99: 1}

            def finished(self, ctx, state):
                return False

        graph = generators.path_graph(4)
        network = SynchronousNetwork(graph)
        with pytest.raises(ValueError, match="invalid port 99"):
            network.run(BadPort(), send_plane=plane, max_rounds=2)

    @pytest.mark.parametrize("plane", ["dict", "batched"])
    def test_non_integer_port_errors_match(self, plane):
        class BadKey(NodeAlgorithm):
            def send(self, ctx, state, round_index):
                return {"north": 1}

            def finished(self, ctx, state):
                return False

        graph = generators.path_graph(4)
        network = SynchronousNetwork(graph)
        with pytest.raises(TypeError, match="ports must be integers"):
            network.run(BadKey(), send_plane=plane, max_rounds=2)


#: Fault plans covering every fault channel, alone and combined.
FAULT_PLANS = [
    FaultPlan(seed=7, drop_rate=0.05),
    FaultPlan(seed=7, drop_rate=0.05, delay_rate=0.05, duplicate_rate=0.03, max_delay=3),
    FaultPlan(seed=11, crash_rate=0.08, crash_round_range=4),
    FaultPlan(seed=3, drop_rate=0.1, crashes=((0, 1), (5, 2))),
]


class TestFaultPlaneMatrix:
    """Fault injection across the plane matrix: same plan, same faults.

    The determinism contract of :mod:`repro.distributed.faults` — every
    decision a pure hash of (seed, channel, round, slot) — means a fixed
    plan must yield bit-identical outputs, metrics *and* fault summaries
    on every send × receive combination, even though the planes fill the
    round buffer in different orders.
    """

    @pytest.mark.parametrize("plan", FAULT_PLANS, ids=lambda p: f"seed{p.seed}")
    def test_faulted_linial_planes_bit_identical(self, plan):
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(96, 4, seed=96), seed=96, id_space_factor=8
        )
        network = SynchronousNetwork(
            graph, model=Model.CONGEST, global_knowledge={"id_space": id_space_size(graph)}
        )
        results = [
            network.run(
                LinialNodeAlgorithm(), send_plane=send, receive_plane=receive, fault_plan=plan
            )
            for send, receive in PLANE_MATRIX
        ]
        reference_out, reference_metrics = results[0]
        assert reference_metrics.fault_summary is not None
        for out, metrics in results[1:]:
            assert out == reference_out
            assert _metrics_fingerprint(metrics) == _metrics_fingerprint(reference_metrics)
            assert metrics.fault_summary == reference_metrics.fault_summary

    @pytest.mark.parametrize("plan", FAULT_PLANS, ids=lambda p: f"seed{p.seed}")
    def test_faulted_bridge_algorithm_planes_bit_identical(self, plan):
        # The dict-plane bridge (ragged sends, None payloads, staggered
        # termination and late delivery) under faults: the hardest case
        # for receiver tracking, since drops must not trigger spurious
        # late deliveries on any plane.
        graph = _make_graph("general", 32, 10, seed=42)

        def run(send, receive):
            network = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)
            return network.run(
                _SelectivePortAlgorithm(),
                send_plane=send,
                receive_plane=receive,
                fault_plan=plan,
            )

        results = [run(send, receive) for send, receive in PLANE_MATRIX]
        reference_out, reference_metrics = results[0]
        for out, metrics in results[1:]:
            assert out == reference_out
            assert _metrics_fingerprint(metrics) == _metrics_fingerprint(reference_metrics)
            assert metrics.fault_summary == reference_metrics.fault_summary

    def test_fault_summary_repeatable_and_seed_sensitive(self):
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(64, 4, seed=64), seed=64, id_space_factor=8
        )
        plan = FaultPlan(seed=5, drop_rate=0.1, delay_rate=0.05)

        def run(p):
            return api.run_linial_network(graph, fault_plan=p)

        first, second = run(plan), run(plan)
        assert first == second  # whole outcome, fault_summary included
        other = run(FaultPlan(seed=6, drop_rate=0.1, delay_rate=0.05))
        assert other.fault_summary != first.fault_summary

    def test_audit_totals_match_fault_free_run(self):
        # Message accounting counts *sent* payloads: a drops-only plan
        # must leave messages/audit identical to the fault-free run
        # (drops never shorten Linial's fixed schedule).
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(64, 4, seed=64), seed=64, id_space_factor=8
        )
        clean = api.run_linial_network(graph)
        faulted = api.run_linial_network(graph, fault_plan=FaultPlan(seed=9, drop_rate=0.2))
        assert faulted.rounds == clean.rounds
        assert faulted.messages == clean.messages
        assert faulted.max_message_bits == clean.max_message_bits
        assert faulted.fault_summary["dropped"] > 0
