"""Semantic validation of the golden scenario outputs.

``tests/golden/determinism.json`` pins the E1 (LOCAL list coloring) and
E6 (CONGEST coloring) pipelines byte-wise; these tests additionally run
the :mod:`repro.verification.checkers` invariants end-to-end over every
**recorded** golden output — so a golden file that drifted into a wrong
(but still deterministic) coloring would be caught semantically, not
just by accident of byte comparison.  The E8 scenario (message-passing
Linial on the simulator) has no recorded golden, so its invariants run
on live executions over the same golden graph family, on both send
planes.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))

from regen import GOLDEN_PATH, golden_graphs  # noqa: E402

import pytest  # noqa: E402

from repro.coloring.color_reduction import reduction_schedule  # noqa: E402
from repro.coloring.linial import LinialNodeAlgorithm  # noqa: E402
from repro.core.slack import uniform_instance  # noqa: E402
from repro.distributed.model import Model, congest_bit_budget  # noqa: E402
from repro.distributed.network import SynchronousNetwork  # noqa: E402
from repro.graphs.identifiers import id_space_size  # noqa: E402
from repro.verification.checkers import (  # noqa: E402
    is_proper_edge_coloring,
    is_proper_vertex_coloring,
    list_coloring_violations,
    proper_edge_coloring_violations,
)


def _golden_records():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    for name, graph in golden_graphs():
        yield name, graph, golden[name]


GOLDEN_CASES = list(_golden_records())
GOLDEN_IDS = [name for name, _g, _r in GOLDEN_CASES]


@pytest.mark.parametrize("name,graph,record", GOLDEN_CASES, ids=GOLDEN_IDS)
class TestGoldenE1Invariants:
    """The recorded E1 (LOCAL) colorings are semantically valid."""

    def test_recorded_local_coloring_is_proper_and_complete(self, name, graph, record):
        colors = {e: c for e, c in record["local"]["colors"]}
        assert set(colors.keys()) == set(graph.edges())
        assert is_proper_edge_coloring(graph, colors)
        assert proper_edge_coloring_violations(graph, colors) == []

    def test_recorded_local_coloring_respects_lists_and_bound(self, name, graph, record):
        colors = {e: c for e, c in record["local"]["colors"]}
        instance = uniform_instance(graph)
        assert list_coloring_violations(graph, colors, instance.lists) == []
        bound = max(1, 2 * graph.max_degree - 1)
        assert record["local"]["num_colors"] <= bound
        assert record["local"]["num_colors"] == len(set(colors.values()))
        assert record["local"]["is_proper"] is True

    def test_recorded_structure_matches_graph(self, name, graph, record):
        assert record["n"] == graph.num_nodes
        assert record["m"] == graph.num_edges


@pytest.mark.parametrize("name,graph,record", GOLDEN_CASES, ids=GOLDEN_IDS)
class TestGoldenE6Invariants:
    """The recorded E6 (CONGEST) colorings are semantically valid."""

    def test_recorded_congest_coloring_is_proper_and_complete(self, name, graph, record):
        colors = {e: c for e, c in record["congest"]["colors"]}
        assert set(colors.keys()) == set(graph.edges())
        assert is_proper_edge_coloring(graph, colors)
        assert proper_edge_coloring_violations(graph, colors) == []

    def test_recorded_congest_color_count_is_consistent(self, name, graph, record):
        colors = {e: c for e, c in record["congest"]["colors"]}
        assert record["congest"]["num_colors"] == len(set(colors.values()))
        assert record["congest"]["is_proper"] is True
        if graph.num_edges:
            assert record["congest"]["rounds"] > 0


@pytest.mark.parametrize("name,graph,record", GOLDEN_CASES, ids=GOLDEN_IDS)
@pytest.mark.parametrize("scan_path", ["numpy", "python"])
class TestGoldenE8Invariants:
    """E8 (Linial on the simulator) invariants over the golden graphs."""

    def test_linial_on_simulator_invariants(self, name, graph, record, scan_path):
        network = SynchronousNetwork(
            graph, model=Model.CONGEST, global_knowledge={"id_space": id_space_size(graph)}
        )
        colors, metrics = network.run(LinialNodeAlgorithm(scan_path=scan_path))
        assert is_proper_vertex_coloring(graph, colors)
        assert metrics.congest_violations == 0
        if graph.num_nodes:
            # O(Δ²) color space: the final step's q² bound.
            schedule = reduction_schedule(id_space_size(graph), max(1, graph.max_degree))
            space = id_space_size(graph) if not schedule else schedule[-1][0] ** 2
            assert all(0 <= c < space for c in colors)
            assert metrics.rounds == len(schedule)
            # Every message carries one color id: within the audit budget.
            assert metrics.max_message_bits <= congest_bit_budget(graph.num_nodes, 8)
            degree_sum = sum(graph.degree(v) for v in graph.nodes())
            assert metrics.messages == metrics.rounds * degree_sum
