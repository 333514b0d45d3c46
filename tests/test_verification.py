"""Unit tests for the checkers and invariant verifiers."""

from __future__ import annotations

from repro.core.slack import ListEdgeColoringInstance
from repro.graphs import generators
from repro.graphs.core import Graph
from repro.verification.checkers import (
    defective_edge_coloring_violations,
    defective_vertex_coloring_violations,
    is_proper_edge_coloring,
    is_proper_vertex_coloring,
    list_coloring_violations,
    orientation_in_degrees,
    proper_edge_coloring_violations,
)
from repro.verification.invariants import slack_invariant_violations


class TestProperColoringCheckers:
    def test_vertex_checker(self):
        graph = generators.cycle_graph(4)
        assert is_proper_vertex_coloring(graph, [0, 1, 0, 1])
        assert not is_proper_vertex_coloring(graph, [0, 0, 1, 1])

    def test_edge_checker_detects_conflicts(self):
        graph = generators.star_graph(3)
        good = {0: 0, 1: 1, 2: 2}
        bad = {0: 0, 1: 0, 2: 2}
        assert is_proper_edge_coloring(graph, good)
        assert not is_proper_edge_coloring(graph, bad)
        violations = proper_edge_coloring_violations(graph, bad)
        assert (0, 1) in violations or (1, 0) in violations

    def test_edge_checker_requires_completeness(self):
        graph = generators.cycle_graph(5)
        partial = {0: 0, 1: 1}
        assert not is_proper_edge_coloring(graph, partial)
        assert is_proper_edge_coloring(graph, partial, edge_set=[0, 1])
        assert is_proper_edge_coloring(graph, partial, require_all=False)


class TestListColoringChecker:
    def test_detects_out_of_list_colors(self):
        graph = generators.star_graph(2)
        lists = {0: [0, 1], 1: [2, 3]}
        colors = {0: 0, 1: 1}
        violations = list_coloring_violations(graph, colors, lists)
        assert ("list", 1) in violations
        # A list object shared by several edges (as in a uniform
        # instance), one out-of-list color among them, and one edge with
        # its own list.
        graph = generators.cycle_graph(6)
        palette = [0, 1, 2]
        lists = dict.fromkeys(graph.edges(), palette)
        lists[5] = [3, 4]
        colors = {0: 0, 1: 1, 2: 0, 3: 7, 4: 0, 5: 4}
        assert list_coloring_violations(graph, colors, lists) == [("list", 3)]
        colors[5] = 1
        assert list_coloring_violations(graph, colors, lists) == [("list", 3), ("list", 5)]

    def test_detects_conflicts(self):
        graph = generators.star_graph(2)
        lists = {0: [0, 1], 1: [0, 1]}
        colors = {0: 0, 1: 0}
        kinds = {kind for kind, _e in list_coloring_violations(graph, colors, lists)}
        assert "conflict" in kinds

    def test_accepts_valid_coloring(self):
        graph = generators.cycle_graph(6)
        lists = {e: [e % 3, 3 + e % 3, 6 + e] for e in graph.edges()}
        colors = {e: 6 + e for e in graph.edges()}
        assert list_coloring_violations(graph, colors, lists) == []


class TestDefectiveCheckers:
    def test_vertex_defect_violations(self):
        graph = generators.complete_graph(4)
        classes = [0, 0, 0, 1]
        assert defective_vertex_coloring_violations(graph, classes, max_defect=2) == []
        violations = defective_vertex_coloring_violations(graph, classes, max_defect=1)
        assert len(violations) == 3

    def test_edge_defect_violations(self):
        graph = generators.star_graph(3)
        colors = {0: 0, 1: 0, 2: 0}
        bounds_tight = {e: 1 for e in graph.edges()}
        bounds_loose = {e: 2 for e in graph.edges()}
        assert len(defective_edge_coloring_violations(graph, colors, bounds_tight)) == 3
        assert defective_edge_coloring_violations(graph, colors, bounds_loose) == []


class TestOrientationAndInvariants:
    def test_orientation_in_degrees(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        orientation = {0: (0, 1), 1: (2, 1)}
        assert orientation_in_degrees(graph, orientation) == [0, 2, 0]

    def test_slack_invariant_violations(self):
        graph = generators.star_graph(3)
        # Each edge has degree 2 but only 2 colors: slack < 1 when uncolored.
        instance = ListEdgeColoringInstance(
            graph, {e: [0, 1] for e in graph.edges()}, color_space=2
        )
        violations = slack_invariant_violations(instance, coloring={})
        assert len(violations) == 3
        # Coloring one edge removes it from consideration; the remaining two
        # edges still violate the invariant (1 available color vs 1 + 1 needed).
        violations_after = slack_invariant_violations(instance, coloring={0: 0})
        assert len(violations_after) == 2
        # With a (degree+1)-sized list there is never a violation.
        good = ListEdgeColoringInstance(
            graph, {e: [0, 1, 2] for e in graph.edges()}, color_space=3
        )
        assert slack_invariant_violations(good, coloring={}) == []
