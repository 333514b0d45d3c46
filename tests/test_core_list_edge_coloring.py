"""Unit tests for the (degree+1)-list edge coloring (Section 7 / Appendix D)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.coloring.greedy import UsedColorMasks
from repro.core import engine, parameters
from repro.core.list_edge_coloring import (
    list_edge_coloring,
    partially_color_bipartite,
    solve_relaxed_instance,
)
from repro.core.slack import ListEdgeColoringInstance, uniform_instance
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.core import degrees_within
from repro.verification.checkers import is_proper_edge_coloring, list_coloring_violations
from repro.verification.invariants import slack_invariant_violations


class TestTwoDeltaMinusOneColoring:
    def test_cycle(self):
        graph = generators.cycle_graph(17)
        result = list_edge_coloring(graph)
        assert is_proper_edge_coloring(graph, result.colors)
        assert result.num_colors <= 2 * graph.max_degree - 1

    def test_regular_graph(self, medium_regular):
        result = list_edge_coloring(medium_regular)
        assert is_proper_edge_coloring(medium_regular, result.colors)
        assert result.num_colors <= result.bound == 2 * medium_regular.max_degree - 1

    def test_irregular_graph(self):
        graph = generators.power_law_graph(60, attachment=3, seed=4)
        result = list_edge_coloring(graph)
        assert is_proper_edge_coloring(graph, result.colors)
        assert max(result.colors.values()) <= 2 * graph.max_degree - 2

    def test_larger_degree_uses_recursion(self):
        graph = generators.random_regular_graph(64, 14, seed=6)
        result = list_edge_coloring(graph)
        assert is_proper_edge_coloring(graph, result.colors)
        assert result.num_colors <= 2 * graph.max_degree - 1
        assert result.outer_iterations >= 1
        assert result.level_degrees[0] == 14

    def test_empty_graph(self):
        from repro.graphs.core import Graph

        result = list_edge_coloring(Graph(3, []))
        assert result.colors == {}


class TestListInstances:
    def test_random_degree_plus_one_lists(self):
        graph = generators.random_regular_graph(40, 6, seed=8)
        lists, space = generators.list_edge_coloring_lists(graph, slack=1.0, seed=3)
        instance = ListEdgeColoringInstance(graph, {e: lists[e] for e in graph.edges()}, space)
        result = list_edge_coloring(graph, instance=instance)
        assert list_coloring_violations(graph, result.colors, instance.lists) == []
        assert set(result.colors.keys()) == set(graph.edges())

    def test_lists_with_extra_slack(self):
        graph = generators.random_regular_graph(30, 6, seed=9)
        lists, space = generators.list_edge_coloring_lists(
            graph, slack=2.0, color_space=4 * graph.max_degree, seed=5
        )
        instance = ListEdgeColoringInstance(graph, {e: lists[e] for e in graph.edges()}, space)
        result = list_edge_coloring(graph, instance=instance)
        assert list_coloring_violations(graph, result.colors, instance.lists) == []

    def test_repeated_color_rejected(self):
        # A list like [0, 0] holds one color, not two: counting it twice
        # would pass the (degree+1) check and fail the solve deep in the
        # greedy pass.  Validation names the defect up front.
        graph = generators.path_graph(3)
        lists = {e: [0, 0] for e in graph.edges()}
        with pytest.raises(ValueError, match="repeats color 0"):
            ListEdgeColoringInstance(graph, lists, color_space=2)

    def test_repeat_in_one_list_is_named(self):
        # Every list but one is sound; validation still finds the one,
        # after sorting [2, 1, 2] into [1, 2, 2].
        graph = generators.path_graph(4)
        lists = {e: [0, 1, 2] for e in graph.edges()}
        lists[2] = [2, 1, 2]
        with pytest.raises(ValueError, match="the list of edge 2 repeats color 2"):
            ListEdgeColoringInstance(graph, lists, color_space=3)

    def test_violating_instance_rejected(self):
        graph = generators.complete_graph(5)
        bad = ListEdgeColoringInstance(
            graph, {e: [0] for e in graph.edges()}, color_space=2
        )
        with pytest.raises(ValueError, match="degree\\+1"):
            list_edge_coloring(graph, instance=bad)

    def test_invariant_holds_after_completion(self):
        graph = generators.random_regular_graph(30, 6, seed=10)
        instance = uniform_instance(graph)
        result = list_edge_coloring(graph, instance=instance)
        # Everything is colored, so the invariant trivially holds; more
        # importantly the coloring respects the lists.
        assert slack_invariant_violations(instance, result.colors) == []
        assert list_coloring_violations(graph, result.colors, instance.lists) == []


class TestSolver:
    def test_solve_relaxed_instance_with_slack(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        # Uniform 2Δ−1 lists give slack ≥ 1 on the bipartite instance.
        instance = uniform_instance(graph)
        colors = solve_relaxed_instance(graph, bipartition, instance.list_masks(graph.edges()))
        assert set(colors.keys()) == set(graph.edges())
        assert is_proper_edge_coloring(graph, colors)
        assert list_coloring_violations(graph, colors, instance.lists) == []

    def test_solver_rejects_insufficient_lists(self, small_bipartite):
        graph, bipartition = small_bipartite
        masks = {e: 1 for e in graph.edges()}
        with pytest.raises(ValueError, match="available colors"):
            solve_relaxed_instance(graph, bipartition, masks)

    def test_solver_on_subset(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        subset = sorted(graph.edges())[: graph.num_edges // 3]
        masks = uniform_instance(graph).list_masks(graph.edges())
        colors = solve_relaxed_instance(graph, bipartition, masks, edge_set=subset)
        assert set(colors.keys()) == set(subset)
        assert is_proper_edge_coloring(graph, colors, edge_set=subset)

    def test_empty_instance(self, small_bipartite):
        graph, bipartition = small_bipartite
        assert solve_relaxed_instance(graph, bipartition, {}) == {}

    # The exact output of the Lemma D.2 solver on a fixed seeded instance,
    # recorded before the incremental side_lists filtering (later bisect
    # windows, now bitmask windows) landed — no rewrite may shift a color.
    REGRESSION_PIN = {
        0: 3, 1: 4, 2: 0, 3: 2, 4: 1, 5: 3, 6: 2, 7: 3, 8: 1, 9: 0,
        10: 3, 11: 1, 12: 1, 13: 3, 14: 1, 15: 5, 16: 2, 17: 3, 18: 2, 19: 0,
        20: 0, 21: 0, 22: 0, 23: 4, 24: 4, 25: 2, 26: 0, 27: 2, 28: 0, 29: 1,
        30: 0, 31: 2, 32: 1, 33: 1, 34: 3, 35: 1, 36: 2, 37: 1, 38: 1, 39: 0,
        40: 2, 41: 1, 42: 2, 43: 3, 44: 3, 45: 2, 46: 3, 47: 1, 48: 0, 49: 0,
        50: 1, 51: 4, 52: 3, 53: 2, 54: 3, 55: 2, 56: 0, 57: 4, 58: 1, 59: 0,
        60: 4, 61: 0, 62: 2, 63: 3,
    }

    def regression_instance(self):
        graph, bipartition = generators.regular_bipartite_graph(16, 4, seed=5)
        lists, space = generators.list_edge_coloring_lists(graph, slack=2.0, seed=11)
        return graph, bipartition, {e: lists[e] for e in graph.edges()}, space

    def test_solver_output_pinned(self):
        graph, bipartition, lists, _space = self.regression_instance()
        masks = {e: sum(1 << c for c in lst) for e, lst in lists.items()}
        colors = solve_relaxed_instance(graph, bipartition, masks)
        assert list_coloring_violations(graph, colors, lists) == []
        assert colors == self.REGRESSION_PIN

    def test_solver_handles_unsorted_lists(self):
        # An instance keeps its lists ascending and the solver reads them
        # as bitmasks, so list order is invisible: reversed lists give the
        # pinned coloring.
        graph, bipartition, lists, space = self.regression_instance()
        reversed_lists = {e: list(reversed(lst)) for e, lst in lists.items()}
        instance = ListEdgeColoringInstance(graph, reversed_lists, space)
        colors = solve_relaxed_instance(graph, bipartition, instance.list_masks(graph.edges()))
        assert list_coloring_violations(graph, colors, reversed_lists) == []
        assert colors == self.REGRESSION_PIN


def coloring_digest(colors):
    """sha256 of the coloring as a sorted ``[[edge, color], ...]`` JSON list."""
    return hashlib.sha256(json.dumps(sorted(colors.items())).encode()).hexdigest()


class TestLemmaD3Pinned:
    """Theorem D.4 runs that reach the Lemma D.3 / D.2 path (Δ > final_degree).

    The determinism goldens stop below ``final_degree``, so they never
    reach ``partially_color_bipartite``.  These digests, round totals and
    round breakdowns were recorded with the earlier list-based
    availability code (bisect windows over the instance lists and
    per-node used-color sets); the bitmask rewrite must reproduce them.
    """

    BREAKDOWN = {
        "defective-local-search": 8,
        "defective-poly-reduction": 1,
        "degree-reduction-split-level": 1151,
        "greedy-edge-classes": 230,
        "linial": 133,
        "list-solver-split-level": 0,
    }
    #: The breakdown's label order (first-charge order), recorded with one
    #: split recursion per class-pair piece.
    LABELS = [
        "defective-poly-reduction",
        "defective-local-search",
        "degree-reduction-split-level",
        "list-solver-split-level",
        "linial",
        "greedy-edge-classes",
    ]
    PINS = {
        "uniform": (
            "acc550e298c33fa95588fdc0d53002b23730d87e4948437a75dda5a2cd0b2ee8",
            1523,
            BREAKDOWN,
        ),
        "random-lists": (
            "ebc3cca6ab1b6949df2960f2bdba7641655c76a02ffda3b36eb9f026e686b7dc",
            1523,
            BREAKDOWN,
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINS))
    def test_pinned(self, kind):
        graph = generators.random_regular_graph(96, 16, seed=2)
        if kind == "uniform":
            instance = uniform_instance(graph)
        else:
            lists, space = generators.list_edge_coloring_lists(graph, slack=1.0, seed=2)
            instance = ListEdgeColoringInstance(
                graph, {e: lists[e] for e in graph.edges()}, space
            )
        tracker = RoundTracker()
        result = list_edge_coloring(graph, instance=instance, tracker=tracker)
        assert list_coloring_violations(graph, result.colors, instance.lists) == []
        assert set(result.colors) == set(graph.edges())
        digest, rounds, breakdown = self.PINS[kind]
        assert coloring_digest(result.colors) == digest
        assert result.rounds == rounds
        assert dict(tracker.breakdown) == breakdown
        assert list(tracker.breakdown) == self.LABELS


class TestLemmaD2Pinned:
    """A Lemma D.2 solve whose color-space split levels run.

    Every :class:`TestLemmaD3Pinned` breakdown charges
    ``list-solver-split-level`` 0; this one charges 288, so the Lemma D.2
    split loop is fixed too.  Digest, rounds and breakdown were recorded
    with one defective-split call per part, under both forced engines.
    """

    DIGEST = "581a5bf5827afb864d3753793a63fffb55b5ebd04feac8d67ee6151b48f924c7"
    BREAKDOWN = {
        "list-solver-split-level": 288,
        "linial": 3,
        "greedy-edge-classes": 119,
    }
    #: The breakdown's label order (first-charge order).
    LABELS = ["list-solver-split-level", "linial", "greedy-edge-classes"]
    #: A solve in which no edge is active at the first level (every list
    #: is below ``passive_slack_threshold`` times its degree): the split
    #: level is charged 0, first, and one greedy batch colors every edge.
    #: Recorded with the full level loop, before the solver exited early
    #: on such an instance.
    PASSIVE_DIGEST = "28dd01ab461d92d532e68ccd5b5dde00e1c19fa8862fef9e3c73c7dc3f3024c6"
    PASSIVE_BREAKDOWN = {
        "list-solver-split-level": 0,
        "linial": 2,
        "greedy-edge-classes": 183,
    }

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    def test_pinned(self, scan_path):
        graph, bipartition = generators.regular_bipartite_graph(64, 24, seed=3)
        lists = {e: range(4 * (2 * 24 - 1)) for e in graph.edges()}
        masks = {e: (1 << 4 * (2 * 24 - 1)) - 1 for e in graph.edges()}
        tracker = RoundTracker()
        with engine.scan_path(scan_path):
            colors = solve_relaxed_instance(graph, bipartition, masks, tracker=tracker)
        assert list_coloring_violations(graph, colors, lists) == []
        assert coloring_digest(colors) == self.DIGEST
        assert tracker.total == 410
        assert dict(tracker.breakdown) == self.BREAKDOWN
        assert list(tracker.breakdown) == self.LABELS

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    def test_all_passive_pinned(self, scan_path):
        graph, bipartition = generators.regular_bipartite_graph(256, 12, seed=5)
        # Windows of 23..42 colors at offsets 0..6: every list has at
        # least deg + 1 = 23 colors and fewer than 2 · 22.
        masks = {e: ((1 << (23 + e % 20)) - 1) << (e % 7) for e in graph.edges()}
        lists = {e: [c for c in range(50) if masks[e] >> c & 1] for e in graph.edges()}
        tracker = RoundTracker()
        with engine.scan_path(scan_path):
            colors = solve_relaxed_instance(graph, bipartition, masks, tracker=tracker)
        assert list_coloring_violations(graph, colors, lists) == []
        assert set(colors) == set(graph.edges())
        assert coloring_digest(colors) == self.PASSIVE_DIGEST
        assert tracker.total == 185
        assert dict(tracker.breakdown) == self.PASSIVE_BREAKDOWN
        assert list(tracker.breakdown) == self.LABELS


class TestDegreeReduction:
    def test_partial_coloring_reduces_uncolored_degree(self):
        graph, bipartition = generators.regular_bipartite_graph(48, 10, seed=12)
        instance = uniform_instance(graph)
        coloring = {}
        newly = partially_color_bipartite(
            graph, instance, [(bipartition, list(graph.edges()))], coloring
        )
        assert newly
        combined = dict(newly)
        assert is_proper_edge_coloring(graph, combined, edge_set=list(newly.keys()))
        # The uncolored degree must have dropped below the original Δ̄.
        uncolored = [e for e in graph.edges() if e not in combined]
        bar_delta = graph.max_edge_degree
        if uncolored:
            assert max(degrees_within(graph, uncolored)[1]) < bar_delta
        # The invariant that makes the remaining instance colorable holds.
        assert slack_invariant_violations(instance, combined) == []

    def test_partial_coloring_with_existing_colors(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        instance = uniform_instance(graph)
        # Pre-color a few edges greedily and hand them in as existing colors.
        existing = {}
        for e in sorted(graph.edges())[:5]:
            used = {existing[f] for f in graph.adjacent_edges(e) if f in existing}
            existing[e] = next(c for c in instance.lists[e] if c not in used)
        newly = partially_color_bipartite(
            graph, instance, [(bipartition, list(graph.edges()))], existing
        )
        combined = {**existing, **newly}
        assert is_proper_edge_coloring(graph, combined, edge_set=list(combined.keys()))
        assert all(e not in existing for e in newly)

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    def test_edge_set_order_and_repeats_do_not_matter(self, scan_path):
        graph, bipartition = generators.regular_bipartite_graph(64, 24, seed=3)
        instance = uniform_instance(graph)

        def run(edge_set):
            tracker = RoundTracker()
            with engine.scan_path(scan_path):
                newly = partially_color_bipartite(
                    graph, instance, [(bipartition, edge_set)], {}, tracker=tracker
                )
            return newly, tracker.breakdown

        edges = list(graph.edges())
        ascending = run(edges)
        assert ascending[1]["degree-reduction-split-level"] > 0
        assert run(edges[::-1]) == ascending
        assert run(edges[::-1] + edges[:50]) == ascending

    def test_shared_used_colors_receive_the_new_colors(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        instance = uniform_instance(graph)
        existing = {0: 0}
        used = UsedColorMasks.from_edge_coloring(graph, existing)
        newly = partially_color_bipartite(
            graph, instance, [(bipartition, list(graph.edges()))], existing, used_colors=used
        )
        assert newly == partially_color_bipartite(
            graph, instance, [(bipartition, list(graph.edges()))], existing
        )
        expected = UsedColorMasks.from_edge_coloring(graph, {**existing, **newly})
        assert all(used.mask(v) == expected.mask(v) for v in graph.nodes())


class TestRoundsAndParameters:
    def test_rounds_tracked(self, small_regular):
        tracker = RoundTracker()
        result = list_edge_coloring(small_regular, tracker=tracker)
        assert tracker.total == result.rounds

    def test_custom_parameters(self):
        graph = generators.random_regular_graph(40, 8, seed=15)
        params = parameters.PracticalParameters(final_degree=4, list_reduction_parts=8)
        result = list_edge_coloring(graph, params=params)
        assert is_proper_edge_coloring(graph, result.colors)
        assert result.num_colors <= 2 * graph.max_degree - 1
