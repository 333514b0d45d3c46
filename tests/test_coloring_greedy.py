"""Unit tests for greedy coloring scheduled by color classes."""

from __future__ import annotations

import pytest

from repro.coloring.greedy import (
    UsedColorMasks,
    greedy_edge_coloring_by_classes,
    greedy_vertex_coloring_by_classes,
    proper_edge_schedule,
)
from repro.coloring.linial import linial_edge_coloring, linial_vertex_coloring
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.verification.checkers import is_proper_edge_coloring, is_proper_vertex_coloring


class TestGreedyVertexColoring:
    def test_delta_plus_one_colors(self):
        graph = generators.random_regular_graph(40, 5, seed=1)
        schedule, _num = linial_vertex_coloring(graph)
        colors = greedy_vertex_coloring_by_classes(graph, schedule)
        assert is_proper_vertex_coloring(graph, colors)
        assert max(colors) <= graph.max_degree

    def test_respects_lists(self):
        graph = generators.cycle_graph(8)
        schedule, _num = linial_vertex_coloring(graph)
        lists = [[v % 3, 5 + (v % 3), 10 + v] for v in graph.nodes()]
        colors = greedy_vertex_coloring_by_classes(graph, schedule, lists=lists)
        assert is_proper_vertex_coloring(graph, colors)
        for v in graph.nodes():
            assert colors[v] in lists[v]

    def test_too_small_palette_raises(self):
        graph = generators.complete_graph(5)
        schedule, _num = linial_vertex_coloring(graph)
        with pytest.raises(ValueError, match="no available color"):
            greedy_vertex_coloring_by_classes(graph, schedule, palette_size=2)

    def test_charges_one_round_per_class(self):
        graph = generators.cycle_graph(10)
        schedule, _num = linial_vertex_coloring(graph)
        tracker = RoundTracker()
        greedy_vertex_coloring_by_classes(graph, schedule, tracker=tracker)
        assert tracker.total == len(set(schedule))


class TestGreedyEdgeColoring:
    def test_two_delta_minus_one_colors(self):
        graph = generators.random_regular_graph(30, 4, seed=2)
        schedule, _num = linial_edge_coloring(graph)
        colors = greedy_edge_coloring_by_classes(graph, schedule)
        assert is_proper_edge_coloring(graph, colors)
        assert max(colors.values()) <= 2 * graph.max_degree - 2

    def test_subset_coloring_respects_existing(self):
        graph = generators.grid_graph(4, 4)
        schedule, _num = linial_edge_coloring(graph)
        all_edges = list(graph.edges())
        first_half = set(all_edges[: len(all_edges) // 2])
        second_half = set(all_edges) - first_half
        colors_a = greedy_edge_coloring_by_classes(graph, schedule, edge_set=first_half)
        colors_b = greedy_edge_coloring_by_classes(
            graph, schedule, edge_set=second_half, existing_colors=colors_a
        )
        combined = {**colors_a, **colors_b}
        assert is_proper_edge_coloring(graph, combined)

    def test_respects_edge_lists(self):
        graph = generators.cycle_graph(9)
        schedule, _num = linial_edge_coloring(graph)
        lists = {e: [e % 3, 3 + (e % 3), 6 + e] for e in graph.edges()}
        colors = greedy_edge_coloring_by_classes(graph, schedule, lists=lists)
        assert is_proper_edge_coloring(graph, colors)
        for e, c in colors.items():
            assert c in lists[e]

    def test_small_palette_raises(self):
        graph = generators.star_graph(4)
        schedule, _num = linial_edge_coloring(graph)
        with pytest.raises(ValueError, match="no available color"):
            greedy_edge_coloring_by_classes(graph, schedule, palette_size=2)

    def test_list_masks_pick_the_smallest_available_color(self):
        # A mask carries no list order: the pick is the smallest available
        # color, which on sorted lists is the first available list entry.
        graph = generators.random_regular_graph(20, 4, seed=3)
        schedule = proper_edge_schedule(graph, list(graph.edges()))
        lists = {e: [(5 * e + 3 * i) % 13 for i in range(7)] for e in graph.edges()}
        masks = {e: sum(1 << c for c in lst) for e, lst in lists.items()}
        from_masks = greedy_edge_coloring_by_classes(graph, schedule, list_masks=masks)
        from_sorted = greedy_edge_coloring_by_classes(
            graph, schedule, lists={e: sorted(lst) for e, lst in lists.items()}
        )
        assert from_masks == from_sorted
        assert is_proper_edge_coloring(graph, from_masks)
        with pytest.raises(ValueError, match="not both"):
            greedy_edge_coloring_by_classes(
                graph, schedule, lists=lists, list_masks=masks
            )

    def test_shared_used_colors_match_existing_colors(self):
        # Caller-owned masks stand in for ``existing_colors`` and receive
        # the new colors in place.
        graph = generators.grid_graph(4, 4)
        schedule, _num = linial_edge_coloring(graph)
        all_edges = list(graph.edges())
        first_half = set(all_edges[: len(all_edges) // 2])
        second_half = set(all_edges) - first_half
        colors_a = greedy_edge_coloring_by_classes(graph, schedule, edge_set=first_half)
        used = UsedColorMasks.from_edge_coloring(graph, colors_a)
        shared = greedy_edge_coloring_by_classes(
            graph, schedule, edge_set=second_half, used_colors=used
        )
        assert shared == greedy_edge_coloring_by_classes(
            graph, schedule, edge_set=second_half, existing_colors=colors_a
        )
        combined = {**colors_a, **shared}
        expected = UsedColorMasks.from_edge_coloring(graph, combined)
        assert all(used.mask(v) == expected.mask(v) for v in graph.nodes())
        with pytest.raises(ValueError, match="already colored"):
            greedy_edge_coloring_by_classes(
                graph, schedule, edge_set=second_half, existing_colors=combined,
                used_colors=used,
            )


# Pinned outputs of proper_edge_schedule / greedy_edge_coloring_by_classes,
# recorded before the availability scans moved to maintained per-node
# used-color sets.  The refactor must not change a single schedule class or
# color choice; these literals are the pre-change ground truth.
_PINNED_BIPARTITE_16_4_SCHEDULE = {
    0: 10, 1: 11, 2: 0, 3: 11, 4: 10, 5: 6, 6: 5, 7: 6, 8: 3, 9: 7, 10: 12,
    11: 4, 12: 3, 13: 64, 14: 4, 15: 43, 16: 5, 17: 7, 18: 12, 19: 8, 20: 2,
    21: 1, 22: 0, 23: 36, 24: 11, 25: 9, 26: 6, 27: 6, 28: 0, 29: 8, 30: 2,
    31: 11, 32: 1, 33: 6, 34: 7, 35: 10, 36: 9, 37: 9, 38: 1, 39: 2, 40: 6,
    41: 4, 42: 4, 43: 8, 44: 10, 45: 3, 46: 12, 47: 17, 48: 15, 49: 1, 50: 2,
    51: 12, 52: 7, 53: 5, 54: 9, 55: 34, 56: 1, 57: 12, 58: 1, 59: 3, 60: 12,
    61: 4, 62: 9, 63: 10,
}
_PINNED_BIPARTITE_16_4_COLORS = {
    0: 3, 1: 4, 2: 0, 3: 2, 4: 1, 5: 3, 6: 2, 7: 3, 8: 1, 9: 0, 10: 3, 11: 1,
    12: 1, 13: 3, 14: 1, 15: 5, 16: 2, 17: 3, 18: 2, 19: 0, 20: 0, 21: 0,
    22: 0, 23: 4, 24: 4, 25: 2, 26: 0, 27: 2, 28: 0, 29: 1, 30: 0, 31: 2,
    32: 1, 33: 1, 34: 3, 35: 1, 36: 2, 37: 1, 38: 1, 39: 0, 40: 2, 41: 1,
    42: 2, 43: 3, 44: 3, 45: 2, 46: 3, 47: 1, 48: 0, 49: 0, 50: 1, 51: 4,
    52: 3, 53: 2, 54: 3, 55: 2, 56: 0, 57: 4, 58: 1, 59: 0, 60: 4, 61: 0,
    62: 2, 63: 3,
}
_PINNED_REGULAR_24_6_COLORS = {
    0: 1, 1: 3, 2: 2, 3: 4, 4: 6, 5: 5, 6: 6, 7: 4, 8: 5, 9: 0, 10: 7, 11: 3,
    12: 3, 13: 5, 14: 4, 15: 2, 16: 1, 17: 0, 18: 5, 19: 4, 20: 1, 21: 6,
    22: 2, 23: 3, 24: 5, 25: 2, 26: 1, 27: 6, 28: 0, 29: 3, 30: 1, 31: 0,
    32: 4, 33: 6, 34: 5, 35: 0, 36: 4, 37: 2, 38: 6, 39: 5, 40: 0, 41: 3,
    42: 4, 43: 1, 44: 0, 45: 6, 46: 5, 47: 1, 48: 0, 49: 6, 50: 0, 51: 2,
    52: 0, 53: 1, 54: 3, 55: 1, 56: 2, 57: 3, 58: 2, 59: 1, 60: 4, 61: 2,
    62: 3, 63: 3, 64: 2, 65: 4, 66: 1, 67: 5, 68: 4, 69: 6, 70: 5, 71: 3,
}
_PINNED_SUBSET_20_4_COLORS = {
    0: 2, 2: 3, 4: 1, 6: 3, 8: 3, 10: 0, 12: 0, 14: 1, 16: 0, 18: 2, 20: 1,
    22: 3, 24: 0, 26: 2, 28: 0, 30: 0, 32: 1, 34: 1, 36: 1, 38: 0,
}
_PINNED_RECOLOR_12_4_COLORS = {
    0: 1, 1: 2, 2: 3, 3: 0, 4: 3, 5: 0, 6: 2, 7: 1, 8: 3, 9: 2, 10: 1, 11: 1,
    12: 2, 13: 3, 14: 4, 15: 0, 16: 3, 17: 2, 18: 4, 19: 0, 20: 4, 21: 1,
    22: 0, 23: 5,
}


class TestGreedyScheduleRegression:
    """Pre-refactor snapshots of schedules and greedy choices (see above)."""

    def test_bipartite_schedule_and_colors_pinned(self):
        graph, _bip = generators.regular_bipartite_graph(16, 4, seed=5)
        schedule = proper_edge_schedule(graph, list(graph.edges()))
        assert schedule == _PINNED_BIPARTITE_16_4_SCHEDULE
        colors = greedy_edge_coloring_by_classes(graph, schedule)
        assert colors == _PINNED_BIPARTITE_16_4_COLORS

    def test_regular_graph_colors_pinned(self):
        graph = generators.random_regular_graph(24, 6, seed=9)
        schedule = proper_edge_schedule(graph, list(graph.edges()))
        colors = greedy_edge_coloring_by_classes(graph, schedule)
        assert colors == _PINNED_REGULAR_24_6_COLORS

    def test_subset_with_lists_and_existing_colors_pinned(self):
        graph = generators.random_regular_graph(20, 4, seed=3)
        subset = sorted(set(graph.edges()))[::2]
        schedule = proper_edge_schedule(graph, subset)
        lists = {e: list(range(12)) for e in subset}
        others = [e for e in graph.edges() if e not in set(subset)][:6]
        existing = {e: (i % 3) for i, e in enumerate(others)}
        colors = greedy_edge_coloring_by_classes(
            graph, schedule, lists=lists, edge_set=set(subset), existing_colors=existing
        )
        assert colors == _PINNED_SUBSET_20_4_COLORS

    def test_recoloring_over_precolored_targets_pinned(self):
        # Target edges that already carry a color must take the exact scan
        # path (per-node masks cannot express re-coloring an existing entry).
        graph = generators.random_regular_graph(12, 4, seed=1)
        schedule = proper_edge_schedule(graph, list(graph.edges()))
        pre = {e: 7 for e in list(graph.edges())[:4]}
        colors = greedy_edge_coloring_by_classes(
            graph, schedule, palette_size=8, existing_colors=pre
        )
        assert colors == _PINNED_RECOLOR_12_4_COLORS


class TestProperEdgeSchedule:
    def test_schedule_is_proper_within_subset(self):
        graph = generators.random_regular_graph(24, 4, seed=3)
        subset = set(list(graph.edges())[::2])
        schedule = proper_edge_schedule(graph, subset)
        assert set(schedule.keys()) == subset
        for e in subset:
            for f in graph.adjacent_edges(e):
                if f in subset:
                    assert schedule[e] != schedule[f]

    def test_empty_subset(self):
        graph = generators.cycle_graph(5)
        assert proper_edge_schedule(graph, []) == {}

    def test_schedule_usable_for_greedy(self):
        graph = generators.erdos_renyi_graph(40, 0.1, seed=4)
        subset = set(graph.edges())
        schedule = proper_edge_schedule(graph, subset)
        colors = greedy_edge_coloring_by_classes(
            graph, schedule, palette_size=max(1, 2 * graph.max_degree - 1), edge_set=subset
        )
        assert is_proper_edge_coloring(graph, colors)
