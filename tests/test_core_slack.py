"""Unit tests for list edge coloring instances and slack bookkeeping."""

from __future__ import annotations

import copy
import random

import pytest

from repro.core import engine
from repro.core.list_edge_coloring import list_edge_coloring
from repro.core.parameters import DEFAULT_PARAMETERS
from repro.core.slack import ListEdgeColoringInstance, uniform_instance
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.core import Graph


class TestInstanceBasics:
    def test_uniform_instance_is_degree_plus_one(self):
        graph = generators.random_regular_graph(20, 4, seed=1)
        instance = uniform_instance(graph)
        assert instance.color_space == 2 * graph.max_degree - 1
        assert instance.is_degree_plus_one()
        assert instance.min_slack() >= 1.0

    def test_exact_degree_plus_one_lists_qualify(self):
        # Edge e holding the first deg(e) + 1 colors is the tight case.
        graph = generators.grid_graph(4, 4)
        lists = {e: list(range(graph.edge_degree(e) + 1)) for e in graph.edges()}
        space = 2 * graph.max_degree - 1
        assert ListEdgeColoringInstance(graph, lists, space).is_degree_plus_one()
        lists[0] = lists[0][:-1]
        assert not ListEdgeColoringInstance(graph, lists, space).is_degree_plus_one()

    def test_degree_plus_one_rejects_short_lists(self):
        graph = generators.complete_graph(4)
        instance = ListEdgeColoringInstance(graph, {e: [0] for e in graph.edges()}, color_space=8)
        assert not instance.is_degree_plus_one()

    def test_validation_of_colors_and_missing_lists(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="outside the color space"):
            ListEdgeColoringInstance(graph, {0: [5], 1: [0]}, color_space=3)
        with pytest.raises(ValueError, match="no list"):
            ListEdgeColoringInstance(graph, {0: [0]}, color_space=3, edge_set={0, 1})


class TestDegreesAndSlack:
    def test_degrees_respect_edge_set(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        instance = ListEdgeColoringInstance(
            graph, {0: [0, 1], 2: [1, 2]}, color_space=3, edge_set={0, 2}
        )
        assert instance.edge_degree(0) == 0
        assert instance.max_edge_degree() == 0
        assert instance.slack(0) == float("inf")

    def test_min_slack(self):
        graph = generators.star_graph(3)
        lists = {e: [0, 1, 2, 3, 4, 5] for e in graph.edges()}
        instance = ListEdgeColoringInstance(graph, lists, color_space=6)
        # Every edge has degree 2 and 6 colors: slack 3.
        assert instance.min_slack() == pytest.approx(3.0)

    def test_availability_and_uncolored_degree(self):
        graph = generators.star_graph(3)
        lists = {e: [0, 1, 2] for e in graph.edges()}
        instance = ListEdgeColoringInstance(graph, lists, color_space=3)
        coloring = {0: 1}
        assert instance.available_colors(1, coloring) == [0, 2]
        assert instance.uncolored_degree(1, coloring) == 1
        assert instance.uncolored_degree(0, coloring) == 2

    def test_restricted_subinstance(self):
        graph = generators.cycle_graph(6)
        instance = uniform_instance(graph)
        sub = instance.restricted([0, 1])
        assert sub.edge_set == {0, 1}
        assert sub.max_edge_degree() == 1


class TestAscendingLists:
    @staticmethod
    def _shuffled(lists, seed):
        rng = random.Random(seed)
        return {e: rng.sample(lst, len(lst)) for e, lst in lists.items()}

    def test_unsorted_lists_are_sorted_copies_and_the_input_is_untouched(self):
        graph = generators.random_regular_graph(20, 4, seed=1)
        lists, space = generators.list_edge_coloring_lists(graph, slack=2.0, seed=4)
        given = self._shuffled({e: lists[e] for e in graph.edges()}, seed=4)
        given[0] = sorted(given[0])
        snapshot = copy.deepcopy(given)
        originals = dict(given)
        instance = ListEdgeColoringInstance(graph, given, space)
        assert given == snapshot
        assert all(given[e] is originals[e] for e in given)
        assert instance.lists is not given
        assert instance.lists == {e: sorted(lst) for e, lst in snapshot.items()}
        # An ascending list is kept as it is, not copied.
        assert instance.lists[0] is given[0]

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([2, 7, 0], "color 7 of edge 0 outside the color space"),
            ([2, -1, 0], "color -1 of edge 0 outside the color space"),
            ([2, 0, 2], "the list of edge 0 repeats color 2"),
        ],
    )
    def test_unsorted_lists_are_validated_after_sorting(self, bad, message):
        graph = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=message):
            ListEdgeColoringInstance(graph, {0: bad, 1: [0]}, color_space=3)

    def test_list_masks_match_the_lists(self):
        graph = generators.random_regular_graph(20, 4, seed=2)
        lists, space = generators.list_edge_coloring_lists(graph, slack=1.5, seed=6)
        instance = ListEdgeColoringInstance(
            graph, self._shuffled({e: lists[e] for e in graph.edges()}, seed=6), space
        )
        masks = instance.list_masks(graph.edges())
        assert list(masks) == list(graph.edges())
        for e in graph.edges():
            assert masks[e] == sum(1 << c for c in lists[e])
        assert instance.list_masks([3, 1]) == {3: masks[3], 1: masks[1]}

    def test_mask_list_runs_and_intervals(self):
        # Runs of one shared list, equal lists that are distinct objects,
        # interval lists (one shift) and lists with gaps, in one sequence.
        graph = Graph(8, [(i, i + 1) for i in range(7)])
        shared = [1, 2, 3]
        lists = {
            0: shared,
            1: shared,
            2: [1, 2, 3],
            3: [0, 2, 5],
            4: [4],
            5: [],
            6: shared,
        }
        instance = ListEdgeColoringInstance(graph, lists, color_space=6)
        order = [6, 0, 1, 2, 3, 4, 5, 3, 0]
        expected = [sum(1 << c for c in lists[e]) for e in order]
        assert instance.mask_list(order) == expected
        assert instance.mask_list([]) == []
        assert instance.list_masks(order) == dict(zip(order, expected))

    def test_uniform_instance_shares_one_palette_and_mask(self):
        graph = generators.random_regular_graph(20, 4, seed=3)
        instance = uniform_instance(graph)
        palette = instance.lists[0]
        assert palette == list(range(instance.color_space))
        assert all(instance.lists[e] is palette for e in graph.edges())
        masks = instance.list_masks(graph.edges())
        assert set(masks.values()) == {(1 << instance.color_space) - 1}

    @pytest.mark.parametrize("scan_path", ["numpy", "python"])
    def test_shuffled_lists_color_like_sorted_lists(self, scan_path):
        # Every pick is the lowest free bit of a list mask, the final
        # greedy stage's too, so list order changes no color or round.
        graph = generators.random_regular_graph(64, 16, seed=4)
        assert graph.max_degree > DEFAULT_PARAMETERS.final_degree
        lists, space = generators.list_edge_coloring_lists(graph, slack=1.0, seed=4)
        sorted_lists = {e: lists[e] for e in graph.edges()}
        runs = []
        for given in (sorted_lists, self._shuffled(sorted_lists, seed=5)):
            tracker = RoundTracker()
            with engine.scan_path(scan_path):
                result = list_edge_coloring(
                    graph, instance=ListEdgeColoringInstance(graph, given, space), tracker=tracker
                )
            runs.append(
                (list(result.colors.items()), result.rounds, list(tracker.breakdown.items()))
            )
        assert runs[0][1] > 0 and result.outer_iterations >= 1
        assert runs[0] == runs[1]
