"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graph_helpers import materialized_line_graph
from repro.baselines.sequential import sequential_greedy_edge_coloring
from repro.coloring.greedy import (
    UsedColorMasks,
    greedy_edge_coloring_by_classes,
    proper_edge_schedule,
)
from repro.coloring.linial import linial_vertex_coloring
from repro.coloring.palettes import ColorRange
from repro.core.defective_edge_coloring import (
    generalized_defective_two_edge_coloring,
    half_split_lambdas,
)
from repro.core import engine
from repro.core.engine import _np
from repro.core.slack import uniform_instance
from repro.core.token_dropping import TokenDroppingGame, run_token_dropping, uniform_alpha
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import find_bipartition
from repro.graphs.core import DirectedGraph, Graph
from repro.verification.checkers import is_proper_edge_coloring, is_proper_vertex_coloring
from repro.verification.invariants import check_token_game_validity, slack_invariant_violations

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_nodes=14, edge_probability=0.35):
    """Small random simple graphs."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()) and draw(st.floats(0, 1)) < edge_probability * 2:
                edges.append((u, v))
    return Graph(n, edges)


@st.composite
def graphs_with_isolated_nodes_and_scrambled_ids(draw):
    """A random graph plus up to three isolated nodes, with identifiers
    drawn injectively from a space eight times the node count."""
    graph = draw(random_graphs())
    n = graph.num_nodes + draw(st.integers(min_value=0, max_value=3))
    ids = draw(st.lists(st.integers(0, 8 * n), min_size=n, max_size=n, unique=True))
    return Graph(n, [graph.edge_endpoints(e) for e in graph.edges()], node_ids=ids)


@st.composite
def random_bipartite_graphs(draw, max_side=8):
    """Small random bipartite graphs with their natural bipartition sides."""
    left = draw(st.integers(min_value=1, max_value=max_side))
    right = draw(st.integers(min_value=1, max_value=max_side))
    edges = []
    for u in range(left):
        for v in range(right):
            if draw(st.booleans()):
                edges.append((u, left + v))
    return Graph(left + right, edges), left


@st.composite
def random_digraphs(draw, max_nodes=10):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.floats(0, 1)) < 0.2:
                arcs.append((u, v))
    return DirectedGraph(n, arcs)


class TestGraphProperties:
    @_SETTINGS
    @given(random_graphs())
    def test_edge_degree_definition(self, graph):
        for e in graph.edges():
            u, v = graph.edge_endpoints(e)
            assert graph.edge_degree(e) == graph.degree(u) + graph.degree(v) - 2
            assert graph.edge_degree(e) == len(graph.adjacent_edges(e))

    @_SETTINGS
    @given(graphs_with_isolated_nodes_and_scrambled_ids())
    def test_line_graph_consistency(self, graph):
        line = graph.line_graph()
        oracle = materialized_line_graph(graph)
        assert line.num_nodes == oracle.num_nodes == graph.num_edges
        assert line.node_ids == oracle.node_ids
        assert line.num_edges == oracle.num_edges
        assert line.max_degree == oracle.max_degree == graph.max_edge_degree
        for e in graph.edges():
            assert line.node_id(e) == oracle.node_id(e)
            assert line.degree(e) == oracle.degree(e) == graph.edge_degree(e)
            # Rows are u-side then v-side, not sorted: compare as sets
            # (sorted lists, so a repeated entry would show too).
            assert sorted(line.neighbors(e)) == oracle.neighbors(e)


class TestColoringProperties:
    @_SETTINGS
    @given(random_graphs())
    def test_linial_is_proper(self, graph):
        colors, num_colors = linial_vertex_coloring(graph)
        assert is_proper_vertex_coloring(graph, colors)
        assert all(0 <= c < num_colors for c in colors)

    @_SETTINGS
    @given(random_graphs())
    def test_sequential_greedy_never_exceeds_edge_degree_plus_one(self, graph):
        colors = sequential_greedy_edge_coloring(graph)
        assert is_proper_edge_coloring(graph, colors)
        if colors:
            assert max(colors.values()) <= graph.max_edge_degree

    @_SETTINGS
    @given(random_graphs())
    def test_greedy_by_schedule_respects_degree_plus_one_lists(self, graph):
        if graph.num_edges == 0:
            return
        instance = uniform_instance(graph)
        schedule = proper_edge_schedule(graph, graph.edges())
        colors = greedy_edge_coloring_by_classes(
            graph,
            schedule,
            edge_set=set(graph.edges()),
            list_masks=instance.list_masks(graph.edges()),
        )
        assert is_proper_edge_coloring(graph, colors)
        assert slack_invariant_violations(instance, colors) == []

    @_SETTINGS
    @given(random_graphs(max_nodes=24, edge_probability=0.3), st.data())
    def test_schedule_and_leaf_engines_agree_on_precolored_masks(self, graph, data):
        if _np is None or graph.num_edges == 0:
            return
        edges = list(graph.edges())
        precolored = set(data.draw(st.lists(st.sampled_from(edges), unique=True)))
        rest = [e for e in edges if e not in precolored]
        palette = max(1, 2 * graph.max_degree - 1)
        runs = {}
        for path in ("python", "numpy"):
            used = UsedColorMasks(graph.num_nodes)
            tracker = RoundTracker()
            with engine.scan_path(path):
                first = proper_edge_schedule(graph, precolored)
                colors = greedy_edge_coloring_by_classes(graph, first, used_colors=used)
                schedule = proper_edge_schedule(graph, rest, tracker=tracker)
                before = dict(tracker.breakdown)
                new = greedy_edge_coloring_by_classes(
                    graph, schedule, used_colors=used, tracker=tracker
                )
            # The leaf's charge is its schedule's number of non-empty classes.
            charged = tracker.breakdown.get("greedy-edge-classes", 0)
            assert charged - before.get("greedy-edge-classes", 0) == len(set(schedule.values()))
            colors.update(new)
            assert is_proper_edge_coloring(graph, colors)
            assert all(c < palette for c in colors.values())
            masks = [used.mask(v) for v in graph.nodes()]
            runs[path] = (schedule, list(new.items()), tracker.breakdown, masks)
        assert runs["python"] == runs["numpy"]

    @_SETTINGS
    @given(random_bipartite_graphs())
    def test_defective_split_covers_all_edges(self, graph_and_left):
        graph, _left = graph_and_left
        if graph.num_edges == 0:
            return
        bipartition = find_bipartition(graph)
        assert bipartition is not None
        result = generalized_defective_two_edge_coloring(
            graph, bipartition, half_split_lambdas(graph.edges()), epsilon=0.5
        )
        assert result.red_edges | result.blue_edges == set(graph.edges())
        assert result.red_edges.isdisjoint(result.blue_edges)
        # Defects are measured correctly: never negative, never more than
        # the edge degree.
        for e, defect in result.defects.items():
            assert 0 <= defect <= graph.edge_degree(e)


class TestTokenDroppingProperties:
    @_SETTINGS
    @given(random_digraphs(), st.integers(min_value=1, max_value=6), st.data())
    def test_invariants_on_random_games(self, digraph, k, data):
        tokens = [
            data.draw(st.integers(min_value=0, max_value=k), label=f"tokens[{v}]")
            for v in digraph.nodes()
        ]
        delta = data.draw(st.integers(min_value=1, max_value=k), label="delta")
        game = TokenDroppingGame(
            graph=digraph,
            k=k,
            initial_tokens=tokens,
            alpha=uniform_alpha(digraph.num_nodes, delta),
            delta=delta,
        )
        result = run_token_dropping(game)
        assert check_token_game_validity(game, result) == []
        assert result.max_tokens() <= k
        # α_v ≥ δ everywhere, so Theorem 4.3 applies.
        assert result.slack_violations() == []


class TestColorRangeProperties:
    @_SETTINGS
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=500))
    def test_halves_partition_the_range(self, start, size):
        colors = ColorRange(start, start + size)
        left, right = colors.halves()
        assert left.size + right.size == colors.size
        assert abs(left.size - right.size) <= 1
        for c in (start, start + size // 2, start + max(0, size - 1)):
            if c in colors:
                assert (c in left) != (c in right)
