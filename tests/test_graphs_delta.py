"""DeltaGraph: the epoch-versioned mutable overlay over a CSR base."""

import gc
import random
import weakref

import pytest

from graph_helpers import assert_python_ints, csr_arrays, current_graph
from repro.core import engine
from repro.graphs import generators
from repro.graphs.core import Graph
from repro.graphs.delta import UNCOLORED, DeltaGraph


def _pairs(graph):
    return sorted(graph.edge_pairs())


class TestConstruction:
    def test_mirrors_base(self):
        base = generators.random_regular_graph(24, 4, seed=1)
        dg = DeltaGraph(base)
        assert dg.num_nodes == base.num_nodes
        assert dg.num_edges == base.num_edges
        assert dg.epoch == 0
        assert dg.overlay_size == 0
        assert dg.max_degree() == base.max_degree
        for v in base.nodes():
            assert dg.degree(v) == base.degree(v)
            assert list(dg.neighbors(v)) == list(base.neighbors(v))
        assert _pairs(dg) == sorted(
            base.edge_endpoints(e) for e in base.edges()
        )

    def test_initial_edge_set_rebuilds_the_base(self):
        base = generators.graph_with_scrambled_ids(generators.cycle_graph(8), seed=2)
        dg = DeltaGraph(base)
        rebuilt = current_graph(dg)
        assert rebuilt.node_ids == base.node_ids
        assert sorted(rebuilt.edge_endpoints(e) for e in rebuilt.edges()) == sorted(
            base.edge_endpoints(e) for e in base.edges()
        )
        for name in ("_degrees", "_max_degree", "_xadj", "_adj"):
            assert csr_arrays(rebuilt)[name] == csr_arrays(base)[name]

    def test_does_not_keep_the_base_graph_alive(self):
        # The live rows and the identifier list are all a DeltaGraph
        # keeps of its construction graph.
        base = generators.random_regular_graph(24, 4, seed=1)
        source = weakref.ref(base)
        pairs = sorted(base.edge_endpoints(e) for e in base.edges())
        dg = DeltaGraph(base)
        del base
        gc.collect()
        assert source() is None
        assert _pairs(dg) == pairs


class TestMutations:
    def test_insert_and_delete_roundtrip(self):
        base = generators.cycle_graph(6)
        dg = DeltaGraph(base)
        assert dg.insert_edge(0, 3) == 1
        assert dg.has_edge(0, 3) and dg.has_edge(3, 0)
        assert dg.degree(0) == 3 and dg.num_edges == 7
        assert 3 in dg.neighbors(0)
        assert dg.delete_edge(3, 0) == 2
        assert not dg.has_edge(0, 3)
        assert dg.degree(0) == 2 and dg.num_edges == 6
        assert dg.overlay_size == 0  # overlay cancels out, epoch does not
        assert dg.epoch == 2

    def test_delete_base_edge_then_reinsert(self):
        base = generators.cycle_graph(6)
        dg = DeltaGraph(base)
        dg.delete_edge(0, 1)
        assert not dg.has_edge(0, 1)
        assert 1 not in dg.neighbors(0)
        dg.insert_edge(1, 0)
        assert dg.has_edge(0, 1)
        assert list(dg.neighbors(0)) == list(base.neighbors(0))
        assert dg.overlay_size == 0

    def test_validation_errors(self):
        dg = DeltaGraph(generators.cycle_graph(5))
        with pytest.raises(ValueError, match="self-loop"):
            dg.insert_edge(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            dg.insert_edge(0, 99)
        with pytest.raises(ValueError, match="already present"):
            dg.insert_edge(0, 1)
        with pytest.raises(ValueError, match="not present"):
            dg.delete_edge(0, 2)
        # failed mutations must not bump the epoch
        assert dg.epoch == 0

    def test_has_edge_is_false_for_out_of_range_endpoints(self):
        # The live rows are a python list, so a bare ``rows[-1]`` would
        # read the last node's row; ``has_edge`` must not.
        dg = DeltaGraph(generators.cycle_graph(5))
        dg.insert_edge(4, 1)
        for u, v in ((-1, 4), (4, -1), (-1, 0), (0, -1), (5, 0), (0, 5), (5, 4), (-1, -1)):
            assert not dg.has_edge(u, v)
        with pytest.raises(ValueError, match="not present"):
            dg.delete_edge(-1, 4)
        assert dg.epoch == 1

    def test_neighbors_stay_sorted(self):
        dg = DeltaGraph(generators.cycle_graph(10))
        dg.insert_edge(0, 5)
        dg.insert_edge(0, 3)
        dg.insert_edge(0, 7)
        row = dg.neighbors(0)
        assert row == sorted(row) == [1, 3, 5, 7, 9]

    def test_current_graph_matches_rebuilt_graph(self):
        base = generators.random_regular_graph(20, 4, seed=3)
        dg = DeltaGraph(base)
        model = {base.edge_endpoints(e) for e in base.edges()}
        dg.delete_edge(*base.edge_endpoints(0))
        model.discard(base.edge_endpoints(0))
        if not dg.has_edge(0, base.num_nodes - 1):
            dg.insert_edge(0, base.num_nodes - 1)
            model.add((0, base.num_nodes - 1))
        current = current_graph(dg)
        rebuilt = Graph(base.num_nodes, sorted(model), node_ids=list(base.node_ids))
        assert sorted(current.edge_endpoints(e) for e in current.edges()) == sorted(
            rebuilt.edge_endpoints(e) for e in rebuilt.edges()
        )
        assert list(current.node_ids) == list(base.node_ids)


class TestColorRows:
    """One color list per node, aligned with its live row, two slots per edge."""

    @staticmethod
    def _aligned(dg):
        for v in dg.nodes():
            assert len(dg.color_row(v)) == dg.degree(v)
            for w, c in zip(dg.neighbors(v), dg.color_row(v)):
                assert dg.color_row(w)[dg.neighbors(w).index(v)] == c

    def test_slots_start_uncolored_and_fill_in_pair_order(self):
        dg = DeltaGraph(generators.random_regular_graph(12, 4, seed=5))
        assert all(c == UNCOLORED for v in dg.nodes() for c in dg.color_row(v))
        pairs = _pairs(dg)
        dg.fill_colors((key, index) for index, key in enumerate(pairs))
        self._aligned(dg)
        assert list(dg.colored_edges()) == [
            (u, v, index) for index, (u, v) in enumerate(pairs)
        ]
        colored = DeltaGraph(
            generators.random_regular_graph(12, 4, seed=5),
            [list(dg.color_row(v)) for v in dg.nodes()],
        )
        assert list(colored.colored_edges()) == list(dg.colored_edges())
        with pytest.raises(ValueError, match="do not align"):
            DeltaGraph(generators.cycle_graph(6), [[0, 1]] * 5)

    def test_fill_rejects_a_partial_coloring(self):
        dg = DeltaGraph(generators.cycle_graph(6))
        with pytest.raises(ValueError, match="cover the edge set"):
            dg.fill_colors([((0, 1), 0)])

    def test_mutations_keep_both_slots_aligned(self):
        dg = DeltaGraph(generators.cycle_graph(8))
        dg.fill_colors(((u, v), u % 2) for u, v in _pairs(dg))
        dg.insert_edge(5, 1)
        assert dg.color_row(1) == [0, 1, UNCOLORED] and dg.color_row(5) == [UNCOLORED, 0, 1]
        dg.set_color(5, 1, 7)
        assert dg.color_row(1) == [0, 1, 7] and dg.color_row(5) == [7, 0, 1]
        dg.insert_edge(0, 4)
        self._aligned(dg)
        dg.set_color(4, 0, 3)
        self._aligned(dg)
        assert (0, 4, 3) in dg.colored_edges()
        dg.delete_edge(1, 5)
        assert dg.color_row(1) == [0, 1] and dg.color_row(5) == [0, 1]
        self._aligned(dg)
        assert [c for _u, _v, c in dg.colored_edges()] == [0, 3, 0, 1, 0, 1, 0, 1, 0]


class TestRebase:
    def test_rebase_folds_overlay_and_preserves_epoch(self):
        dg = DeltaGraph(generators.cycle_graph(8))
        dg.insert_edge(0, 4)
        dg.delete_edge(1, 2)
        pairs_before = _pairs(dg)
        epoch_before = dg.epoch
        assert dg.rebase() == 2  # entries folded
        assert dg.overlay_size == 0
        assert dg.base_edges == dg.num_edges == 8
        assert dg.epoch == epoch_before  # a rebase is not a delta
        assert _pairs(dg) == pairs_before
        # further mutations work on the fresh base
        dg.insert_edge(1, 2)
        assert dg.has_edge(1, 2)

    def test_rebase_keeps_reads_and_resets_base_edges(self):
        # Every read on the DeltaGraph is rebase-transparent; only the
        # overlay accounting moves.
        dg = DeltaGraph(generators.random_regular_graph(20, 4, seed=3))
        if dg.has_edge(0, 11):
            dg.delete_edge(0, 11)
        else:
            dg.insert_edge(0, 11)
        assert dg.base_edges == 40 != dg.num_edges
        reads_before = (
            [list(dg.neighbors(v)) for v in dg.nodes()],
            [dg.degree(v) for v in dg.nodes()],
            sorted(dg.edge_pairs()),
            dg.num_edges,
            dg.max_degree(),
        )
        assert dg.rebase() == 1
        assert dg.base_edges == dg.num_edges
        reads_after = (
            [list(dg.neighbors(v)) for v in dg.nodes()],
            [dg.degree(v) for v in dg.nodes()],
            sorted(dg.edge_pairs()),
            dg.num_edges,
            dg.max_degree(),
        )
        assert reads_after == reads_before

    def test_repeated_rebase_under_churn_matches_model(self):
        base = generators.random_regular_graph(30, 4, seed=5)
        dg = DeltaGraph(base)
        model = {base.edge_endpoints(e) for e in base.edges()}
        rng = random.Random(23)
        n = base.num_nodes
        for step in range(150):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in model:
                dg.delete_edge(u, v)
                model.discard(key)
            else:
                dg.insert_edge(u, v)
                model.add(key)
            if step % 10 == 9:
                dg.rebase()
                assert dg.overlay_size == 0
                assert dg.base_edges == dg.num_edges == len(model)
            assert list(dg.edge_pairs()) == sorted(model)


def _churned(seed):
    """A DeltaGraph after a seeded mix of inserts and deletes, and its
    model edge set.

    Nodes 5, 17 and 40 stay isolated throughout; the edge ``{0, n-1}``
    is toggled last, so the rows of both end nodes change.
    """
    n = 64
    isolated = {5, 17, 40}
    rng = random.Random(seed)
    live = [v for v in range(n) if v not in isolated]
    pairs = sorted({tuple(sorted(rng.sample(live, 2))) for _ in range(220)})
    dg = DeltaGraph(Graph(n, pairs, node_ids=[3 * v + 1 for v in range(n)]))
    model = set(pairs)
    for _ in range(120):
        u, v = sorted(rng.sample(live, 2))
        if (u, v) in model:
            dg.delete_edge(u, v)
            model.discard((u, v))
        else:
            dg.insert_edge(v, u)
            model.add((u, v))
    if (0, n - 1) in model:
        dg.delete_edge(0, n - 1)
        model.discard((0, n - 1))
    else:
        dg.insert_edge(n - 1, 0)
        model.add((0, n - 1))
    return dg, model, isolated


class TestCurrentGraphTwins:
    """The current edge set builds the graph rebuilt from the model, on
    both engines."""

    def test_current_graph_equals_rebuilt_graph(self):
        arrays = {}
        for path in ("numpy", "python"):
            with engine.scan_path(path):
                dg, model, _ = _churned(seed=8)
                assert dg.overlay_size > 0
                current = current_graph(dg)
                rebuilt = Graph(dg.num_nodes, sorted(model), node_ids=dg.node_ids)
            arrays[path] = csr_arrays(current)
            assert arrays[path] == csr_arrays(rebuilt)
            assert_python_ints(arrays[path])
            assert current._edges == sorted(model)
            assert current.node_ids == rebuilt.node_ids
        assert arrays["numpy"] == arrays["python"]

    @pytest.mark.parametrize("path", ["numpy", "python"])
    def test_second_rebase_folds_nothing(self, path):
        with engine.scan_path(path):
            dg, model, isolated = _churned(seed=10)
            assert dg.rebase() > 0
            assert dg.overlay_size == 0
            rows = [list(dg.neighbors(v)) for v in dg.nodes()]
            assert dg.rebase() == 0
            assert dg.overlay_size == 0
            current = current_graph(dg)
        assert [dg.neighbors(v) for v in dg.nodes()] == rows
        n = dg.num_nodes
        for graph in (dg, current):
            for u in sorted({0, n - 1} | isolated):
                for v in range(n):
                    expected = u != v and (min(u, v), max(u, v)) in model
                    assert graph.has_edge(u, v) == expected
                    assert graph.has_edge(v, u) == expected
        assert all(not dg.neighbors(v) for v in isolated)


class TestRandomizedEquivalence:
    def test_matches_reference_model(self):
        """200 random mutations agree with a plain set-of-edges model."""
        base = generators.random_regular_graph(30, 4, seed=5)
        dg = DeltaGraph(base)
        model = {base.edge_endpoints(e) for e in base.edges()}
        rng = random.Random(11)
        n = base.num_nodes
        for _ in range(200):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in model:
                dg.delete_edge(u, v)
                model.discard(key)
            else:
                dg.insert_edge(u, v)
                model.add(key)
            assert dg.num_edges == len(model)
        assert _pairs(dg) == sorted(model)
        for v in range(n):
            expect = sorted(
                w for w in range(n) if ((v, w) if v < w else (w, v)) in model
            )
            assert list(dg.neighbors(v)) == expect
            assert dg.degree(v) == len(expect)
        current = current_graph(dg)
        assert sorted(current.edge_endpoints(e) for e in current.edges()) == sorted(model)
