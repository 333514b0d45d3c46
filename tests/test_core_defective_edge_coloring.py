"""Unit tests for the generalized defective 2-edge coloring (Section 5)."""

from __future__ import annotations

import random

import pytest

from repro.core import engine, parameters
from repro.core.defective_edge_coloring import (
    BLUE,
    RED,
    defective_split_level,
    eta_from_lambda,
    generalized_defective_two_edge_coloring,
    half_split_lambdas,
    measure_defects,
    split_recursion,
)
from repro.core.engine import _np
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.bipartite import Bipartition
from repro.graphs.core import degrees_within


class TestEtaFormula:
    def test_balanced_lambda_has_symmetric_eta(self):
        # λ = 1/2 makes Equation (3) collapse to (deg(v) − deg(u)) / 2.
        eta = eta_from_lambda(0.5, deg_u=6, deg_v=10, deg_e=14, epsilon=0.3, beta=5.0)
        assert eta == pytest.approx(1 - 1 - 0.5 * 6 + 0.5 * 10)

    def test_extreme_lambdas(self):
        all_red = eta_from_lambda(1.0, deg_u=4, deg_v=4, deg_e=6, epsilon=0.0, beta=0.0)
        all_blue = eta_from_lambda(0.0, deg_u=4, deg_v=4, deg_e=6, epsilon=0.0, beta=0.0)
        # λ = 1 pushes the threshold up (easier to be red), λ = 0 down.
        assert all_red > all_blue

    def test_beta_shifts_threshold(self):
        with_beta = eta_from_lambda(0.75, 5, 5, 8, 0.1, beta=10.0)
        without_beta = eta_from_lambda(0.75, 5, 5, 8, 0.1, beta=0.0)
        assert with_beta == pytest.approx(without_beta + 0.5 * 10.0)


class TestLambdaHelpers:
    def test_half_split(self):
        lambdas = half_split_lambdas([3, 7, 9])
        assert lambdas == {3: 0.5, 7: 0.5, 9: 0.5}


class TestDefectiveColoring:
    def test_partition_into_red_and_blue(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        lambdas = half_split_lambdas(graph.edges())
        result = generalized_defective_two_edge_coloring(
            graph, bipartition, lambdas, epsilon=0.25
        )
        assert result.red_edges | result.blue_edges == set(graph.edges())
        assert result.red_edges.isdisjoint(result.blue_edges)
        assert all(c in (RED, BLUE) for c in result.colors.values())

    def test_defect_bound_with_analytic_beta(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        lambdas = half_split_lambdas(graph.edges())
        epsilon = 0.5
        result = generalized_defective_two_edge_coloring(
            graph, bipartition, lambdas, epsilon=epsilon
        )
        beta = parameters.beta_theoretical(epsilon, max(2, graph.max_edge_degree))
        assert result.violations(beta=2 * beta) == []

    def test_half_split_roughly_halves_degrees(self):
        # On an 8-regular bipartite graph (edge degree 14), each side of the
        # split should have defect well below the original edge degree.
        graph, bipartition = generators.regular_bipartite_graph(48, 8, seed=21)
        lambdas = half_split_lambdas(graph.edges())
        result = generalized_defective_two_edge_coloring(
            graph, bipartition, lambdas, epsilon=0.25
        )
        bar_delta = graph.max_edge_degree
        assert result.max_defect() < bar_delta
        # The measured split should be meaningfully better than "no split".
        assert result.max_defect() <= 0.85 * bar_delta

    @pytest.mark.parametrize("epsilon", [0.5, 1.0])
    @pytest.mark.parametrize("delta", [8, 12, 16, 24, 32])
    def test_half_split_within_stable_orientation_bound(self, delta, epsilon):
        # Section 3: on a Δ-regular 2-colored bipartite graph a stable
        # orientation splits each edge's 2Δ−2 neighbors evenly, defect
        # Δ−1.  The Theorem 5.6 split stays within a (1+ε) factor of it.
        graph, bipartition = generators.regular_bipartite_graph(48, delta, seed=delta)
        result = generalized_defective_two_edge_coloring(
            graph, bipartition, half_split_lambdas(graph.edges()), epsilon=epsilon
        )
        assert result.max_defect() <= (1 + epsilon) * (delta - 1)

    def test_skewed_lambdas_skew_defects(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        lambdas = {e: 0.9 for e in graph.edges()}
        result = generalized_defective_two_edge_coloring(
            graph, bipartition, lambdas, epsilon=0.25
        )
        # Blue edges tolerate only (1−λ) = 0.1 of their degree: they should
        # be rare or have small defects compared to red.
        blue_defects = [result.defects[e] for e in result.blue_edges]
        red_defects = [result.defects[e] for e in result.red_edges]
        if blue_defects and red_defects:
            assert max(blue_defects) <= max(red_defects) + 1

    def test_edge_subset_instance(self, medium_bipartite):
        graph, bipartition = medium_bipartite
        subset = sorted(graph.edges())[::2]
        lambdas = half_split_lambdas(subset)
        result = generalized_defective_two_edge_coloring(
            graph, bipartition, lambdas, epsilon=0.5, edge_set=subset
        )
        assert set(result.colors.keys()) == set(subset)

    def test_measure_defects_counts_same_colored_neighbors(self):
        graph = generators.star_graph(3)
        colors = {0: RED, 1: RED, 2: BLUE}
        defects = measure_defects(graph, colors, graph.edges())
        assert defects[0] == 1
        assert defects[1] == 1
        assert defects[2] == 0


class TestLambdaValidation:
    """λ must lie in [0, 1] and exist for every instance edge.

    A NaN λ makes every η NaN: the coloring comes out arbitrary and
    ``violations()`` cannot flag it, because the Definition 5.1 bound is
    NaN too.  Both engines reject such inputs up front.
    """

    ENGINES = [
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(_np is None, reason="numpy not installed"),
        ),
    ]

    @staticmethod
    def instance():
        graph, bipartition = generators.regular_bipartite_graph(16, 4, seed=1)
        return graph, bipartition, half_split_lambdas(graph.edges())

    @pytest.mark.parametrize("scan_path", ENGINES)
    @pytest.mark.parametrize("bad", [1.7, -0.25, float("nan")])
    def test_out_of_range_lambda_rejected(self, scan_path, bad):
        graph, bipartition, lambdas = self.instance()
        lambdas[5] = bad
        with pytest.raises(ValueError, match=r"edge 5 has lambda .*outside \[0, 1\]"):
            with engine.scan_path(scan_path):
                generalized_defective_two_edge_coloring(graph, bipartition, lambdas, epsilon=0.5)

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_missing_lambda_rejected(self, scan_path):
        graph, bipartition, lambdas = self.instance()
        del lambdas[5]
        with pytest.raises(ValueError, match="edge 5 has no lambda"):
            with engine.scan_path(scan_path):
                generalized_defective_two_edge_coloring(graph, bipartition, lambdas, epsilon=0.5)

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_bounds_accepted(self, scan_path):
        graph, bipartition, lambdas = self.instance()
        lambdas[3] = 0.0
        lambdas[5] = 1.0
        with engine.scan_path(scan_path):
            result = generalized_defective_two_edge_coloring(
                graph, bipartition, lambdas, epsilon=0.5
            )
        assert set(result.colors) == set(graph.edges())

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_level_rejects_a_bad_lambda_in_any_part(self, scan_path):
        graph, bipartition, lambdas = self.instance()
        lambdas[30] = float("nan")
        parts = [list(range(16)), list(range(16, 32))]
        with pytest.raises(ValueError, match="edge 30 has lambda nan"):
            with engine.scan_path(scan_path):
                defective_split_level(
                    graph, [bipartition] * 2, parts, lambdas, epsilon=0.5, betas=[0.0, 0.0]
                )


class TestSplitLevelParts:
    """The parts of a level must be strictly ascending; the class degrees
    a split returns are the measured defects."""

    ENGINES = TestLambdaValidation.ENGINES

    @pytest.mark.parametrize("scan_path", ENGINES)
    @pytest.mark.parametrize(
        "second, at",
        [(list(range(31, 15, -1)), 30), ([16, 17, 17, 18], 17)],
        ids=["descending", "repeated"],
    )
    def test_unsorted_part_rejected(self, scan_path, second, at):
        graph, bipartition = generators.regular_bipartite_graph(16, 4, seed=1)
        with pytest.raises(ValueError, match=f"part 1 is not strictly ascending at edge {at}$"):
            with engine.scan_path(scan_path):
                defective_split_level(
                    graph, [bipartition] * 2, [list(range(16)), second], None, epsilon=0.5,
                    betas=[0.0, 0.0],
                )

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_class_degrees_are_the_defects(self, scan_path):
        graph, bipartition = generators.regular_bipartite_graph(40, 12, seed=2)
        parts = [[e for e in graph.edges() if e % 3 == r] for r in range(3)]
        with engine.scan_path(scan_path):
            splits = defective_split_level(
                graph, [bipartition] * 3, parts, None, epsilon=0.5, betas=[0.0, 1.0, 2.0]
            )
        for part, split in zip(parts, splits):
            colors = {**dict.fromkeys(split.red, RED), **dict.fromkeys(split.blue, BLUE)}
            with engine.scan_path("python"):
                defects = measure_defects(graph, colors, part)
            assert split.red_degrees == [defects[e] for e in split.red]
            assert split.blue_degrees == [defects[e] for e in split.blue]
            assert split.max_defect == max(defects.values())


class TestSplitRecursion:
    """The shared λ = 1/2 recursion of Lemmas D.3 and 6.1: its leaves
    partition the root, carry their own edge degrees, and every level is
    charged once under the recursion's label."""

    ENGINES = TestLambdaValidation.ENGINES

    @staticmethod
    def run(scan_path, levels, leaf_degree):
        graph, bipartition = generators.regular_bipartite_graph(40, 12, seed=2)
        edges = list(graph.edges())
        tracker = RoundTracker()
        with engine.scan_path(scan_path):
            ((parts, defects),) = split_recursion(
                graph, [(bipartition, edges, degrees_within(graph, edges)[1])],
                levels=levels, leaf_degree=leaf_degree, beta=lambda degree: 0.0,
                epsilon=0.5, trackers=[tracker], label="split", nu=None,
            )
        return graph, edges, tracker, parts, defects

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_leaves_partition_the_root_with_their_degrees(self, scan_path):
        graph, edges, tracker, parts, defects = self.run(scan_path, levels=2, leaf_degree=1)
        assert sorted(e for part_edges, _ in parts for e in part_edges) == edges
        for part_edges, part_degrees in parts:
            assert part_edges
            assert part_degrees == degrees_within(graph, part_edges)[1]
        # One split at level 1, two at level 2, each split's max defect
        # bounding the edge degrees of the classes it produced.
        assert len(defects) == 3
        assert max(max(part_degrees) for _, part_degrees in parts) <= max(defects[1:])
        assert set(tracker.breakdown) == {"split"}
        assert tracker.total > 0

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_no_split_charges_zero_and_stops(self, scan_path):
        graph, edges, tracker, parts, defects = self.run(scan_path, levels=3, leaf_degree=100)
        assert parts == [(edges, degrees_within(graph, edges)[1])]
        assert defects == []
        assert tracker.breakdown == {"split": 0}


class TestMultiRootSplitRecursion:
    """Several roots, each with its own bipartition, in one recursion: one
    :func:`defective_split_level` call per depth across the roots, and
    every root split and charged exactly as it is alone."""

    ENGINES = TestLambdaValidation.ENGINES
    LEVELS = 4
    LEAF_DEGREE = 4

    @staticmethod
    def roots():
        """Three edge-disjoint roots under three random bipartitions: root 0
        splits three depths, root 1 two, and root 2 (a sparse subset,
        max edge degree ≤ 2) never splits."""
        graph = generators.random_regular_graph(96, 16, seed=5)
        rng = random.Random(5)
        bipartitions = [Bipartition([rng.randint(0, 1) for _ in graph.nodes()]) for _ in range(3)]
        edge_u, edge_v = graph.endpoint_arrays()
        edges = [[], [], []]
        for e in graph.edges():
            for r, bipartition in enumerate(bipartitions):
                if bipartition.side(edge_u[e]) != bipartition.side(edge_v[e]):
                    edges[r].append(e)
                    break
        load = [0] * graph.num_nodes
        sparse = []
        for e in edges[2]:
            if load[edge_u[e]] < 2 and load[edge_v[e]] < 2:
                load[edge_u[e]] += 1
                load[edge_v[e]] += 1
                sparse.append(e)
        edges[2] = sparse
        roots = [
            (bipartition, root_edges, degrees_within(graph, root_edges)[1])
            for bipartition, root_edges in zip(bipartitions, edges)
        ]
        return graph, roots

    def split(self, graph, roots, scan_path):
        trackers = [RoundTracker() for _ in roots]
        with engine.scan_path(scan_path):
            leaves = split_recursion(
                graph, roots, levels=self.LEVELS, leaf_degree=self.LEAF_DEGREE,
                beta=lambda degree: 0.0, epsilon=0.5, trackers=trackers, label="split", nu=None,
            )
        return leaves, [tracker.breakdown for tracker in trackers]

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_roots_split_as_alone(self, scan_path, monkeypatch):
        from repro.core import defective_edge_coloring

        graph, roots = self.roots()
        depths = []
        level = defective_edge_coloring.defective_split_level

        def recording(graph, bipartitions, parts, *args, **kwargs):
            depths.append(
                {r for r, root in enumerate(roots) if any(b is root[0] for b in bipartitions)}
            )
            return level(graph, bipartitions, parts, *args, **kwargs)

        monkeypatch.setattr(defective_edge_coloring, "defective_split_level", recording)
        together = self.split(graph, roots, scan_path)
        # One call per depth; root 1 stops one depth before root 0, root
        # 2 never splits, and the last depth has nothing left to split.
        assert depths == [{0, 1}, {0, 1}, {0}, set()]
        monkeypatch.setattr(defective_edge_coloring, "defective_split_level", level)
        alone = [self.split(graph, [root], scan_path) for root in roots]
        for r, (leaves, breakdowns) in enumerate(alone):
            assert together[0][r] == leaves[0]
            assert together[1][r] == breakdowns[0]
        (parts, defects), breakdown = together[0][2], together[1][2]
        assert parts == [roots[2][1:]] and defects == []
        assert breakdown == {"split": 0}
        assert together[1][0]["split"] > together[1][1]["split"] > 0

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_part_edges_must_cross_their_own_bipartition(self, scan_path):
        graph, roots = self.roots()
        (bip_0, edges_0, _), (bip_1, edges_1, _), _ = roots
        edge_u, edge_v = graph.endpoint_arrays()
        # Root 0's edges cross bipartition 0; the first that does not
        # cross bipartition 1 is the one named.
        bad = next(e for e in edges_0 if bip_1.side(edge_u[e]) == bip_1.side(edge_v[e]))
        message = (
            f"edge {bad} = ({edge_u[bad]}, {edge_v[bad]}) is not bichromatic in this bipartition"
        )
        with pytest.raises(ValueError) as raised, engine.scan_path(scan_path):
            defective_split_level(
                graph, [bip_1, bip_1], [edges_1, edges_0], None, epsilon=0.5, betas=[0.0, 0.0]
            )
        assert str(raised.value) == message
        # With its own bipartition, the same level is fine.
        with engine.scan_path(scan_path):
            splits = defective_split_level(
                graph, [bip_1, bip_0], [edges_1, edges_0], None, epsilon=0.5, betas=[0.0, 0.0]
            )
        assert [sorted(split.red + split.blue) for split in splits] == [edges_1, edges_0]

