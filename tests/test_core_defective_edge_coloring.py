"""Unit tests for the generalized defective 2-edge coloring (Section 5)."""

from __future__ import annotations

import pytest

from repro.core import parameters
from repro.core.defective_edge_coloring import (
    BLUE,
    RED,
    defective_split_level,
    eta_from_lambda,
    generalized_defective_two_edge_coloring,
    half_split_lambdas,
    list_driven_lambdas,
    measure_defects,
)
from repro.core.engine import _np
from repro.graphs import generators


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

    def test_list_driven(self):
        lists = {0: [1, 2, 3, 10], 1: [10, 11], 2: []}
        lambdas = list_driven_lambdas(lists, left_colors={1, 2, 3, 4}, edges=[0, 1, 2])
        assert lambdas[0] == pytest.approx(0.75)
        assert lambdas[1] == 0.0
        assert lambdas[2] == 0.5  # empty list falls back to 1/2


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
            generalized_defective_two_edge_coloring(
                graph, bipartition, lambdas, epsilon=0.5, scan_path=scan_path
            )

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_missing_lambda_rejected(self, scan_path):
        graph, bipartition, lambdas = self.instance()
        del lambdas[5]
        with pytest.raises(ValueError, match="edge 5 has no lambda"):
            generalized_defective_two_edge_coloring(
                graph, bipartition, lambdas, epsilon=0.5, scan_path=scan_path
            )

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_bounds_accepted(self, scan_path):
        graph, bipartition, lambdas = self.instance()
        lambdas[3] = 0.0
        lambdas[5] = 1.0
        result = generalized_defective_two_edge_coloring(
            graph, bipartition, lambdas, epsilon=0.5, scan_path=scan_path
        )
        assert set(result.colors) == set(graph.edges())

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_level_rejects_a_bad_lambda_in_any_part(self, scan_path):
        graph, bipartition, lambdas = self.instance()
        lambdas[30] = float("nan")
        parts = [list(range(16)), list(range(16, 32))]
        with pytest.raises(ValueError, match="edge 30 has lambda nan"):
            defective_split_level(
                graph, bipartition, parts, lambdas, epsilon=0.5, betas=[0.0, 0.0],
                scan_path=scan_path,
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
            defective_split_level(
                graph, bipartition, [list(range(16)), second], None, epsilon=0.5,
                betas=[0.0, 0.0], scan_path=scan_path,
            )

    @pytest.mark.parametrize("scan_path", ENGINES)
    def test_class_degrees_are_the_defects(self, scan_path):
        graph, bipartition = generators.regular_bipartite_graph(40, 12, seed=2)
        parts = [[e for e in graph.edges() if e % 3 == r] for r in range(3)]
        for part, split in zip(
            parts,
            defective_split_level(
                graph, bipartition, parts, None, epsilon=0.5, betas=[0.0, 1.0, 2.0],
                scan_path=scan_path,
            ),
        ):
            colors = {**dict.fromkeys(split.red, RED), **dict.fromkeys(split.blue, BLUE)}
            defects = measure_defects(graph, colors, part, scan_path="python")
            assert split.red_degrees == [defects[e] for e in split.red]
            assert split.blue_degrees == [defects[e] for e in split.blue]
            assert split.max_defect == max(defects.values())
