"""Unit tests for the generalized token dropping game (Section 4)."""

from __future__ import annotations

import pytest

from repro.core.token_dropping import (
    TokenDroppingGame,
    layered_dag,
    run_token_dropping,
    uniform_alpha,
)
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import DirectedGraph
from repro.verification.invariants import check_token_game_validity


def build_layered_game(num_layers=4, width=5, k=4, delta=1, tokens_on_top=True):
    graph = layered_dag(num_layers, width, connect=2)
    tokens = [0] * graph.num_nodes
    if tokens_on_top:
        for i in range(width):
            tokens[(num_layers - 1) * width + i] = k
    return TokenDroppingGame(
        graph=graph,
        k=k,
        initial_tokens=tokens,
        alpha=uniform_alpha(graph.num_nodes, 1),
        delta=delta,
    )


class TestGameValidation:
    def test_rejects_bad_parameters(self):
        graph = DirectedGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            TokenDroppingGame(graph, k=0, initial_tokens=[0, 0], alpha=[1, 1])
        with pytest.raises(ValueError):
            TokenDroppingGame(graph, k=2, initial_tokens=[3, 0], alpha=[1, 1])
        with pytest.raises(ValueError):
            TokenDroppingGame(graph, k=2, initial_tokens=[0, 0], alpha=[0, 1])
        with pytest.raises(ValueError):
            TokenDroppingGame(graph, k=2, initial_tokens=[0], alpha=[1, 1])
        with pytest.raises(ValueError):
            TokenDroppingGame(graph, k=2, initial_tokens=[0, 0], alpha=[1, 1], delta=0)

    def test_layered_dag_structure(self):
        graph = layered_dag(3, 4, connect=2)
        assert graph.num_nodes == 12
        assert graph.num_arcs == 2 * 4 * 2
        with pytest.raises(ValueError):
            layered_dag(0, 3)


class TestExecution:
    def test_original_game_k1(self):
        # k = 1, δ = 1, α ≡ 1 is the original token dropping game of [14].
        game = build_layered_game(num_layers=3, width=4, k=1, delta=1)
        result = run_token_dropping(game)
        assert result.phases == 0  # floor(k/δ) − 1 = 0 phases: nothing to do.
        assert result.max_tokens() <= 1

    def test_tokens_never_exceed_k(self):
        game = build_layered_game(num_layers=5, width=6, k=6, delta=1)
        result = run_token_dropping(game)
        assert result.max_tokens() <= game.k
        assert check_token_game_validity(game, result) == []

    def test_phase_count_is_k_over_delta(self):
        game = build_layered_game(num_layers=4, width=4, k=8, delta=2)
        result = run_token_dropping(game)
        assert result.phases == 8 // 2 - 1
        assert result.rounds == 3 * result.phases

    def test_theorem_43_slack_bound_holds(self):
        game = build_layered_game(num_layers=5, width=8, k=8, delta=1)
        result = run_token_dropping(game)
        assert result.slack_violations() == []

    def test_passive_arcs_are_the_moved_arcs(self):
        game = build_layered_game(num_layers=4, width=5, k=5, delta=1)
        result = run_token_dropping(game)
        assert set(result.arc_moves.keys()) == result.moved_arcs
        assert all(1 <= phase <= result.phases for phase in result.arc_moves.values())
        assert set(result.active_arcs()).isdisjoint(result.moved_arcs)

    def test_tokens_flow_towards_lower_layers(self):
        # With all tokens at the top layer and ample capacity below, at
        # least one token must move (the top nodes are over α + δ).
        game = build_layered_game(num_layers=3, width=4, k=4, delta=1)
        result = run_token_dropping(game)
        bottom = sum(result.tokens[v] for v in range(4))
        assert bottom > 0 or result.moved_arcs

    def test_cycles_are_supported(self):
        # The generalization of Section 4 explicitly allows directed cycles.
        graph = DirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        game = TokenDroppingGame(
            graph=graph,
            k=4,
            initial_tokens=[4, 0, 4, 0],
            alpha=uniform_alpha(4, 1),
            delta=1,
        )
        result = run_token_dropping(game)
        assert check_token_game_validity(game, result) == []
        assert result.max_tokens() <= 4

    def test_round_tracker_charged(self):
        game = build_layered_game(num_layers=3, width=3, k=6, delta=1)
        tracker = RoundTracker()
        result = run_token_dropping(game, tracker=tracker)
        assert tracker.total == result.rounds


class TestSlackAccounting:
    def test_bound_uses_alpha_and_degrees(self):
        graph = DirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
        game = TokenDroppingGame(
            graph=graph,
            k=2,
            initial_tokens=[2, 0, 0],
            alpha=[2, 3, 1],
            delta=1,
        )
        result = run_token_dropping(game)
        bound = result.theorem_43_bound(0)
        assert bound >= 2 * (game.alpha[0] + game.alpha[1])
