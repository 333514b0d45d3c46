"""Differential test matrix: every fast path against its reference twin.

Each vectorized engine ships with a pure-python (or per-node) reference
twin: the orientation proposal/accept loop, the local-search round loop,
the simulator's broadcast against per-port writes, and the one
color-reduction engine pair of :mod:`repro.coloring.color_reduction`,
whose callers are vertex Linial, the line-graph schedule, Linial's
vectorized receive on the simulator and the defective min-conflict
reduction.  This matrix runs a seeded randomized sweep (varying n, Δ,
bipartite/general topology, both sides of the engine-size threshold and
of the legacy 384-edge mark) and asserts the twins are
**bit-identical**: same colorings, orientations, round counts and
CONGEST metrics, down to dict contents and violation lists.  Each twin
is forced by an engine scope (:func:`repro.core.engine.scan_path`).  CI
runs the matrix twice more with ``REPRO_SCAN_PATH`` forcing each engine
across the whole suite, and the scenario-runtime job diffs result stores
across the ``scan_path`` and ``repair_path`` knobs.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import api
from repro.coloring.greedy import (
    UsedColorMasks,
    greedy_edge_coloring_by_classes,
    proper_edge_schedule,
)
from repro.coloring.linial import LinialNodeAlgorithm
from repro.core import engine, parameters
from repro.core.balanced_orientation import compute_balanced_orientation
from repro.core.engine import NUMPY_SCAN_THRESHOLD, _np
from repro.core.defective_edge_coloring import defective_split_level
from repro.core.list_edge_coloring import list_edge_coloring, partially_color_bipartite
from repro.core.slack import ListEdgeColoringInstance, uniform_instance
from repro.core.token_dropping import _token_dropping_core, segmented_token_dropping
from repro.distributed.algorithms import NodeAlgorithm
from repro.distributed.faults import FaultPlan
from repro.distributed.model import Model
from repro.distributed.network import SynchronousNetwork
from repro.distributed.rounds import RoundTracker
from repro.graphs import generators
from repro.graphs.core import Graph, degrees_within
from repro.graphs.identifiers import id_space_size
from repro.verification.checkers import is_proper_edge_coloring
from runtime_helpers import scenario_results
from simulator_reference import RaggedSender

requires_numpy = pytest.mark.skipif(_np is None, reason="numpy not installed")

#: (kind, n, Δ) cells of the sweep; edge counts 32..640 cross both the
#: current engine threshold (NUMPY_SCAN_THRESHOLD = 128 edges) and the
#: legacy 384-edge mark the scan-only path used.
GRAPH_CELLS = [
    ("bipartite", 16, 4),  # 32 edges
    ("bipartite", 32, 8),  # 128 edges
    ("bipartite", 48, 12),  # 288 edges
    ("bipartite", 64, 16),  # 512 edges
    ("general", 24, 4),  # 48 edges
    ("general", 32, 10),  # 160 edges
    ("general", 48, 16),  # 384 edges
    ("general", 64, 20),  # 640 edges
]

assert any(n * d // 2 < NUMPY_SCAN_THRESHOLD for _k, n, d in GRAPH_CELLS)
assert any(NUMPY_SCAN_THRESHOLD <= n * d // 2 < 384 for _k, n, d in GRAPH_CELLS)
assert any(n * d // 2 >= 384 for _k, n, d in GRAPH_CELLS)


def _make_graph(kind: str, n: int, delta: int, seed: int):
    if kind == "bipartite":
        graph, _bip = generators.regular_bipartite_graph(n, delta, seed=seed)
        return graph
    return generators.random_regular_graph(n, delta, seed=seed)


def _on(path, run, *args, **kwargs):
    """``run(*args, **kwargs)`` with every engine choice scoped to ``path``."""
    with engine.scan_path(path):
        return run(*args, **kwargs)


def _outcome_fingerprint(outcome):
    return (
        outcome.colors,
        outcome.num_colors,
        outcome.bound,
        outcome.rounds,
        outcome.is_proper,
        outcome.details,
    )


@requires_numpy
class TestOrientationEngineMatrix:
    """compute_balanced_orientation: numpy engine vs python reference."""

    @pytest.mark.parametrize("n,delta", [(16, 4), (32, 8), (48, 12), (64, 16), (96, 16)])
    @pytest.mark.parametrize("nu", [None, 0.03, 0.125])
    def test_engines_bit_identical(self, n, delta, nu):
        graph, bipartition = generators.regular_bipartite_graph(n, delta, seed=n + delta)
        eta = {e: 0.5 * (e % 5) - 1.0 for e in graph.edges()}
        results = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            r = _on(
                path, compute_balanced_orientation,
                graph, bipartition, eta, epsilon=0.25, nu=nu, tracker=tracker
            )
            results[path] = (
                r.orientation,
                list(r.orientation.items()),  # insertion order too
                r.in_degrees,
                r.phases,
                r.rounds,
                r.nu,
                r.bar_delta,
                tracker.breakdown,
            )
        assert results["python"] == results["numpy"]

    @pytest.mark.parametrize("stride", [2, 3])
    def test_engines_bit_identical_on_subsets(self, stride):
        graph, bipartition = generators.regular_bipartite_graph(48, 12, seed=9)
        subset = sorted(set(graph.edges()) - set(range(0, graph.num_edges, stride)))
        eta = {e: float(e % 3) - 1.0 for e in subset}
        py = _on(
            "python", compute_balanced_orientation,
            graph, bipartition, eta, epsilon=0.5, edge_set=subset
        )
        np_ = _on(
            "numpy", compute_balanced_orientation,
            graph, bipartition, eta, epsilon=0.5, edge_set=subset
        )
        assert py.orientation == np_.orientation
        assert list(py.orientation.items()) == list(np_.orientation.items())
        assert py.in_degrees == np_.in_degrees
        assert (py.phases, py.rounds) == (np_.phases, np_.rounds)

    def test_env_override_steers_auto_mode(self, monkeypatch):
        monkeypatch.setattr(engine, "_ENV_SCAN_PATH", "python")
        assert engine.use_numpy(10**6) is False
        # An "auto" scope counts as unset.
        assert _on("auto", engine.use_numpy, 10**6) is False
        monkeypatch.setattr(engine, "_ENV_SCAN_PATH", "numpy")
        assert engine.use_numpy(1) is True
        # An explicit scope always wins over the environment.
        assert _on("python", engine.use_numpy, 10**6) is False

    def test_unknown_env_value_is_rejected_not_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_PATH", "nmpy")
        # Drop the once-per-process cache so the engine rereads the env.
        monkeypatch.setattr(engine, "_ENV_SCAN_PATH", engine._UNREAD)
        with pytest.raises(ValueError, match="REPRO_SCAN_PATH"):
            engine.use_numpy(10**4)


@requires_numpy
class TestSegmentedGameMatrix:
    """segmented_token_dropping: several games in one numpy game vs the
    python twin (``_token_dropping_core``) run per game.

    Each instance mixes games with their own ``k`` and ``δ ∈ {1, 2, 3}``,
    a game that runs zero phases, token holders without arcs and one
    parallel arc pair (the twin dedups candidates per tail each phase).
    """

    @staticmethod
    def games(seed):
        rng = random.Random(seed)
        specs = [(4, 1), (7, 2), (11, 3), (2, 2), (9, 1), (13, 2)]  # (k, δ); (2, 2): 0 phases
        games = []
        for k, delta in specs:
            n = rng.randint(8, 24)
            wired = n - 3  # the last three nodes get tokens but no arcs
            arcs = []
            for _ in range(rng.randint(n, 3 * n)):
                tail, head = rng.sample(range(wired), 2)
                arcs.append((tail, head))
            tokens = [rng.randint(0, k) for _ in range(n)]
            tokens[-1] = k
            alphas = [rng.randint(1, 2) for _ in range(n)]
            games.append((n, arcs, k, delta, tokens, alphas))
        # One parallel arc pair out of a token-rich tail.
        n, arcs, k, delta, tokens, alphas = games[4]
        arcs.insert(1, arcs[0])
        tokens[arcs[0][0]] = k
        return games

    @staticmethod
    def twin(game):
        n, arcs, k, delta, tokens, alphas = game
        in_map = {}
        degrees = [0] * n
        for index, (tail, head) in enumerate(arcs):
            in_map.setdefault(head, []).append(index)
            degrees[tail] += 1
            degrees[head] += 1
        _x, _y, moved, _moves, phases = _token_dropping_core(
            n=n,
            tails=[tail for tail, _ in arcs],
            in_map=in_map,
            degrees=degrees,
            k=k,
            initial_tokens=tokens,
            alphas=alphas,
            delta=delta,
        )
        return moved, phases

    @pytest.mark.parametrize("seed", range(8))
    def test_games_match_python_twin_per_game(self, seed):
        np = _np
        games = self.games(seed)
        offsets = [0]
        for game in games:
            offsets.append(offsets[-1] + game[0])
        tails, heads, node_game, tokens, alphas = [], [], [], [], []
        for index, (game, offset) in enumerate(zip(games, offsets)):
            n, arcs, _k, _delta, game_tokens, game_alphas = game
            tails += [offset + tail for tail, _ in arcs]
            heads += [offset + head for _, head in arcs]
            node_game += [index] * n
            tokens += game_tokens
            alphas += game_alphas
        moved, phases = segmented_token_dropping(
            np.array(tails, dtype=np.int64),
            np.array(heads, dtype=np.int64),
            np.array(node_game, dtype=np.int64),
            [game[2] for game in games],
            [game[3] for game in games],
            np.array(tokens, dtype=np.int64),
            np.array(alphas, dtype=np.int64),
        )
        start = 0
        for game, played in zip(games, phases):
            twin_moved, twin_phases = self.twin(game)
            end = start + len(game[1])
            assert set(np.flatnonzero(moved[start:end]).tolist()) == twin_moved
            assert played == twin_phases
            start = end
        assert phases[3] == 0
        assert moved.any()  # not vacuous

    def test_parallel_arcs_move_at_most_one_token_per_phase(self):
        # Two parallel arcs from a full tail into an empty receiver: the
        # twin proposes over the first arc in phase 1 and the second in
        # phase 2, once the first is passive.
        np = _np
        game = (2, [(0, 1), (0, 1)], 6, 1, [6, 0], [1, 1])
        twin_moved, twin_phases = self.twin(game)
        moved, phases = segmented_token_dropping(
            np.array([0, 0]), np.array([1, 1]), np.array([0, 0]), [6], [1],
            np.array([6, 0]), np.array([1, 1]),
        )
        assert twin_moved == {0, 1}
        assert set(np.flatnonzero(moved).tolist()) == twin_moved
        assert phases == [twin_phases]


@requires_numpy
class TestScheduleEngineMatrix:
    """proper_edge_schedule: vectorized Linial steps vs reference."""

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS)
    def test_schedules_bit_identical(self, kind, n, delta):
        graph = _make_graph(kind, n, delta, seed=3 * n + delta)
        for subset in (list(graph.edges()), list(graph.edges())[::2]):
            a = _on("python", proper_edge_schedule, graph, subset)
            b = _on("numpy", proper_edge_schedule, graph, subset)
            assert a == b

    def test_round_charges_identical(self):
        graph = _make_graph("general", 48, 16, seed=1)
        charges = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            _on(path, proper_edge_schedule, graph, list(graph.edges()), tracker=tracker)
            charges[path] = tracker.breakdown
        assert charges["python"] == charges["numpy"]

    def test_single_edge_schedule_is_its_identifier_reduced_at_zero(self):
        from repro.coloring.color_reduction import reduction_schedule

        graph = Graph(4, [(0, 1), (1, 2), (2, 3)], node_ids=[900, 17, 5000, 3])
        for e in graph.edges():
            a, b = sorted(graph.node_id(v) for v in graph.edge_endpoints(e))
            expected = a * (b + 1) + b
            schedule = reduction_schedule(expected + 1, 1)
            for q, _d in schedule:
                expected %= q  # a row with no neighbors takes x = 0: f_c(0) = c mod q
            for path in ("python", "numpy"):
                tracker = RoundTracker()
                assert _on(path, proper_edge_schedule, graph, [e], tracker) == {e: expected}
                assert tracker.breakdown == ({"linial": len(schedule)} if schedule else {})

    def test_huge_identifier_star_schedules_bit_identical(self):
        # A center id >= 2**31 trips the vectorized setup's int64 guard,
        # so the numpy request runs the python setup and engine.
        leaves = 40
        graph = Graph(
            leaves + 1,
            [(0, leaf) for leaf in range(1, leaves + 1)],
            node_ids=[2**40, *range(1, leaves + 1)],
        )
        edges = list(graph.edges())
        a = _on("python", proper_edge_schedule, graph, edges)
        b = _on("numpy", proper_edge_schedule, graph, edges)
        assert a == b
        assert is_proper_edge_coloring(graph, a)


def _leaf_run(graph, schedule, path, masks=(), **kwargs):
    """One greedy leaf call on ``path``: outcome, charges and final node masks.

    The outcome is the colors in dict order, or the ``ValueError`` text.
    ``masks`` pre-populates the shared used-color state.
    """
    used = UsedColorMasks(graph.num_nodes)
    for v, mask in enumerate(masks):
        used._masks[v] = mask
    tracker = RoundTracker()
    try:
        colors = _on(
            path, greedy_edge_coloring_by_classes,
            graph, schedule, tracker=tracker, used_colors=used, **kwargs
        )
        outcome = list(colors.items())
    except ValueError as exc:
        outcome = str(exc)
    return outcome, tracker.total, tracker.breakdown, [used.mask(v) for v in graph.nodes()]


@requires_numpy
class TestGreedyLeafEngineMatrix:
    """greedy_edge_coloring_by_classes: numpy class passes vs the per-edge twin."""

    @staticmethod
    def _assert_engines_agree(graph, schedule, **kwargs):
        py = _leaf_run(graph, schedule, "python", **kwargs)
        assert _leaf_run(graph, schedule, "numpy", **kwargs) == py
        return py

    @staticmethod
    def _half_colored(graph):
        """A schedule for the odd half of the edges, and masks of the even half's colors."""
        edges = list(graph.edges())
        first = proper_edge_schedule(graph, edges[::2])
        masks = _leaf_run(graph, first, "python")[3]
        return proper_edge_schedule(graph, edges[1::2]), masks

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS[::2])
    def test_palette_and_masks_bit_identical(self, kind, n, delta):
        graph = _make_graph(kind, n, delta, seed=7 * n + delta)
        schedule = proper_edge_schedule(graph, list(graph.edges()))
        outcome, total, _breakdown, _masks = self._assert_engines_agree(graph, schedule)
        assert is_proper_edge_coloring(graph, dict(outcome))
        # One charge per non-empty schedule class, on both engines.
        assert total == len(set(schedule.values()))
        # (degree+1)-lists drawn from a wider color space.
        rng = random.Random(n)
        edge_u, edge_v = graph.endpoint_arrays()
        masks = {}
        for e in graph.edges():
            size = graph.degree(edge_u[e]) + graph.degree(edge_v[e]) - 1
            masks[e] = sum(1 << c for c in rng.sample(range(2 * delta + 10), size))
        outcome = self._assert_engines_agree(graph, schedule, list_masks=masks)[0]
        assert all(masks[e] >> c & 1 for e, c in outcome)

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS[1::2])
    def test_shared_used_colors_bit_identical(self, kind, n, delta):
        graph = _make_graph(kind, n, delta, seed=5 * n + delta)
        schedule, masks = self._half_colored(graph)
        outcome, total, _breakdown, final = self._assert_engines_agree(
            graph, schedule, masks=masks
        )
        assert isinstance(outcome, list) and len(outcome) == len(schedule)
        assert total == len(set(schedule.values()))
        assert all(final[v] & masks[v] == masks[v] for v in graph.nodes())

    def test_instance_masks_of_sorted_and_shuffled_lists_bit_identical(self):
        graph = _make_graph("general", 48, 16, seed=11)
        schedule, masks = self._half_colored(graph)
        palette = list(range(2 * 16 - 1))
        rng = random.Random(11)
        shuffled = {e: rng.sample(palette, len(palette)) for e in graph.edges()}
        runs = []
        for lists in ({e: palette for e in graph.edges()}, shuffled):
            instance = ListEdgeColoringInstance(graph, lists, len(palette))
            list_masks = instance.list_masks(graph.edges())
            runs.append(
                self._assert_engines_agree(graph, schedule, masks=masks, list_masks=list_masks)
            )
        # Both instances give the palette's mask: the lowest free color.
        assert runs[0] == runs[1] == _leaf_run(
            graph, schedule, "python", masks=masks, palette_size=len(palette)
        )

    def test_exhausted_list_raises_identically_with_earlier_classes_applied(self):
        graph = _make_graph("general", 400, 4, seed=3)
        schedule = proper_edge_schedule(graph, list(graph.edges()))
        classes = sorted(set(schedule.values()))
        earlier = {e: c for e, c in schedule.items() if c in classes[:4]}
        applied = _leaf_run(graph, earlier, "python")[3]
        # A late member of the fifth class gets the list {0}, which an
        # earlier class has taken at one of its endpoints.
        edge_u, edge_v = graph.endpoint_arrays()
        fifth = sorted(e for e, c in schedule.items() if c == classes[4])
        blocked = [e for e in fifth if (applied[edge_u[e]] | applied[edge_v[e]]) & 1]
        victim = blocked[len(blocked) // 2]
        assert fifth.index(victim) > 0 and fifth[-1] != victim
        full = (1 << 7) - 1
        masks = {e: full for e in graph.edges()}
        masks[victim] = 1
        py = self._assert_engines_agree(graph, schedule, list_masks=masks)
        assert py[0] == f"edge {victim} has no available color; its list/palette is too small"
        # The four earlier classes are charged and applied, the failing one is not.
        assert py[1:] == (4, {"greedy-edge-classes": 4}, applied)
        # A failing first class charges nothing and leaves the state alone.
        first = min(e for e, c in schedule.items() if c == classes[0])
        masks[victim], masks[first] = full, 0
        py = self._assert_engines_agree(graph, schedule, list_masks=masks)
        assert py[1:] == (0, {}, [0] * graph.num_nodes)
        assert py[0].startswith(f"edge {first} ")
        # The default palette too small for the graph.
        self._assert_engines_agree(graph, schedule, palette_size=3)

    def test_wide_palettes_fall_back_to_the_twin(self, monkeypatch):
        from repro.coloring import greedy

        graph = _make_graph("general", 64, 20, seed=9)
        schedule, masks = self._half_colored(graph)
        engine_results = []
        real = greedy._greedy_classes_numpy

        def recording(*args):
            engine_results.append(real(*args))
            return engine_results[-1]

        monkeypatch.setattr(greedy, "_greedy_classes_numpy", recording)
        wide = {e: (1 << 70) - 1 for e in graph.edges()}
        high = {e: (1 << 62) | ((1 << 39) - 1) for e in graph.edges()}
        high_used = [mask | 1 << 62 for mask in masks]
        for kwargs in (
            {"palette_size": 70},
            {"list_masks": wide},
            {"list_masks": high},
            {"palette_size": 39, "masks": high_used},
        ):
            self._assert_engines_agree(graph, schedule, **kwargs)
        assert len(engine_results) == 4 and all(r is None for r in engine_results)
        # The same call with 62-bit masks runs the engine.
        self._assert_engines_agree(graph, schedule, masks=masks, palette_size=39)
        assert engine_results[-1] is not None


def _edge_pairs(graph: Graph):
    return map(graph.edge_endpoints, graph.edges())


def _scrambled_id_cycle(n: int, seed: int) -> Graph:
    import random

    ids = random.Random(seed).sample(range(10**6), n)
    return Graph(n, [(v, (v + 1) % n) for v in range(n)], node_ids=ids)


@requires_numpy
class TestVertexLinialEngineMatrix:
    """linial_vertex_coloring under both forced color-reduction engines."""

    @staticmethod
    def _run(graph, path):
        from repro.coloring.linial import linial_vertex_coloring

        tracker = RoundTracker()
        colors, num_colors = _on(path, linial_vertex_coloring, graph, tracker=tracker)
        return colors, num_colors, tracker.breakdown

    def _assert_engines_agree(self, graph):
        py = self._run(graph, "python")
        np_ = self._run(graph, "numpy")
        assert py == np_
        colors = py[0]
        assert all(colors[u] != colors[v] for u, v in _edge_pairs(graph))
        assert all(0 <= c < py[1] for c in colors)

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS)
    def test_graph_cells_bit_identical(self, kind, n, delta):
        self._assert_engines_agree(_make_graph(kind, n, delta, seed=5 * n + delta))

    def test_scrambled_id_cycle_bit_identical(self):
        self._assert_engines_agree(_scrambled_id_cycle(300, seed=4))

    def test_huge_identifier_star_bit_identical(self):
        # A center id beyond int64 cannot enter the numpy sweep, so the
        # numpy request takes the python fallback for the first step.
        leaves = 40
        graph = Graph(
            leaves + 1,
            [(0, leaf) for leaf in range(1, leaves + 1)],
            node_ids=[2**70, *range(1, leaves + 1)],
        )
        self._assert_engines_agree(graph)


@requires_numpy
class TestColorReductionEngineMatrix:
    """The shared engine pair of repro.coloring.color_reduction, called directly."""

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS[::2])
    def test_schedule_twins_bit_identical(self, kind, n, delta):
        from repro.coloring.color_reduction import (
            polynomial_steps,
            polynomial_steps_numpy,
            reduction_schedule,
        )

        graph = _make_graph(kind, n, delta, seed=n * delta)
        xadj, adj = graph.adjacency_csr()
        ids = [3 * v * v + 7 for v in graph.nodes()]
        schedule = reduction_schedule(max(ids) + 1, delta)
        assert schedule
        results = {}
        for steps in (polynomial_steps, polynomial_steps_numpy):
            tracker = RoundTracker()
            results[steps] = (steps(ids, xadj, adj, schedule, tracker), tracker.breakdown)
        assert results[polynomial_steps] == results[polynomial_steps_numpy]

    def test_same_colored_neighbor_rows_match_python_twin(self):
        from repro.coloring.color_reduction import (
            conflict_free_step_numpy,
            min_conflict_step_numpy,
            minimum_conflict_step,
            polynomial_step,
            sweep_rows,
        )

        np = _np
        graph = generators.random_regular_graph(64, 6, seed=8)
        xadj, adj = graph.adjacency_csr()
        colors = [v % 6 + 40 for v in graph.nodes()]
        assert any(colors[u] == colors[v] for u, v in _edge_pairs(graph))
        rows = [[colors[w] for w in adj[xadj[v] : xadj[v + 1]]] for v in graph.nodes()]
        q, d = 13, 1
        layout = sweep_rows(
            np.arange(graph.num_nodes, dtype=np.int64),
            np.asarray(adj, dtype=np.int64),
            np.asarray(xadj, dtype=np.int64),
        )
        free = conflict_free_step_numpy(colors, layout, q, d)
        assert free.tolist() == [polynomial_step(c, row, q, d) for c, row in zip(colors, rows)]
        fewest = min_conflict_step_numpy(colors, layout, q, d)
        assert fewest.tolist() == [
            minimum_conflict_step(c, row, q, d)[0] for c, row in zip(colors, rows)
        ]

    @staticmethod
    def _count_residue_sweeps(monkeypatch):
        from repro.coloring import color_reduction

        calls = []
        real = color_reduction._residue_sweep

        def counted(table, rows, residue, q, degree):
            calls.append(residue.size)
            return real(table, rows, residue, q, degree)

        monkeypatch.setattr(color_reduction, "_residue_sweep", counted)
        return calls

    @pytest.mark.parametrize("same_colored", [0, 40, 400])
    def test_residue_sweep_matches_python_twin(self, monkeypatch, same_colored):
        from repro.coloring.color_reduction import (
            RESIDUE_SWEEP_ROWS,
            conflict_free_step_numpy,
            polynomial_step,
            sweep_rows,
        )

        np = _np
        calls = self._count_residue_sweeps(monkeypatch)
        graph = generators.random_regular_graph(3000, 8, seed=21)
        xadj, adj = graph.adjacency_csr()
        q, d = 37, 2  # q > Δ·d and q³ above the colors
        rng = random.Random(same_colored)
        colors = rng.sample(range(q ** (d + 1)), graph.num_nodes)
        # Some nodes copy a neighbor's color: the sweep never frees them,
        # and the twin ignores that neighbor.
        for v in rng.sample(range(graph.num_nodes), same_colored):
            colors[v] = colors[adj[xadj[v]]]
        layout = sweep_rows(
            np.arange(graph.num_nodes, dtype=np.int64),
            np.asarray(adj, dtype=np.int64),
            np.asarray(xadj, dtype=np.int64),
        )
        rows = [[colors[w] for w in adj[xadj[v] : xadj[v + 1]]] for v in graph.nodes()]
        expected = [polynomial_step(c, row, q, d) for c, row in zip(colors, rows)]
        assert conflict_free_step_numpy(colors, layout, q, d).tolist() == expected
        assert len(calls) == 1 and calls[0] >= RESIDUE_SWEEP_ROWS
        if same_colored:
            assert any(colors[u] == colors[v] for u, v in _edge_pairs(graph))

    def test_exhausted_row_raises_on_both_engines(self, monkeypatch):
        from repro.coloring.color_reduction import (
            RESIDUE_SWEEP_ROWS,
            conflict_free_step_numpy,
            polynomial_step,
            sweep_rows,
        )

        np = _np
        calls = self._count_residue_sweeps(monkeypatch)
        q, d = 3, 1
        # Row 0 (color 0) sees every other color of [0, 9): each x has an
        # agreeing neighbor.  The other rows share their color 4 with one
        # neighbor and see color 0 besides; only the twin frees them.
        sharing = RESIDUE_SWEEP_ROWS + 12
        values = list(range(q * q)) + [4] * sharing
        own = [0, *range(q * q, q * q + sharing)]
        rows = [list(range(1, q * q))]
        rows += [[q * q + (i + 1) % sharing, 0] for i in range(sharing)]
        offsets = np.cumsum([0, *map(len, rows)])
        layout = sweep_rows(
            np.asarray(own, dtype=np.int64),
            np.asarray([j for row in rows for j in row], dtype=np.int64),
            offsets.astype(np.int64),
        )
        with pytest.raises(ValueError) as numpy_error:
            conflict_free_step_numpy(values, layout, q, d)
        with pytest.raises(ValueError) as python_error:
            polynomial_step(values[own[0]], [values[j] for j in rows[0]], q, d)
        assert str(numpy_error.value) == str(python_error.value)
        assert calls == [sharing + 1]
        # Without the stuck row, every row resolves as in the twin.
        layout = sweep_rows(
            np.asarray(own[1:], dtype=np.int64),
            np.asarray([j for row in rows[1:] for j in row], dtype=np.int64),
            (offsets[1:] - offsets[1]).astype(np.int64),
        )
        expected = [polynomial_step(4, [values[j] for j in row], q, d) for row in rows[1:]]
        assert conflict_free_step_numpy(values, layout, q, d).tolist() == expected

    def test_sweep_reports_not_applicable(self):
        from repro.coloring.color_reduction import agreement_sweep, sweep_rows

        np = _np
        rows = sweep_rows(
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(2, dtype=np.int64)
        )
        assert agreement_sweep([2**70], rows, 11, 1) is None
        assert agreement_sweep([5], rows, 2**31, 1) is None
        assert agreement_sweep([5], rows, 11, 1) is not None


@requires_numpy
class TestSlotReceiveSameColorMatrix:
    """LinialNodeAlgorithm.receive_batch when a payload equals the own color."""

    def test_same_colored_payloads_match_polynomial_step(self):
        from types import SimpleNamespace

        from repro.coloring.color_reduction import polynomial_step, reduction_schedule
        from repro.distributed.network import RoundInbox

        graph = generators.random_regular_graph(96, 6, seed=12)
        xadj, adj = graph.adjacency_csr()
        n = graph.num_nodes
        # An improper input: color classes v % 5 leave many adjacent
        # nodes with equal colors, which the step must ignore.
        colors = [(v * 7919) % 5 + 1000 for v in range(n)]
        assert any(colors[u] == colors[v] for u, v in _edge_pairs(graph))
        schedule = reduction_schedule(10**6, graph.max_degree)
        q, d = schedule[0]
        buf = [colors[w] for w in adj]
        states = [{"color": colors[v], "schedule": schedule, "step": 0} for v in range(n)]
        contexts = [SimpleNamespace(degree=xadj[v + 1] - xadj[v]) for v in range(n)]
        _on(
            "numpy",
            LinialNodeAlgorithm().receive_batch,
            contexts, states, list(range(n)), RoundInbox(buf, xadj), 0,
        )
        expected = [
            polynomial_step(colors[v], [colors[w] for w in adj[xadj[v] : xadj[v + 1]]], q, d)
            for v in range(n)
        ]
        assert [s["color"] for s in states] == expected
        assert all(s["step"] == 1 for s in states)


@requires_numpy
class TestDefectiveReductionMatrix:
    """polynomial_defective_reduction: vectorized min-conflict vs reference."""

    @pytest.mark.parametrize("n,delta", [(64, 8), (128, 16), (160, 24)])
    def test_engines_bit_identical(self, n, delta):
        from repro.coloring.defective_vertex import polynomial_defective_reduction
        from repro.coloring.linial import linial_vertex_coloring

        graph = generators.random_regular_graph(n, delta, seed=n + delta)
        colors, count = linial_vertex_coloring(graph)
        for target in (1, max(1, delta // 3), delta):
            py = _on(
                "python", polynomial_defective_reduction, graph, colors, count, target_defect=target
            )
            np_ = _on(
                "numpy", polynomial_defective_reduction, graph, colors, count, target_defect=target
            )
            assert py == np_

    @pytest.mark.parametrize("n,delta", [(64, 8), (128, 16)])
    def test_improper_input_bit_identical(self, n, delta):
        from repro.coloring.defective_vertex import polynomial_defective_reduction

        graph = generators.random_regular_graph(n, delta, seed=n + 2 * delta)
        colors = [v % 7 for v in range(n)]
        assert any(colors[u] == colors[v] for u, v in _edge_pairs(graph))
        for target in (1, max(1, delta // 3)):
            py = _on(
                "python", polynomial_defective_reduction, graph, colors, 7, target_defect=target
            )
            np_ = _on(
                "numpy", polynomial_defective_reduction, graph, colors, 7, target_defect=target
            )
            assert py == np_


@requires_numpy
class TestLocalSearchEngineMatrix:
    """defective_coloring_local_search: vectorized rounds vs reference."""

    @pytest.mark.parametrize("n,delta,num_classes,slack", [
        (32, 4, 2, 1),
        (64, 8, 4, 2),
        (128, 16, 4, 3),
        (128, 32, 4, 5),
        (96, 12, 3, 1),
    ])
    def test_engines_bit_identical(self, n, delta, num_classes, slack):
        from repro.coloring.defective_vertex import (
            defective_coloring_local_search,
            monochromatic_degree,
        )

        graph = generators.random_regular_graph(n, delta, seed=n + delta)
        results = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            classes, rounds = _on(
                path, defective_coloring_local_search, graph, num_classes, slack, tracker=tracker
            )
            results[path] = (
                classes,
                rounds,
                tracker.breakdown,
                _on(path, monochromatic_degree, graph, classes),
            )
        assert results["python"] == results["numpy"]

    def test_seeded_split_bit_identical(self):
        from repro.coloring.defective_vertex import defective_split_coloring
        from repro.coloring.linial import linial_vertex_coloring

        graph = generators.random_regular_graph(128, 16, seed=21)
        colors, count = linial_vertex_coloring(graph)
        results = {}
        for path in ("python", "numpy"):
            tracker = RoundTracker()
            results[path] = (
                _on(
                    path,
                    defective_split_coloring,
                    graph,
                    4,
                    0.125,
                    proper_coloring=colors,
                    proper_num_colors=count,
                    tracker=tracker,
                ),
                tracker.breakdown,
            )
        assert results["python"] == results["numpy"]


@requires_numpy
class TestPipelineScanPathMatrix:
    """Full Theorem D.4 / 6.3 pipelines under both orientation engines."""

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS)
    def test_local_pipeline_bit_identical(self, kind, n, delta):
        graph = _make_graph(kind, n, delta, seed=7 * n + delta)
        py = _on("python", api.color_edges_local, graph)
        np_ = _on("numpy", api.color_edges_local, graph)
        assert _outcome_fingerprint(py) == _outcome_fingerprint(np_)
        assert py.is_proper
        assert is_proper_edge_coloring(graph, py.colors)

    @pytest.mark.parametrize("kind,n,delta", GRAPH_CELLS[1::2])
    def test_congest_pipeline_bit_identical(self, kind, n, delta):
        # The CONGEST pipeline's fingerprint covers its round breakdown —
        # the CONGEST cost accounting — as well as the palette details.
        graph = _make_graph(kind, n, delta, seed=11 * n + delta)
        py = _on("python", api.color_edges_congest, graph, epsilon=0.5)
        np_ = _on("numpy", api.color_edges_congest, graph, epsilon=0.5)
        assert _outcome_fingerprint(py) == _outcome_fingerprint(np_)
        assert py.is_proper

    def test_list_instance_pipeline_bit_identical(self):
        graph = generators.random_regular_graph(48, 10, seed=5)
        lists, space = generators.list_edge_coloring_lists(graph, slack=1.0, seed=7)
        from repro.core.slack import ListEdgeColoringInstance

        def run(path):
            instance = ListEdgeColoringInstance(
                graph, {e: list(lists[e]) for e in graph.edges()}, space
            )
            return _on(path, api.color_edges_local, graph, instance=instance)

        assert _outcome_fingerprint(run("python")) == _outcome_fingerprint(run("numpy"))


@requires_numpy
class TestSplitLevelMatrix:
    """defective_split_level: one lock-step numpy call vs the python twin per part.

    The level mixes everything the segmented engine masks per part: parts
    that share nodes, a dense part (Δ̄ 44, 20+ phases) next to a part of
    stars (Δ̄ 1, at most 2 phases), a part below the engine threshold,
    per-edge λ ≠ 1/2, a β per part (``beta_override=None``) and, with a
    phase cap, edges left for the final U→V step.
    """

    @staticmethod
    def level():
        graph, bipartition = generators.regular_bipartite_graph(64, 24, seed=4)
        edge_u, edge_v = graph.endpoint_arrays()
        sides = bipartition.sides
        dense = [e for e in graph.edges() if e % 4]
        stars: list = []
        small: list = []
        load = [0] * graph.num_nodes
        for e in graph.edges():
            if not e % 4:
                a, b = edge_u[e], edge_v[e]
                u, v = (a, b) if sides[a] == 0 else (b, a)
                # U centers with at most two leaves: every edge degree ≤ 1.
                if load[u] < 2 and load[v] < 1:
                    load[u] += 1
                    load[v] += 1
                    stars.append(e)
                elif len(small) < 40:
                    small.append(e)
        return graph, bipartition, [dense, stars, small]

    @pytest.mark.parametrize("max_phases", [None, 6])
    def test_level_matches_python_twin_per_part(self, max_phases):
        graph, bipartition, parts = self.level()
        assert len(parts[2]) < NUMPY_SCAN_THRESHOLD <= len(parts[0])
        degrees = [max(degrees_within(graph, part)[1]) for part in parts]
        assert degrees[0] >= 10 * degrees[1]
        params = parameters.PracticalParameters(beta_override=None)
        betas = [params.beta(degree) for degree in degrees]
        assert len(set(betas)) == len(parts)
        lambdas = {e: ((e * 7) % 11) / 10.0 for e in graph.edges()}
        common = dict(epsilon=0.5, nu=params.resolved_nu(), max_phases=max_phases)
        level = _on(
            "numpy", defective_split_level,
            graph, [bipartition] * len(parts), parts, lambdas, betas=betas,
            **common,
        )
        alone = [
            _on(
                "python", defective_split_level,
                graph, [bipartition], [part], lambdas, betas=[beta], **common
            )[0]
            for part, beta in zip(parts, betas)
        ]
        assert level == alone
        for split, part in zip(level, parts):
            assert sorted(split.red + split.blue) == part
            assert split.red == sorted(split.red) and split.blue == sorted(split.blue)
            # The class degrees read off the in-degrees are the counted ones.
            assert split.red_degrees == degrees_within(graph, split.red)[1]
            assert split.blue_degrees == degrees_within(graph, split.blue)[1]
        # 2 proposal rounds per phase: uncapped, the star part stops after
        # ≤ 2 phases while the dense part keeps going for 20+.
        proposals = [split.breakdown["orientation-proposals"] for split in level]
        if max_phases is None:
            assert proposals[1] <= 4
            assert proposals[0] >= 40
        else:
            assert proposals[0] == 2 * max_phases
            assert level[0].breakdown["orientation-final"] == 1

    def test_partial_coloring_calls_engine_once_per_split_level(self, monkeypatch):
        from repro.core import defective_edge_coloring

        calls = []
        real = defective_edge_coloring.orient_segments

        def counting(seg, *args, **kwargs):
            calls.append(seg.num_parts)
            return real(seg, *args, **kwargs)

        monkeypatch.setattr(defective_edge_coloring, "orient_segments", counting)
        graph, bipartition = generators.regular_bipartite_graph(64, 24, seed=3)
        tracker = RoundTracker()
        _on(
            "numpy",
            partially_color_bipartite,
            graph,
            uniform_instance(graph),
            [(bipartition, list(graph.edges()))],
            {},
            tracker=tracker,
        )
        # Every call is a Lemma D.3 level: no Lemma D.2 level split here.
        assert tracker.breakdown["list-solver-split-level"] == 0
        split_levels = math.ceil(math.log2(parameters.DEFAULT_PARAMETERS.list_reduction_parts))
        assert len(calls) <= split_levels
        assert calls == [1, 2, 4, 8]

        # A Theorem D.4 solve splits all six class-pair pieces of an outer
        # iteration together: one engine call per split depth.
        calls.clear()
        graph = generators.random_regular_graph(96, 16, seed=2)
        assert graph.max_degree > parameters.DEFAULT_PARAMETERS.final_degree
        tracker = RoundTracker()
        result = _on("numpy", list_edge_coloring, graph, tracker=tracker)
        assert tracker.breakdown["list-solver-split-level"] == 0
        assert result.outer_iterations >= 1
        assert len(calls) <= split_levels * result.outer_iterations
        assert calls[0] == 6  # the first depth: one part per piece

    def test_numpy_engine_plays_no_python_game(self, monkeypatch):
        from repro.core import balanced_orientation

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the numpy engine played a python token dropping game")

        played = []
        segmented = balanced_orientation.segmented_token_dropping

        def counting(*args, **kwargs):
            played.append(1)
            return segmented(*args, **kwargs)

        monkeypatch.setattr(balanced_orientation, "_token_dropping_core", forbidden)
        monkeypatch.setattr(balanced_orientation, "segmented_token_dropping", counting)
        graph = generators.random_regular_graph(96, 16, seed=2)
        result = _on("numpy", list_edge_coloring, graph)
        assert is_proper_edge_coloring(graph, result.colors)
        assert played  # repair games did run


class _BroadcastAlgorithm(NodeAlgorithm):
    """Native broadcaster (mirrors LinialNodeAlgorithm's send shape).

    Odd nodes broadcast a list that grows each round, so a tightened
    CONGEST budget records violations in a known order.
    """

    ROUNDS = 3

    @staticmethod
    def _payload(ctx, round_index):
        if ctx.node % 2:
            return [ctx.node_id] * (round_index + 1)
        return ctx.node_id + round_index

    def initialize(self, ctx):
        return {"seen": [], "round": 0}

    def send(self, ctx, state, round_index):
        return {port: self._payload(ctx, round_index) for port in range(ctx.degree)}

    def send_batch(self, ctx, state, round_index, outbox):
        outbox.broadcast(self._payload(ctx, round_index))

    def receive(self, ctx, state, inbox, round_index):
        state["seen"].append(inbox.items())
        state["round"] = round_index + 1

    def finished(self, ctx, state):
        return state["round"] >= self.ROUNDS

    def output(self, ctx, state):
        return state["seen"]


class _PerPortAlgorithm(_BroadcastAlgorithm):
    """The same messages written port by port through the ``send`` bridge."""

    send_batch = NodeAlgorithm.send_batch


def _metrics_fingerprint(metrics):
    return (
        metrics.rounds,
        metrics.messages,
        metrics.max_message_bits,
        metrics.congest_violations,
        metrics.congest_budget_bits,
    )


def _linial_network(n: int, seed: int, model=Model.CONGEST) -> SynchronousNetwork:
    graph = generators.graph_with_scrambled_ids(
        generators.random_regular_graph(n, 4, seed=seed), seed=seed, id_space_factor=8
    )
    return SynchronousNetwork(
        graph, model=model, global_knowledge={"id_space": id_space_size(graph)}
    )


def _count_sweeps(monkeypatch):
    """Count the vectorized Linial receive sweeps run from now on."""
    from repro.coloring import linial

    calls = []
    original = linial.conflict_free_step_numpy

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linial, "conflict_free_step_numpy", counted)
    return calls


@requires_numpy
class TestSimulatorTwinMatrix:
    """The simulator's fast paths against their per-node twins."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("model", [Model.LOCAL, Model.CONGEST])
    def test_linial_receive_engines_bit_identical(self, monkeypatch, n, model):
        # The vectorized receive_batch sweep against the per-node
        # receive() twin it falls back to; "auto" must match both.
        network = _linial_network(n, seed=n, model=model)
        calls = _count_sweeps(monkeypatch)
        results = {}
        for path in ("numpy", "python", "auto"):
            calls.clear()
            out, metrics = _on(path, network.run, LinialNodeAlgorithm())
            results[path] = (out, _metrics_fingerprint(metrics), len(calls))
        assert results["numpy"][:2] == results["python"][:2] == results["auto"][:2]
        # Non-vacuous: one sweep per round under numpy, none under python.
        assert results["numpy"][2] == results["numpy"][1][0] > 0
        assert results["python"][2] == 0

    def test_broadcast_matches_per_port_writes(self):
        # One (payload, degree) audit group per broadcast against degree
        # per-port writes and (payload, 1) groups: same outputs, metrics
        # and auditor state.
        graph = generators.random_regular_graph(48, 6, seed=2)

        def run(algorithm):
            network = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)
            out, metrics = network.run(algorithm)
            auditor = network._auditor
            audit = (
                auditor.messages_recorded,
                auditor.total_bits,
                auditor.max_bits,
                auditor.violations,
            )
            return out, _metrics_fingerprint(metrics), audit

        broadcast = run(_BroadcastAlgorithm())
        assert broadcast == run(_PerPortAlgorithm())
        assert broadcast[1][3] > 0  # the violation lists are not vacuous

    def test_api_linial_network_engines_bit_identical(self):
        # The public E8 entry point on a reused network.
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(96, 4, seed=7), seed=7, id_space_factor=8
        )
        network = api.build_linial_network(graph)
        outcomes = [
            _on(path, api.run_linial_network, graph, network=network)
            for path in ("numpy", "python", "auto")
        ]
        for outcome in outcomes[1:]:
            assert outcome == outcomes[0]


class TestScanPathReachesEngines:
    """A ``python`` engine scope keeps every engine off numpy.

    Covered: the Linial reduction steps, the defective local search, the
    edge-schedule setup, the greedy leaf and the Definition 5.1 defect
    recount, under the public pipelines, the baselines, the classic
    pipelines and the scenario runners.
    """

    @pytest.fixture
    def numpy_engines_raise(self, monkeypatch):
        import sys

        from repro.coloring import defective_vertex, greedy, linial

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a numpy engine ran under a python scope")

        monkeypatch.setattr(linial, "polynomial_steps_numpy", forbidden)
        monkeypatch.setattr(linial, "conflict_free_step_numpy", forbidden)
        monkeypatch.setattr(defective_vertex, "_local_search_rounds_numpy", forbidden)
        monkeypatch.setattr(greedy, "_schedule_setup_numpy", forbidden)
        monkeypatch.setattr(greedy, "_greedy_classes_numpy", forbidden)
        # Inline numpy branches (the defect recount's among them) have no
        # engine function to patch: record every choice use_numpy makes,
        # by the name of the function that asked.
        resolved = []
        real = engine.use_numpy

        def recording(size):
            choice = real(size)
            resolved.append((sys._getframe(1).f_code.co_name, choice))
            return choice

        monkeypatch.setattr(engine, "use_numpy", recording)
        # The scope must win even over an environment forced to numpy.
        monkeypatch.setenv("REPRO_SCAN_PATH", "numpy")
        monkeypatch.setattr(engine, "_ENV_SCAN_PATH", engine._UNREAD)
        return resolved

    @pytest.fixture
    def graph(self):
        # Scrambled identifiers give Linial a non-empty reduction schedule.
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(96, 4, seed=7), seed=7, id_space_factor=8
        )
        assert 2 * graph.num_edges >= NUMPY_SCAN_THRESHOLD
        return graph

    def test_local_pipeline(self, numpy_engines_raise, graph):
        outcome = _on("python", api.color_edges_local, graph)
        assert outcome.is_proper
        assert outcome.details["round_breakdown"]["linial"] > 0

    def test_congest_pipeline(self, numpy_engines_raise, graph):
        outcome = _on("python", api.color_edges_congest, graph)
        assert outcome.is_proper
        assert outcome.details["round_breakdown"]["linial"] > 0

    def test_linial_network(self, numpy_engines_raise, graph):
        outcome = _on("python", api.run_linial_network, graph)
        assert outcome.rounds > 0
        assert outcome.congest_violations == 0

    def test_baselines(self, numpy_engines_raise, graph):
        from repro.baselines.greedy_by_classes import greedy_baseline_edge_coloring
        from repro.baselines.panconesi_rizzi import linear_in_delta_edge_coloring

        for baseline in (greedy_baseline_edge_coloring, linear_in_delta_edge_coloring):
            result = _on("python", baseline, graph)
            assert is_proper_edge_coloring(graph, result.colors)

    def test_barenboim_elkin_baseline(self, numpy_engines_raise, graph):
        from repro.baselines.barenboim_elkin import barenboim_elkin_edge_coloring

        result = _on("python", barenboim_elkin_edge_coloring, graph)
        assert is_proper_edge_coloring(graph, result.colors)

    @pytest.mark.parametrize(
        "name", ["maximal_matching", "maximal_independent_set", "delta_plus_one_vertex_coloring"]
    )
    def test_classic_pipelines(self, numpy_engines_raise, graph, name):
        from repro import classic

        tracker = RoundTracker()
        _on("python", getattr(classic, name), graph, tracker=tracker)
        assert tracker.breakdown["linial"] > 0
        assert numpy_engines_raise and not any(choice for _, choice in numpy_engines_raise)

    @pytest.mark.parametrize("name", ["e7_logstar", "e8_linial", "fault_sweep", "suite_compare"])
    def test_scenario_runners(self, numpy_engines_raise, name):
        # The executor scopes every cell to its ctx.knobs: a row that
        # records scan_path "python" ran no numpy engine.
        from repro.runtime.registry import get
        from repro.runtime.spec import Knobs

        results = scenario_results(get(name), quick=True, knobs=Knobs(scan_path="python"))
        assert results

    def test_e5_defect_recount_uses_the_coloring_engine(self, numpy_engines_raise):
        # E5's Definition 5.1 check recounts defects on the engine the
        # coloring ran with: the cell's scope.
        from repro.runtime.registry import get
        from repro.runtime.spec import Knobs

        scenario_results(get("e5_defective"), quick=True, knobs=Knobs(scan_path="python"))
        assert ("measure_defects", False) in numpy_engines_raise
        assert not any(choice for _, choice in numpy_engines_raise)


#: Fault plans covering every fault channel, alone and combined.
FAULT_PLANS = [
    FaultPlan(seed=7, drop_rate=0.05),
    FaultPlan(seed=7, drop_rate=0.05, delay_rate=0.05, duplicate_rate=0.03, max_delay=3),
    FaultPlan(seed=11, crash_rate=0.08, crash_round_range=4),
    FaultPlan(seed=3, drop_rate=0.1, crashes=((0, 1), (5, 2))),
]


class TestFaultPlaneMatrix:
    """Fault injection against the twins: same plan, same faults.

    The determinism contract of :mod:`repro.distributed.faults` — every
    decision a pure hash of (seed, channel, round, slot) — means a fixed
    plan must yield bit-identical outputs, metrics *and* fault summaries
    under both Linial receive engines, and on every rerun.
    """

    @requires_numpy
    @pytest.mark.parametrize("plan", FAULT_PLANS, ids=lambda p: f"seed{p.seed}")
    def test_faulted_linial_engines_bit_identical(self, plan):
        network = _linial_network(96, seed=96)
        results = [
            _on(path, network.run, LinialNodeAlgorithm(), fault_plan=plan)
            for path in ("numpy", "python")
        ]
        (numpy_out, numpy_metrics), (python_out, python_metrics) = results
        assert numpy_metrics.fault_summary is not None
        assert numpy_out == python_out
        assert _metrics_fingerprint(numpy_metrics) == _metrics_fingerprint(python_metrics)
        assert numpy_metrics.fault_summary == python_metrics.fault_summary

    @pytest.mark.parametrize("plan", FAULT_PLANS, ids=lambda p: f"seed{p.seed}")
    def test_faulted_ragged_sender_is_deterministic(self, plan):
        # Ragged sends, None payloads, staggered termination and late
        # delivery under faults — the hardest case for receiver tracking,
        # since drops must not trigger spurious late deliveries.  A fresh
        # network and a reused one must agree on everything.
        graph = _make_graph("general", 32, 10, seed=42)
        reused = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)

        def run(network):
            out, metrics = network.run(RaggedSender(), fault_plan=plan)
            return out, _metrics_fingerprint(metrics), metrics.fault_summary

        first = run(reused)
        assert first[2] is not None
        assert run(reused) == first
        assert run(SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)) == first

    @pytest.mark.parametrize("plan", FAULT_PLANS, ids=lambda p: f"seed{p.seed}")
    def test_faulted_broadcast_matches_per_port_writes(self, plan):
        # Fault decisions hash (round, slot), never the write path: a
        # broadcast and the same messages written port by port must
        # see the same drops, delays, duplicates and crashes.
        graph = generators.random_regular_graph(48, 6, seed=2)

        def run(algorithm):
            network = SynchronousNetwork(graph, model=Model.CONGEST, congest_factor=2)
            out, metrics = network.run(algorithm, fault_plan=plan)
            return out, _metrics_fingerprint(metrics), metrics.fault_summary

        broadcast = run(_BroadcastAlgorithm())
        assert broadcast[2] is not None
        assert broadcast == run(_PerPortAlgorithm())

    def test_fault_summary_repeatable_and_seed_sensitive(self):
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(64, 4, seed=64), seed=64, id_space_factor=8
        )
        plan = FaultPlan(seed=5, drop_rate=0.1, delay_rate=0.05)

        def run(p):
            return api.run_linial_network(graph, fault_plan=p)

        first, second = run(plan), run(plan)
        assert first == second  # whole outcome, fault_summary included
        other = run(FaultPlan(seed=6, drop_rate=0.1, delay_rate=0.05))
        assert other.fault_summary != first.fault_summary

    def test_audit_totals_match_fault_free_run(self):
        # Message accounting counts *sent* payloads: a drops-only plan
        # must leave messages/audit identical to the fault-free run
        # (drops never shorten Linial's fixed schedule).
        graph = generators.graph_with_scrambled_ids(
            generators.random_regular_graph(64, 4, seed=64), seed=64, id_space_factor=8
        )
        clean = api.run_linial_network(graph)
        faulted = api.run_linial_network(graph, fault_plan=FaultPlan(seed=9, drop_rate=0.2))
        assert faulted.rounds == clean.rounds
        assert faulted.messages == clean.messages
        assert faulted.max_message_bits == clean.max_message_bits
        assert faulted.fault_summary["dropped"] > 0
