"""The generalized token dropping game (Section 4).

The game is played on a directed graph.  Each node starts with at most
``k`` tokens; over every edge at most one token may ever be moved, and a
token may move from ``u`` to ``v`` along the arc ``(u, v)`` only while
``u`` has a token and ``v`` has fewer than ``k``.  An arc over which a
token moved becomes *passive*.  At the end, every still-active arc
``(u, v)`` must satisfy ``τ(u) ≤ τ(v) + σ(e)`` where ``σ(e)`` is the slack
tolerated on the arc (Equation (1)); the original game of Brandt et al.
[14] is the special case ``k = 1``, ``σ ≡ 0``.

:func:`run_token_dropping` implements the distributed algorithm of
Section 4.1 verbatim (steps 1–6), including the ``α_v`` priorities and the
per-phase budget ``δ``.  Theorem 4.3's guarantees — O(k/δ) phases, at most
``k`` tokens everywhere, and the slack bound on active arcs — are exposed
as methods on the result object so that tests and benchmarks can verify
them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core import parameters
from repro.distributed.rounds import RoundTracker
from repro.graphs.core import DirectedGraph

#: A phase of the algorithm exchanges proposals, acceptances and tokens:
#: three communication rounds in the LOCAL/CONGEST models.
ROUNDS_PER_PHASE = 3


@dataclass
class TokenDroppingGame:
    """An instance of the generalized token dropping game.

    Attributes:
        graph: the directed game graph.
        k: maximum number of tokens a node may hold.
        initial_tokens: tokens per node (each at most ``k``).
        alpha: per-node slack-control parameter α_v ≥ 1 (Section 4.1).
        delta: per-phase budget δ ≥ 1; the algorithm runs ⌊k/δ⌋ − 1 phases.
    """

    graph: DirectedGraph
    k: int
    initial_tokens: Sequence[int]
    alpha: Sequence[int]
    delta: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if len(self.initial_tokens) != self.graph.num_nodes:
            raise ValueError("initial_tokens must have one entry per node")
        if len(self.alpha) != self.graph.num_nodes:
            raise ValueError("alpha must have one entry per node")
        for v, tokens in enumerate(self.initial_tokens):
            if tokens < 0 or tokens > self.k:
                raise ValueError(f"node {v} starts with {tokens} tokens, outside [0, k]")
        for v, a in enumerate(self.alpha):
            if a < 1:
                raise ValueError(f"alpha[{v}] must be at least 1")


@dataclass
class TokenDroppingResult:
    """Outcome of a token dropping execution.

    Attributes:
        tokens: final number of tokens per node (active + passive).
        moved_arcs: arcs over which a token was moved; exactly the passive arcs.
        arc_moves: for every moved arc, the phase in which the token moved.
        phases: number of phases executed.
        rounds: communication rounds charged (``ROUNDS_PER_PHASE`` per phase).
        k: the game's token bound.
        delta: the per-phase budget used.
    """

    tokens: List[int]
    moved_arcs: Set[int]
    arc_moves: Dict[int, int]
    phases: int
    rounds: int
    k: int
    delta: int
    game: TokenDroppingGame = field(repr=False, default=None)  # type: ignore[assignment]

    def active_arcs(self) -> List[int]:
        """Arcs that never carried a token."""
        return [a for a in self.game.graph.arcs() if a not in self.moved_arcs]

    def max_tokens(self) -> int:
        """The largest final token count."""
        return max(self.tokens) if self.tokens else 0

    def theorem_43_bound(self, arc_index: int) -> float:
        """The Theorem 4.3 slack bound for a (still active) arc."""
        arc = self.game.graph.arc(arc_index)
        deg_u = self.game.graph.degree(arc.tail)
        deg_v = self.game.graph.degree(arc.head)
        alpha_u = self.game.alpha[arc.tail]
        alpha_v = self.game.alpha[arc.head]
        return parameters.token_dropping_slack_bound(
            alpha_u=alpha_u,
            alpha_v=alpha_v,
            deg_u=deg_u,
            deg_v=deg_v,
            delta=self.delta,
        )

    def slack_violations(self) -> List[Tuple[int, float, float]]:
        """Active arcs whose final token difference exceeds the Theorem 4.3 bound.

        Returns tuples ``(arc_index, tau_tail - tau_head, bound)``; the list
        is empty when the theorem's guarantee holds.
        """
        violations = []
        for a in self.active_arcs():
            arc = self.game.graph.arc(a)
            difference = self.tokens[arc.tail] - self.tokens[arc.head]
            bound = self.theorem_43_bound(a)
            if difference > bound:
                violations.append((a, float(difference), bound))
        return violations


def _token_dropping_core(
    n: int,
    tails: Sequence[int],
    in_map: Dict[int, List[int]],
    degrees: Union[Dict[int, int], Sequence[int]],
    k: int,
    initial_tokens: Sequence[int],
    alphas: Sequence[int],
    delta: int,
) -> Tuple[List[int], List[int], Set[int], Dict[int, int], int]:
    """The six numbered steps of Section 4.1 on flat arc arrays.

    Shared by :func:`run_token_dropping` and the orientation algorithm's
    fast path (which skips the :class:`DirectedGraph` /
    :class:`TokenDroppingGame` object construction per phase).  ``in_map``
    maps head nodes to their in-arc indices; ``degrees`` maps tail nodes
    to their total degree in the game graph (a dict, or a list indexed
    by node).  Returns ``(x, y,
    moved_arcs, arc_moves, num_phases)``.

    Only nodes that hold tokens, receive proposals (arc heads) or send
    tokens (arc tails) can ever change state — the per-phase scans are
    restricted to that *involved* set, which leaves the outcome unchanged
    and skips the bulk of the node set in the sparse instances the
    orientation algorithm builds.
    """
    x = list(initial_tokens)  # active tokens
    y = [0] * n  # passive tokens
    arc_active = [True] * len(tails)
    moved_arcs: Set[int] = set()
    arc_moves: Dict[int, int] = {}
    num_phases = max(0, k // delta - 1)
    if num_phases == 0:
        return x, y, moved_arcs, arc_moves, 0

    head_nodes = sorted(in_map)
    involved = set(head_nodes)
    involved.update(tails)
    for v, tokens in enumerate(initial_tokens):
        if tokens:
            involved.add(v)
    involved_nodes = sorted(involved)

    for phase in range(1, num_phases + 1):
        # Step 1: the active nodes of this phase.
        active_node = bytearray(n)
        for v in involved_nodes:
            if x[v] >= alphas[v] + delta:
                active_node[v] = 1
        # Step 2: active nodes freeze δ of their tokens.
        x_prime = list(x)
        for v in involved_nodes:
            if active_node[v]:
                x_prime[v] = x[v] - delta
                y[v] = y[v] + delta
        # Step 3 + 4: receivers send proposals to active in-neighbors with
        # priority to small deg_G(w)/α_w, bounded by their remaining capacity.
        proposals_to: Dict[int, List[Tuple[int, int]]] = {}
        free = k - phase * delta
        for v in head_nodes:
            capacity = free - x_prime[v]
            if x_prime[v] > free - alphas[v]:
                continue
            if capacity <= 0:
                continue
            candidate_arcs: Dict[int, int] = {}
            for a in in_map[v]:
                if not arc_active[a]:
                    continue
                tail = tails[a]
                if active_node[tail] and tail not in candidate_arcs:
                    candidate_arcs[tail] = a
            if not candidate_arcs:
                continue
            ordered = sorted(
                candidate_arcs.items(),
                key=lambda item: (degrees[item[0]] / alphas[item[0]], item[0]),
            )
            budget = min(len(ordered), capacity)
            for tail, arc_index in ordered[:budget]:
                proposals_to.setdefault(tail, []).append((v, arc_index))
        # Step 5: senders accept up to x'_v proposals and send tokens.  The
        # per-sender lists are already sorted by receiver: heads are visited
        # in ascending order above.
        received: Dict[int, int] = {}
        for u in sorted(proposals_to):
            incoming = proposals_to[u]
            q_u = min(len(incoming), x_prime[u])
            if q_u <= 0:
                continue
            for receiver, arc_index in incoming[:q_u]:
                arc_active[arc_index] = False
                moved_arcs.add(arc_index)
                arc_moves[arc_index] = phase
                received[receiver] = received.get(receiver, 0) + 1
            x_prime[u] -= q_u  # tokens sent
        # Step 6: update the active token counts.
        x = x_prime
        for v, gained in received.items():
            x[v] += gained

    return x, y, moved_arcs, arc_moves, num_phases


def run_token_dropping(
    game: TokenDroppingGame,
    tracker: Optional[RoundTracker] = None,
) -> TokenDroppingResult:
    """Run the distributed token dropping algorithm of Section 4.1.

    The execution follows the six numbered steps of the paper for
    ``⌊k/δ⌋ − 1`` phases.  Ties (which proposals a node accepts, the order
    of equal-priority proposal targets) are broken deterministically by
    node / arc index.
    """
    graph = game.graph
    tails, _heads = graph.arc_arrays()
    degrees = {t: graph.degree(t) for t in set(tails)}
    x, y, moved_arcs, arc_moves, num_phases = _token_dropping_core(
        n=graph.num_nodes,
        tails=tails,
        in_map=graph.in_arc_map(),
        degrees=degrees,
        k=game.k,
        initial_tokens=game.initial_tokens,
        alphas=game.alpha,
        delta=game.delta,
    )

    if tracker is not None:
        tracker.charge(ROUNDS_PER_PHASE * num_phases, "token-dropping")

    tokens = [x[v] + y[v] for v in graph.nodes()]
    return TokenDroppingResult(
        tokens=tokens,
        moved_arcs=moved_arcs,
        arc_moves=arc_moves,
        phases=num_phases,
        rounds=ROUNDS_PER_PHASE * num_phases,
        k=game.k,
        delta=game.delta,
        game=game,
    )


def make_game_from_orientation(
    num_nodes: int,
    arcs: Sequence[Tuple[int, int]],
    initial_tokens: Sequence[int],
    k: int,
    alpha: Sequence[int],
    delta: int,
) -> TokenDroppingGame:
    """Convenience constructor used by the orientation algorithm of Section 5."""
    graph = DirectedGraph(num_nodes, arcs)
    clipped = [min(k, max(0, t)) for t in initial_tokens]
    return TokenDroppingGame(graph=graph, k=k, initial_tokens=clipped, alpha=list(alpha), delta=delta)


def uniform_alpha(num_nodes: int, value: int = 1) -> List[int]:
    """A constant α vector (the original game of [14] uses α ≡ 1)."""
    return [max(1, value)] * num_nodes


def layered_dag(num_layers: int, width: int, connect: int = 2) -> DirectedGraph:
    """A layered DAG oriented from higher to lower layers.

    This reproduces the setting of the original token dropping game of
    [14] (tokens "drop" towards lower layers); used by the E4 benchmark
    and by tests.  Node ``layer * width + i`` is the ``i``-th node of the
    layer; each node has arcs to ``connect`` nodes of the next lower
    layer (wrapping around).
    """
    if num_layers < 1 or width < 1:
        raise ValueError("need at least one layer and positive width")
    arcs: List[Tuple[int, int]] = []
    for layer in range(num_layers - 1, 0, -1):
        for i in range(width):
            source = layer * width + i
            for offset in range(connect):
                target = (layer - 1) * width + (i + offset) % width
                arcs.append((source, target))
    return DirectedGraph(num_layers * width, arcs)
