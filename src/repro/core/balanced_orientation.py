"""Generalized balanced edge orientations (Section 5).

Given a 2-colored bipartite (sub)graph and per-edge thresholds ``η_e``,
the algorithm orients every edge such that, up to a slack of
``(ε/2)·deg(e) + β``, the in-degree difference across every edge respects
``η_e`` (Definition 5.2).  The orientation is computed in phases: in each
phase the still-unoriented high-degree edges propose an orientation based
on the current in-degrees, every node accepts at most ``k_φ`` proposals,
and one instance of the generalized token dropping game (Section 4)
repairs the edges whose constraint became violated — moving a token over
an edge corresponds to flipping its orientation.

The implementation follows the seven numbered steps of Section 5
verbatim; all parameters (ν, k_φ, δ_φ, α_v(φ)) come from
:mod:`repro.core.parameters`.  It operates on explicit edge sets, so the
recursive splitting algorithms run it on subgraphs without re-indexing
edges.

**Levels.**  The recursions of Section 6 and of Lemmas D.2 / D.3 cut a
graph into edge-disjoint parts and split every part of a recursion level
with its own orientation.  In the distributed model those orientations
run in parallel, so a level costs the maximum of its parts' rounds; the
numpy engine simulates exactly that parallel level, one call per level.

Two interchangeable phase-loop engines are provided, selected by the
``scan_path`` knob (or the ``REPRO_SCAN_PATH`` environment variable in
``"auto"`` mode, where the level's total edge count decides):

* the **pure-python reference twin** (:func:`orient_python`) — a direct
  transcription of the seven steps with incremental violation tracking,
  run once per part; and
* the **segmented numpy engine** (:func:`orient_segments`) — every part
  of a level in one loop over the concatenated edge arrays, with a part
  id per edge.  Parts share nodes but not edges, so node state
  (in-degrees, unoriented degrees, d⁻) is keyed by the (part, node) pair,
  compacted to dense keys sorted by part, then node
  (:func:`segment_parts`).  Each part keeps its own Δ̄, phase counter,
  phase budget, threshold, k_φ, δ_φ and α memo, and the parts advance in
  lock-step: one iteration runs one phase of every part still going,
  and a part that finishes or exhausts its budget is masked out (a
  participation cut no edge reaches) while the others continue.  Per-part
  scalars are computed in python, so every float equals the
  reference's.  Proposal, the per-node ``k_φ`` accept cap (a stable
  argsort by key plus a group-rank cut, which keeps the reference's
  "smallest edge first" order) and accept run as array ops over all
  parts.  Only the token dropping repair games run in python,
  per part, on part-local node ids — a monotone relabelling, so every
  tie-break is unchanged.

A single instance (:func:`compute_balanced_orientation`) is the one-part
level.  Both engines are required to produce bit-identical orientations,
in-degrees, phase counts and round charges for every part; the
differential test matrix (``tests/test_differential_paths.py``)
cross-checks them end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core import parameters
from repro.core.engine import NUMPY_SCAN_THRESHOLD, _np, resolve_use_numpy  # noqa: F401 - re-exported
from repro.core.token_dropping import ROUNDS_PER_PHASE, _token_dropping_core
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition
from repro.graphs.core import Graph

# Engine selection (numpy handle, size threshold, REPRO_SCAN_PATH env
# override) is shared with the other vectorized/reference twins — see
# :mod:`repro.core.engine`.
_resolve_use_numpy = resolve_use_numpy


@dataclass
class BalancedOrientationResult:
    """Outcome of the Section 5 orientation algorithm.

    Attributes:
        orientation: per edge, the pair ``(tail, head)`` the edge is
            oriented as (``tail -> head``).
        in_degrees: ``x_w`` — the number of instance edges oriented
            towards each node.
        phases: number of orientation phases executed.
        rounds: communication rounds charged.
        nu: the ν the run used.
        bar_delta: the Δ̄ upper bound of the instance.
        edge_degrees: static edge degrees within the instance (used by
            the Definition 5.2 checks).
    """

    orientation: Dict[int, Tuple[int, int]]
    in_degrees: List[int]
    phases: int
    rounds: int
    nu: float
    bar_delta: int
    edge_degrees: Dict[int, int] = field(default_factory=dict)

    def definition_52_violations(
        self,
        graph: Graph,
        bipartition: Bipartition,
        eta: Dict[int, float],
        epsilon: float,
        beta: float,
    ) -> List[Tuple[int, float, float]]:
        """Edges violating the (ε, β)-balanced orientation conditions (I)/(II).

        Returns tuples ``(edge, lhs, rhs)`` for every violated inequality;
        an empty list means the orientation is (ε, β)-balanced w.r.t. η.
        """
        violations = []
        for e, (tail, head) in self.orientation.items():
            u, v = bipartition.orient_edge(graph, e)
            slack = (epsilon / 2.0) * self.edge_degrees.get(e, 0) + beta
            x_u = self.in_degrees[u]
            x_v = self.in_degrees[v]
            if tail == u and head == v:
                lhs = x_v - x_u
                rhs = eta[e] + 1 + slack
            else:
                lhs = x_u - x_v
                rhs = -eta[e] + 1 + slack
            if lhs > rhs + 1e-9:
                violations.append((e, float(lhs), float(rhs)))
        return violations


def instance_arrays(
    graph: Graph,
    bipartition: Bipartition,
    edges: List[int],
) -> Tuple[List[int], Dict[int, int], List[int], List[int]]:
    """Per-instance degree and orientation arrays for the reference twin.

    Returns ``(static_deg, edge_degrees, o_u, o_v)``: node degrees within
    the instance, edge degrees keyed by edge, and the oriented endpoints
    per edge (U side first) as dense arrays over the host graph's edge
    ids — so hot loops index instead of calling ``orient_edge``.  Raises
    ``ValueError`` for edges that do not cross the bipartition.
    """
    n = graph.num_nodes
    edge_u, edge_v = graph.endpoint_arrays()
    sides = bipartition.sides

    static_deg = [0] * n
    for e in edges:
        static_deg[edge_u[e]] += 1
        static_deg[edge_v[e]] += 1

    edge_degrees = {
        e: static_deg[edge_u[e]] + static_deg[edge_v[e]] - 2 for e in edges
    }

    o_u = [0] * graph.num_edges
    o_v = [0] * graph.num_edges
    for e in edges:
        a = edge_u[e]
        b = edge_v[e]
        if sides[a] == 0 and sides[b] == 1:
            o_u[e], o_v[e] = a, b
        elif sides[a] == 1 and sides[b] == 0:
            o_u[e], o_v[e] = b, a
        else:
            raise ValueError(
                f"edge {e} = ({a}, {b}) is not bichromatic in this bipartition"
            )
    return static_deg, edge_degrees, o_u, o_v


def resolve_nu(nu: Optional[float], epsilon: float) -> float:
    """The ν a run uses: ``nu``, or ε/8 when ``None``; clamped to (0, 1/8]."""
    resolved = nu if nu is not None else parameters.nu_from_epsilon(epsilon)
    return min(parameters.NU_UPPER_BOUND, max(1e-6, resolved))


def _phase_budget(max_phases: Optional[int], nu: float, bar_delta: int) -> int:
    """The phase cap: ``max_phases``, or the analytic O(log Δ̄ / ν) count + 1."""
    if max_phases is not None:
        return max_phases
    return parameters.orientation_phase_count(nu, bar_delta) + 1


def _fast_forward_phases(
    phase: int,
    phase_budget: int,
    max_unor: int,
    has_violated: bool,
    resolved_nu: float,
    bar_delta: int,
    local_tracker: RoundTracker,
) -> Tuple[int, int, int]:
    """Replay the charges of proposal-free phases arithmetically.

    A phase without participating edges orients nothing, moves no token
    and leaves every violation flag unchanged — it only affects the round
    account, and so does every following phase until the decaying
    threshold drops below the current maximum unoriented edge degree.
    Returns ``(next_phase, phases_run, extra_proposal_rounds)``; shared
    verbatim by both engines.
    """
    target = phase_budget + 1
    if max_unor > 0:
        for p in range(phase + 1, phase_budget + 1):
            if (1.0 - resolved_nu) ** p * bar_delta < max_unor:
                target = p
                break
    stop = min(target, phase_budget + 1)
    if has_violated:
        for p in range(phase, stop):
            k_p = parameters.k_phase(resolved_nu, bar_delta, p)
            delta_p = min(parameters.delta_phase(resolved_nu, bar_delta, p), k_p)
            game_p = max(0, k_p // delta_p - 1)
            local_tracker.charge(
                max(1, ROUNDS_PER_PHASE * game_p), "orientation-token-dropping"
            )
    return target, min(target - 1, phase_budget), 2 * (stop - phase)


def _phase_loop_python(
    graph: Graph,
    n: int,
    edges: List[int],
    o_u: List[int],
    o_v: List[int],
    eta_arr: List[float],
    static_deg: List[int],
    edge_degrees: Dict[int, int],
    bar_delta: int,
    resolved_nu: float,
    phase_budget: int,
    local_tracker: RoundTracker,
) -> Tuple[Dict[int, Tuple[int, int]], List[int], int]:
    """The pure-python reference engine (the seven steps, incremental)."""
    edge_u, edge_v = graph.endpoint_arrays()

    # Unoriented edges: a compact ascending list compacted during the
    # per-phase scan, plus a flag array for O(1) membership.
    unoriented_list: List[int] = list(edges)
    unoriented_count = len(unoriented_list)
    oriented_flag = bytearray(graph.num_edges)
    orientation: Dict[int, Tuple[int, int]] = {}
    x = [0] * n  # in-degrees
    unor_deg = list(static_deg)  # node degrees among unoriented instance edges
    # α_v is a function of d⁻(v), the min static edge degree among the
    # node's oriented edges (Δ̄ when it has none).  Both are maintained
    # incrementally — d⁻ changes only when an edge is oriented — instead of
    # recomputing α for every node in every phase.
    d_minus: List[Optional[int]] = [None] * n
    alpha_default = parameters.alpha_node(resolved_nu, bar_delta, bar_delta)
    alpha_now: List[int] = [alpha_default] * n
    alpha_memo: Dict[int, int] = {bar_delta: alpha_default}
    phases_run = 0

    # Step 5 asks, every phase, which *previously oriented* edges violate
    # their η constraint under the phase-start in-degrees.  An edge's
    # status can only change when one of its endpoints' in-degree changed
    # or its orientation flipped, so instead of rescanning every oriented
    # edge per phase we maintain the violated set and recheck only
    # the edges queued as dirty by the previous phase (newly oriented
    # edges, flipped edges, and edges incident to nodes whose x changed).
    # The violated list is emitted in orientation order — the order the
    # seed implementation produced by iterating the orientation dict — so
    # the token dropping games see bit-identical inputs.
    dir_flag = bytearray(graph.num_edges)  # proposal direction: 1 = U→V, 2 = V→U
    violated_set: Set[int] = set()
    orient_seq: Dict[int, int] = {}  # edge -> position in orientation order
    # Nodes whose in-degree changed this phase (plus flip endpoints);
    # their incident oriented edges — which cover every edge whose
    # violation status can differ next phase, including newly oriented
    # ones — are rechecked at the next phase start.
    dirty_nodes: Set[int] = set()
    graph_xadj, graph_inc = graph.incidence_csr()

    # Per-phase proposal rounds are accumulated and charged once after
    # the loop (the tracker sums per label, so the account is identical).
    proposal_rounds = 0
    phase = 1
    while phase <= phase_budget:
        if not unoriented_count:
            break
        phases_run = phase
        threshold = (1.0 - resolved_nu) ** phase * bar_delta
        # In-degrees are only read before step 4 mutates them, so the
        # phase-start snapshot the paper's steps refer to is ``x`` itself.
        x_old = x

        # Refresh the violation flags of the edges dirtied last phase,
        # against the same phase-start snapshot the full rescan used.
        if dirty_nodes:
            recheck: Set[int] = set()
            for node in dirty_nodes:
                for i in range(graph_xadj[node], graph_xadj[node + 1]):
                    f = graph_inc[i]
                    if oriented_flag[f]:
                        recheck.add(f)
            dirty_nodes.clear()
            for e in recheck:
                tail = orientation[e][0]
                u = o_u[e]
                v = o_v[e]
                if tail == u:
                    bad = x_old[v] - x_old[u] > eta_arr[e]
                else:
                    bad = x_old[u] - x_old[v] > -eta_arr[e]
                if bad:
                    violated_set.add(e)
                else:
                    violated_set.discard(e)

        # Steps 1 + 2 fused: scan the unoriented edges once, and for each
        # participating edge (degree above the threshold) record its
        # proposal immediately.  Ascending edge order falls out of the
        # scan, so the per-node proposal lists are ascending without
        # sorting.  The chosen direction is recorded as one byte per edge
        # (1 = U→V, 2 = V→U); the (tail, head) tuple is only materialized
        # for accepted edges.  Degrees are integers, so ``d > threshold``
        # is equivalent to comparing against ⌊threshold⌋ (int-int
        # compares are cheaper).  ``max_unor`` (the largest unoriented
        # edge degree) is only needed by the fast-forward.
        proposals: Dict[int, List[int]] = {}
        num_participating = 0
        max_unor = 0
        threshold_floor = int(threshold)
        alive: List[int] = []
        for e in unoriented_list:
            if oriented_flag[e]:
                continue
            alive.append(e)
            if unor_deg[edge_u[e]] + unor_deg[edge_v[e]] - 2 > threshold_floor:
                num_participating += 1
                u = o_u[e]
                v = o_v[e]
                if x_old[v] - x_old[u] <= eta_arr[e]:
                    target = v
                    dir_flag[e] = 1
                else:
                    target = u
                    dir_flag[e] = 2
                bucket = proposals.get(target)
                if bucket is None:
                    proposals[target] = [e]
                else:
                    bucket.append(e)
        unoriented_list = alive
        if not num_participating:
            # max degree is only needed by the fast-forward below.
            for e in alive:
                d = unor_deg[edge_u[e]] + unor_deg[edge_v[e]] - 2
                if d > max_unor:
                    max_unor = d
            phase, phases_run, extra = _fast_forward_phases(
                phase,
                phase_budget,
                max_unor,
                bool(violated_set),
                resolved_nu,
                bar_delta,
                local_tracker,
            )
            proposal_rounds += extra
            continue

        # The repair game of step 6 needs the phase-start α values; step 4
        # logs its (rare) α overwrites so the snapshot can be
        # reconstructed on demand instead of copying α every phase.
        alpha_undo: List[Tuple[int, int]] = []
        # Step 3: every node accepts at most k_φ proposals (smallest edge
        # indices first; the lists are already ascending).
        k_phi = parameters.k_phase(resolved_nu, bar_delta, phase)
        accepted: List[int] = []
        accepted_count = [0] * n
        max_accepted = 0
        for node in sorted(proposals):
            chosen = proposals[node][:k_phi]
            accepted.extend(chosen)
            count = len(chosen)
            accepted_count[node] = count
            if count > max_accepted:
                max_accepted = count
        # Step 4: orient the accepted edges.
        for e in accepted:
            if dir_flag[e] == 1:
                direction = (o_u[e], o_v[e])
            else:
                direction = (o_v[e], o_u[e])
            orient_seq[e] = len(orient_seq)
            orientation[e] = direction
            head = direction[1]
            x[head] += 1
            dirty_nodes.add(head)
            oriented_flag[e] = 1
            unoriented_count -= 1
            u = edge_u[e]
            v = edge_v[e]
            unor_deg[u] -= 1
            unor_deg[v] -= 1
            deg_e = edge_degrees[e]
            for endpoint in (u, v):
                current = d_minus[endpoint]
                if current is None or deg_e < current:
                    d_minus[endpoint] = deg_e
                    alpha = alpha_memo.get(deg_e)
                    if alpha is None:
                        alpha = parameters.alpha_node(resolved_nu, bar_delta, deg_e)
                        alpha_memo[deg_e] = alpha
                    alpha_undo.append((endpoint, alpha_now[endpoint]))
                    alpha_now[endpoint] = alpha
        proposal_rounds += 2

        # Step 5: previously oriented edges whose constraint is violated —
        # the maintained violation set, in orientation order.  Edges
        # accepted *this* phase cannot be in it (their first status check
        # happens next phase), matching the seed's accepted-set exclusion.
        if not violated_set:
            phase += 1
            continue

        # Step 6: one token dropping instance on the violated edges,
        # directed opposite to their current orientation.  Two cheap
        # checks identify games that cannot move a single token — then
        # the round charge is the only observable effect and the game
        # (and its arc structure) need not be built at all:
        #
        # * ``k_φ // δ − 1 == 0``: the game runs zero phases;
        # * every initial token count is < 2: no node ever reaches the
        #   activity threshold ``α_v + δ ≥ 2``, and inactive nodes
        #   neither freeze nor transfer tokens, so the state is frozen.
        delta_phi = parameters.delta_phase(resolved_nu, bar_delta, phase)
        delta_use = min(delta_phi, k_phi)
        game_phases = max(0, k_phi // delta_use - 1)
        max_initial = min(k_phi, max_accepted)
        if game_phases == 0 or max_initial < 2:
            local_tracker.charge(
                max(1, ROUNDS_PER_PHASE * game_phases), "orientation-token-dropping"
            )
            phase += 1
            continue

        violated: List[int] = sorted(violated_set, key=orient_seq.__getitem__)
        # Reconstruct the phase-start α from the undo log (applied in
        # reverse so earlier values win).
        alpha_old = list(alpha_now)
        for undo_index in range(len(alpha_undo) - 1, -1, -1):
            node, previous = alpha_undo[undo_index]
            alpha_old[node] = previous
        # The game runs on flat arc arrays directly (no per-phase
        # DirectedGraph / TokenDroppingGame construction); inputs are
        # valid by construction: 0 ≤ initial tokens ≤ k_φ and α ≥ 1.
        game_tails: List[int] = []
        in_map: Dict[int, List[int]] = {}
        deg_count: Dict[int, int] = {}
        for index, e in enumerate(violated):
            tail, head = orientation[e]
            # The game arc runs opposite to the orientation: head -> tail.
            game_tails.append(head)
            in_map.setdefault(tail, []).append(index)
            deg_count[head] = deg_count.get(head, 0) + 1
            deg_count[tail] = deg_count.get(tail, 0) + 1
        initial_tokens = [0] * n
        for node, count in enumerate(accepted_count):
            if count:
                initial_tokens[node] = count if count < k_phi else k_phi
        _x, _y, moved_arcs, _arc_moves, game_phases = _token_dropping_core(
            n=n,
            tails=game_tails,
            in_map=in_map,
            degrees=deg_count,
            k=k_phi,
            initial_tokens=initial_tokens,
            alphas=alpha_old,
            delta=delta_use,
        )
        local_tracker.charge(
            max(1, ROUNDS_PER_PHASE * game_phases), "orientation-token-dropping"
        )

        # Step 7: flip the orientation of every edge over which a token moved.
        for arc_index in moved_arcs:
            e = violated[arc_index]
            tail, head = orientation[e]
            orientation[e] = (head, tail)
            x[head] -= 1
            x[tail] += 1
            dirty_nodes.add(head)
            dirty_nodes.add(tail)
        phase += 1

    if proposal_rounds:
        local_tracker.charge(proposal_rounds, "orientation-proposals")

    # Remaining unoriented edges (constant per node): orient from U to V.
    if unoriented_count:
        for e in unoriented_list:
            if oriented_flag[e]:
                continue
            orientation[e] = (o_u[e], o_v[e])
            x[o_v[e]] += 1
        local_tracker.charge(1, "orientation-final")

    return orientation, x, phases_run


def orient_python(
    graph: Graph,
    edges: List[int],
    static_deg: List[int],
    edge_degrees: Dict[int, int],
    o_u: List[int],
    o_v: List[int],
    eta_arr: List[float],
    nu: Optional[float],
    epsilon: float,
    max_phases: Optional[int],
    tracker: RoundTracker,
) -> BalancedOrientationResult:
    """Orient one instance with the reference twin (inputs from :func:`instance_arrays`).

    ``eta_arr`` is η dense over the host graph's edge ids; rounds are
    charged to ``tracker``.
    """
    n = graph.num_nodes
    bar_delta = max(edge_degrees.values(), default=0)
    if bar_delta <= 0:
        # Trivial instance: orient everything U -> V.
        orientation = {}
        x = [0] * n
        for e in edges:
            orientation[e] = (o_u[e], o_v[e])
            x[o_v[e]] += 1
        return BalancedOrientationResult(
            orientation=orientation,
            in_degrees=x,
            phases=0,
            rounds=0,
            nu=0.0,
            bar_delta=0,
            edge_degrees=edge_degrees,
        )
    resolved_nu = resolve_nu(nu, epsilon)
    before = tracker.total
    orientation, x, phases_run = _phase_loop_python(
        graph,
        n,
        edges,
        o_u,
        o_v,
        eta_arr,
        static_deg,
        edge_degrees,
        bar_delta,
        resolved_nu,
        _phase_budget(max_phases, resolved_nu, bar_delta),
        tracker,
    )
    return BalancedOrientationResult(
        orientation=orientation,
        in_degrees=x,
        phases=phases_run,
        rounds=tracker.total - before,
        nu=resolved_nu,
        bar_delta=bar_delta,
        edge_degrees=edge_degrees,
    )


@dataclass
class LevelSegments:
    """The parts of one level as concatenated arrays (the segmented layout).

    Positions run over the parts in order, each part's edges ascending;
    part ``p`` owns the positions ``edge_start[p]:edge_start[p + 1]``.
    Node state is keyed by the (part, node) pair, compacted to dense keys
    sorted by part, then node: part ``p`` owns the keys
    ``key_start[p]:key_start[p + 1]``, ascending with the node id.

    Attributes:
        ids / pid: host edge id and part, per position.
        kou / kov: keys of the U-side and V-side endpoint, per position.
        key_node: host node per key.
        deg: node degree within its part, per key.
        dege: edge degree within its part, per position.
    """

    ids: object
    pid: object
    edge_start: object
    kou: object
    kov: object
    key_node: object
    key_start: object
    deg: object
    dege: object

    @property
    def num_parts(self) -> int:
        return len(self.edge_start) - 1


def segment_parts(
    graph: Graph, bipartition: Bipartition, parts: Sequence[Sequence[int]]
) -> LevelSegments:
    """Lay the (edge-disjoint, ascending) parts of one level out (numpy only).

    One ``np.unique`` compacts the (part, node) keys and one bincount over
    them gives every part's node degrees.  Raises ``ValueError`` for a
    part that is not strictly ascending, and the reference twin's
    ``ValueError`` for the first position whose edge does not cross the
    bipartition.
    """
    np = _np
    sizes = [len(part) for part in parts]
    total = sum(sizes)
    ids = np.fromiter(chain.from_iterable(parts), dtype=np.int64, count=total)
    pid = np.repeat(np.arange(len(parts), dtype=np.int64), sizes)
    edge_start = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(sizes, out=edge_start[1:])
    unsorted = np.nonzero((ids[1:] <= ids[:-1]) & (pid[1:] == pid[:-1]))[0]
    if unsorted.size:
        first = int(unsorted[0]) + 1
        raise ValueError(
            f"part {int(pid[first])} is not strictly ascending at edge {int(ids[first])}"
        )
    eu_all, ev_all = graph.endpoint_arrays_np()
    n = graph.num_nodes
    base = pid * n
    uniq, inv = np.unique(
        np.concatenate((base + eu_all[ids], base + ev_all[ids])), return_inverse=True
    )
    key_part = uniq // n
    key_node = uniq - key_part * n
    ku = inv[:total]
    kv = inv[total:]
    key_side = np.asarray(bipartition.sides, dtype=np.int8)[key_node]
    su = key_side[ku]
    bad = su == key_side[kv]
    if bad.any():
        first = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"edge {int(ids[first])} = ({int(key_node[ku[first]])}, "
            f"{int(key_node[kv[first]])}) is not bichromatic in this bipartition"
        )
    swap = su == 1
    deg = np.bincount(inv, minlength=uniq.size)
    return LevelSegments(
        ids=ids,
        pid=pid,
        edge_start=edge_start,
        kou=np.where(swap, kv, ku),
        kov=np.where(swap, ku, kv),
        key_node=key_node,
        key_start=np.searchsorted(key_part, np.arange(len(parts) + 1)),
        deg=deg,
        dege=deg[ku] + deg[kv] - 2,
    )


@dataclass
class SegmentedRun:
    """Final state of one :func:`orient_segments` run over a level.

    Attributes:
        sdir: final signed direction per position (+1 = U→V, −1 = V→U).
        seq: position in the part's orientation order (−1 for the edges
            the final step oriented U→V).
        x: in-degree per key.
        phases / bar_delta: per part.
        nu: the ν the run used (0.0 when every part was trivial).
    """

    sdir: object
    seq: object
    x: object
    phases: List[int]
    bar_delta: List[int]
    nu: float

    def classes(
        self, seg: LevelSegments
    ) -> List[Tuple[List[int], List[int], List[int], List[int]]]:
        """Per part, ``(red, blue, red_degrees, blue_degrees)``: the
        ascending U→V (red) and V→U (blue) edge lists and each edge's
        degree within its class, read off the in-degrees (a node's
        in-edges are its blue edges on the U side, its red edges on the
        V side)."""
        np = _np
        num_parts = seg.num_parts
        x = self.x
        xu = x[seg.kou]
        xv = x[seg.kov]
        red = self.sdir == 1
        class_deg = np.where(red, seg.deg[seg.kou] - xu + xv, xu + seg.deg[seg.kov] - xv) - 2
        sides = []
        for mask in (red, ~red):
            ends = [0] + np.cumsum(np.bincount(seg.pid[mask], minlength=num_parts)).tolist()
            flat = seg.ids[mask].tolist()
            flat_deg = class_deg[mask].tolist()
            sides.append(
                (
                    [flat[ends[p] : ends[p + 1]] for p in range(num_parts)],
                    [flat_deg[ends[p] : ends[p + 1]] for p in range(num_parts)],
                )
            )
        (red_ids, red_deg), (blue_ids, blue_deg) = sides
        return list(zip(red_ids, blue_ids, red_deg, blue_deg))

    def result(
        self, seg: LevelSegments, n: int, part: int, rounds: int
    ) -> BalancedOrientationResult:
        """One part's :class:`BalancedOrientationResult`, as the reference builds it."""
        np = _np
        lo, hi = int(seg.edge_start[part]), int(seg.edge_start[part + 1])
        seq = self.seq[lo:hi]
        # Reference insertion order: oriented edges in orientation order,
        # then the final U→V edges ascending.
        done = np.nonzero(seq >= 0)[0]
        order = lo + np.concatenate((done[np.argsort(seq[done])], np.nonzero(seq < 0)[0]))
        nodes = seg.key_node
        orientation: Dict[int, Tuple[int, int]] = {}
        for e, d, a, b in zip(
            seg.ids[order].tolist(),
            self.sdir[order].tolist(),
            nodes[seg.kou[order]].tolist(),
            nodes[seg.kov[order]].tolist(),
        ):
            orientation[e] = (a, b) if d == 1 else (b, a)
        klo, khi = int(seg.key_start[part]), int(seg.key_start[part + 1])
        x = np.zeros(n, dtype=np.int64)
        x[nodes[klo:khi]] = self.x[klo:khi]
        bar_delta = self.bar_delta[part]
        return BalancedOrientationResult(
            orientation=orientation,
            in_degrees=x.tolist(),
            phases=self.phases[part],
            rounds=rounds,
            nu=self.nu if bar_delta > 0 else 0.0,
            bar_delta=bar_delta,
            edge_degrees=dict(zip(seg.ids[lo:hi].tolist(), seg.dege[lo:hi].tolist())),
        )


def orient_segments(
    seg: LevelSegments,
    eta,
    nu: Optional[float],
    epsilon: float,
    max_phases: Optional[int],
    trackers: Sequence[RoundTracker],
) -> SegmentedRun:
    """The segmented numpy engine: every part of a level, in lock-step.

    ``eta`` is η per position (float64); ``trackers[p]`` receives part
    ``p``'s charges.  Each loop iteration runs one phase of every *live*
    part (phase within its budget, edges left to orient): participation,
    proposal directions, the per-node ``k_φ`` accept cap and the accept
    step are array ops over all positions, and a part that is not live
    gets a participation cut no edge reaches.  A part without
    participants fast-forwards and, still within budget, proposes in the
    same iteration.  Step 5's violation flags are recomputed per
    iteration from the phase-start in-degrees in one masked comparison
    (the python twin maintains the same set incrementally).
    Fast-forwards, repair games and every round charge are per part and
    mirror the reference branch for branch.
    """
    np = _np
    num_parts = seg.num_parts
    pid = seg.pid
    kou = seg.kou
    kov = seg.kov
    dege = seg.dege
    edge_start_np = seg.edge_start
    edge_start = edge_start_np.tolist()
    key_start_np = seg.key_start
    key_start = key_start_np.tolist()
    num_keys = int(seg.deg.size)
    key_part = np.repeat(np.arange(num_parts, dtype=np.int64), np.diff(key_start_np))

    bar_np = np.zeros(num_parts, dtype=np.int64)
    np.maximum.at(bar_np, pid, dege)
    bar = bar_np.tolist()
    resolved_nu = resolve_nu(nu, epsilon) if any(b > 0 for b in bar) else 0.0
    budget = [_phase_budget(max_phases, resolved_nu, b) if b > 0 else 0 for b in bar]
    decay = 1.0 - resolved_nu

    num = int(pid.size)
    x = np.zeros(num_keys, dtype=np.int64)  # in-degrees
    unor = seg.deg.copy()  # node degrees among unoriented part edges
    # Signed direction code: +1 = U→V, −1 = V→U, 0 = unoriented.  The
    # sign folds the two η comparisons of step 5 into one (multiplying
    # an inequality by −1 flips it exactly, for ints and IEEE floats
    # alike).
    sdir = np.zeros(num, dtype=np.int8)
    unoriented = np.ones(num, dtype=bool)
    # Signed η, +inf while unoriented: the step-5 scan collapses to one
    # ``sign·diff > seta`` comparison — unoriented edges never flag.
    seta = np.full(num, np.inf, dtype=np.float64)
    seq = np.full(num, -1, dtype=np.int64)  # position in orientation order
    d_minus = bar_np[key_part]
    alpha_memo: List[Dict[int, int]] = [{} for _ in range(num_parts)]
    unoriented_count = [edge_start[p + 1] - edge_start[p] for p in range(num_parts)]
    phase = [1] * num_parts
    phases_run = [0] * num_parts
    proposal_rounds = [0] * num_parts
    seq_counter = 0
    # Participation (step 1) compares s = unor[u] + unor[v], the edge
    # degree + 2, against a per-part integer cut: degrees are integers
    # and thresholds non-negative, so ``d > t`` is ``s > ⌊t⌋ + 2``.  Parts
    # that are not live get a cut no edge reaches.
    never = np.iinfo(np.int64).max
    cut = np.full(num_parts, never, dtype=np.int64)

    def enter_phase(p: int) -> None:
        phases_run[p] = phase[p]
        cut[p] = int(decay ** phase[p] * bar[p]) + 2

    live = [p for p in range(num_parts) if bar[p] > 0]
    while True:
        # A part leaves for good once its budget or its edges run out.
        live = [p for p in live if phase[p] <= budget[p] and unoriented_count[p]]
        if not live:
            break
        cut.fill(never)
        for p in live:
            enter_phase(p)

        # Phase-start snapshot: x is only mutated after every read below.
        diff = x[kov] - x[kou]
        # Step 5 input: previously oriented edges violating their η
        # constraint under the phase-start in-degrees (U→V edges violate
        # when diff > η, V→U edges when diff < η — i.e. sign·diff >
        # sign·η).  Before anything is oriented the scan is vacuous.
        # Positions are grouped by part, so one searchsorted against the
        # part offsets splits any ascending position list per part.
        violated = [0] * (num_parts + 1)
        if seq_counter:
            viol_pos = np.flatnonzero(sdir * diff > seta)
            if viol_pos.size:
                violated = np.searchsorted(viol_pos, edge_start_np).tolist()

        # Steps 1 + 2: participation scan + proposal directions.
        s_now = unor[kou] + unor[kov]
        part = np.flatnonzero(unoriented & (s_now > cut[pid]))
        proposing = np.searchsorted(part, edge_start_np).tolist()
        idle = [p for p in live if proposing[p] == proposing[p + 1]]
        if idle:
            alive = np.where(unoriented, s_now, 2)
            for p in idle:
                cut[p] = never
                phase[p], phases_run[p], extra = _fast_forward_phases(
                    phase[p],
                    budget[p],
                    int(alive[edge_start[p] : edge_start[p + 1]].max()) - 2,
                    violated[p] < violated[p + 1],
                    resolved_nu,
                    bar[p],
                    trackers[p],
                )
                proposal_rounds[p] += extra
            # A fast-forward changes no state, so a part it leaves within
            # budget proposes in this same iteration, at its new phase.
            rejoin = [p for p in idle if phase[p] <= budget[p]]
            if rejoin:
                for p in rejoin:
                    enter_phase(p)
                part = np.flatnonzero(unoriented & (s_now > cut[pid]))
                proposing = np.searchsorted(part, edge_start_np).tolist()
        busy = [p for p in live if proposing[p] < proposing[p + 1]]
        if not busy:
            continue

        cond = diff[part] <= eta[part]
        ptarget = np.where(cond, kov[part], kou[part])

        # Step 3: per-node accept cap.  A stable argsort by target key
        # groups each (part, node)'s proposals while preserving ascending
        # edge order within the group, so cutting each group at its
        # part's k_φ reproduces the reference "smallest edge indices
        # first" choice — and the groups come out in ascending (part,
        # node) order, the accepted order the repair games depend on.
        k_phi = np.zeros(num_parts, dtype=np.int64)
        game_phases = {}
        for p in busy:
            k_p = parameters.k_phase(resolved_nu, bar[p], phase[p])
            delta_use = min(parameters.delta_phase(resolved_nu, bar[p], phase[p]), k_p)
            k_phi[p] = k_p
            game_phases[p] = (delta_use, max(0, k_p // delta_use - 1))
        order = np.argsort(ptarget, kind="stable")
        tsort = ptarget[order]
        # Rank within a group = position − the group's first position.
        rank = np.arange(tsort.size, dtype=np.int64) - np.searchsorted(tsort, tsort)
        keep = rank < k_phi[key_part[tsort]]
        acc_order = order[keep]
        acc = part[acc_order]  # accepted positions, accepted-list order
        heads = tsort[keep]  # ascending keys
        acc_sdir = np.where(cond[acc_order], np.int8(1), np.int8(-1))

        # The repair game needs the phase-start α (a function of d⁻);
        # decide now — all inputs are phase-start values — and snapshot
        # d⁻ (and the per-node accept tallies feeding the game's initial
        # tokens) only when some part's game can actually run.
        games = [p for p in busy if violated[p] < violated[p + 1] and game_phases[p][1] > 0]
        if games:
            first = np.flatnonzero(rank == 0)
            group_keys = tsort[first]
            capped = np.minimum(
                np.diff(first, append=tsort.size), k_phi[key_part[group_keys]]
            )
            groups = np.searchsorted(group_keys, key_start_np).tolist()
            games = [p for p in games if capped[groups[p] : groups[p + 1]].max() >= 2]
        if games:
            d_minus_old = d_minus.copy()

        # Step 4: orient the accepted edges (bincount scatters — exact
        # integer adds, just cheaper than np.add.at).
        sdir[acc] = acc_sdir
        unoriented[acc] = False
        seta[acc] = acc_sdir * eta[acc]
        seq[acc] = np.arange(seq_counter, seq_counter + acc.size, dtype=np.int64)
        seq_counter += int(acc.size)
        x += np.bincount(heads, minlength=num_keys)
        ends = np.concatenate((kou[acc], kov[acc]))
        unor -= np.bincount(ends, minlength=num_keys)
        np.minimum.at(d_minus, ends, np.concatenate((dege[acc], dege[acc])))
        accepted = np.searchsorted(heads, key_start_np).tolist()

        for p in busy:
            unoriented_count[p] -= accepted[p + 1] - accepted[p]
            proposal_rounds[p] += 2
            phase[p] += 1
            # Steps 5 + 6: the repair game (see the reference engine for
            # the two cheap no-op checks).
            if violated[p] == violated[p + 1]:
                continue
            delta_use, rounds_phases = game_phases[p]
            if p not in games:
                trackers[p].charge(
                    max(1, ROUNDS_PER_PHASE * rounds_phases), "orientation-token-dropping"
                )
                continue
            part_viol = viol_pos[violated[p] : violated[p + 1]]
            viol_sorted = part_viol[np.argsort(seq[part_viol])]  # orientation order
            forward = sdir[viol_sorted] == 1
            end_u = kou[viol_sorted]
            end_v = kov[viol_sorted]
            vtail = np.where(forward, end_u, end_v)
            vhead = np.where(forward, end_v, end_u)
            # Part-local node ids: the part's keys ascend with the node id.
            offset = key_start[p]
            local_n = key_start[p + 1] - offset
            # The game arc runs opposite to the orientation: head -> tail.
            # Its inputs are built with array ops: arcs grouped by
            # receiver (ascending arc index within a group), degrees in
            # the arc set, initial tokens from the capped accept tallies.
            arc_tails = vhead - offset
            arc_receivers = vtail - offset
            by_receiver = np.argsort(arc_receivers, kind="stable")
            receivers = arc_receivers[by_receiver]
            bounds = np.flatnonzero(receivers[1:] != receivers[:-1]) + 1
            cuts = [0, *bounds.tolist(), int(receivers.size)]
            arcs = by_receiver.tolist()
            in_map = {
                node: arcs[cuts[i] : cuts[i + 1]]
                for i, node in enumerate(receivers[cuts[:-1]].tolist())
            }
            deg_count = np.bincount(
                np.concatenate((arc_tails, arc_receivers)), minlength=local_n
            ).tolist()
            tokens = np.zeros(local_n, dtype=np.int64)
            tokens[group_keys[groups[p] : groups[p + 1]] - offset] = capped[
                groups[p] : groups[p + 1]
            ]
            # Phase-start α, memoized per d⁻ value.
            memo = alpha_memo[p]
            d_old = d_minus_old[offset : offset + local_n].tolist()
            for degree in set(d_old).difference(memo):
                memo[degree] = parameters.alpha_node(resolved_nu, bar[p], degree)

            _x, _y, moved_arcs, _arc_moves, played = _token_dropping_core(
                n=local_n,
                tails=arc_tails.tolist(),
                in_map=in_map,
                degrees=deg_count,
                k=int(k_phi[p]),
                initial_tokens=tokens.tolist(),
                alphas=list(map(memo.__getitem__, d_old)),
                delta=delta_use,
            )
            trackers[p].charge(
                max(1, ROUNDS_PER_PHASE * played), "orientation-token-dropping"
            )

            # Step 7: flip every edge over which a token moved.
            if moved_arcs:
                moved = np.fromiter(moved_arcs, dtype=np.int64, count=len(moved_arcs))
                flip_pos = viol_sorted[moved]
                x -= np.bincount(vhead[moved], minlength=num_keys)
                x += np.bincount(vtail[moved], minlength=num_keys)
                sdir[flip_pos] = -sdir[flip_pos]
                seta[flip_pos] = -seta[flip_pos]

    # Remaining unoriented edges (constant per node): orient from U to V.
    for p in range(num_parts):
        if proposal_rounds[p]:
            trackers[p].charge(proposal_rounds[p], "orientation-proposals")
        if bar[p] > 0 and unoriented_count[p]:
            trackers[p].charge(1, "orientation-final")
    rem = np.nonzero(unoriented)[0]
    if rem.size:
        x += np.bincount(kov[rem], minlength=num_keys)
    sdir[rem] = 1
    return SegmentedRun(
        sdir=sdir,
        seq=seq,
        x=x,
        phases=phases_run,
        bar_delta=bar,
        nu=resolved_nu,
    )


def compute_balanced_orientation(
    graph: Graph,
    bipartition: Bipartition,
    eta: Dict[int, float],
    epsilon: float,
    edge_set: Optional[Iterable[int]] = None,
    nu: Optional[float] = None,
    tracker: Optional[RoundTracker] = None,
    max_phases: Optional[int] = None,
    scan_path: str = "auto",
) -> BalancedOrientationResult:
    """Compute a generalized balanced edge orientation (Theorem 5.6).

    Args:
        graph: the host graph.
        bipartition: 2-coloring of the nodes; every edge of the instance
            must be bichromatic.
        eta: per-edge thresholds η_e (Definition 5.2), keyed by edge index.
        epsilon: target slack ε of the orientation; ν defaults to ε/8.
        edge_set: the instance's edges (defaults to all edges of ``graph``).
        nu: optional override of the phase parameter ν (clamped to (0, 1/8]).
        tracker: optional round tracker.
        max_phases: optional cap on the number of orientation phases
            (defaults to the analytic O(log Δ̄ / ν) phase count).
        scan_path: which phase-loop engine to use: ``"auto"`` (the
            segmented numpy engine, as a one-part level, when numpy is
            available and the instance has at least
            :data:`NUMPY_SCAN_THRESHOLD` edges — overridable via the
            ``REPRO_SCAN_PATH`` environment variable — pure python
            otherwise), ``"numpy"`` (force the numpy engine; raises
            ``RuntimeError`` when numpy is unavailable) or ``"python"``
            (force the pure-python reference engine).  Both engines are
            required to produce bit-identical results — the knob exists
            so tests can cross-check them on the same instance.

    Returns a :class:`BalancedOrientationResult` covering every edge of
    the instance.
    """
    local_tracker = RoundTracker()
    edges = sorted(set(edge_set)) if edge_set is not None else list(graph.edges())
    if _resolve_use_numpy(scan_path, len(edges)):
        np = _np
        seg = segment_parts(graph, bipartition, [edges])
        # A trivial instance (no edge has a neighbor) never reads η.
        if seg.dege.any():
            eta_np = np.fromiter((eta[e] for e in edges), dtype=np.float64, count=len(edges))
        else:
            eta_np = np.zeros(len(edges), dtype=np.float64)
        run = orient_segments(seg, eta_np, nu, epsilon, max_phases, [local_tracker])
        result = run.result(seg, graph.num_nodes, 0, local_tracker.total)
    else:
        static_deg, edge_degrees, o_u, o_v = instance_arrays(graph, bipartition, edges)
        eta_arr = [0.0] * graph.num_edges
        if any(edge_degrees.values()):
            for e in edges:
                eta_arr[e] = eta[e]
        result = orient_python(
            graph,
            edges,
            static_deg,
            edge_degrees,
            o_u,
            o_v,
            eta_arr,
            nu,
            epsilon,
            max_phases,
            local_tracker,
        )
    if tracker is not None:
        tracker.merge(local_tracker)
    return result
