"""Generalized defective 2-edge coloring (Section 5).

Definition 5.1: given per-edge parameters λ_e ∈ [0, 1], color every edge
red or blue such that a red edge has at most ``(1+ε)·λ_e·deg(e) + λ_e·β``
red neighbors and a blue edge at most ``(1+ε)·(1−λ_e)·deg(e) + (1−λ_e)·β``
blue neighbors.

Lemma 5.3 reduces the problem (on 2-colored bipartite graphs) to a
generalized balanced edge orientation with thresholds ``η_e`` given by
Equation (3); edges oriented U→V become red and edges oriented V→U become
blue.  Corollary 5.7 plugs in the orientation algorithm of Theorem 5.6.

The implementation exposes the reduction (:func:`eta_from_lambda`), the
end-to-end coloring of one instance
(:func:`generalized_defective_two_edge_coloring`) and the level entry
point of the recursive algorithms of Sections 6 and 7
(:func:`defective_split_level`): every edge-disjoint part of one
recursion level is colored in one call, which the numpy engine runs as
one lock-step orientation over all parts — the parallel level of the
distributed model.  Both share one body (engine choice, λ validation,
output charge).  A level also returns each class's edge degrees, read off
the orientation's in-degrees, so a recursion counts degrees
(:func:`degrees_within`) only for its root instance.  Everything operates
on explicit edge sets, so subgraphs need no re-indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.balanced_orientation import (
    BalancedOrientationResult,
    LevelSegments,
    compute_balanced_orientation,  # noqa: F401 - perfbench/layers.py patches this name here
    instance_arrays,
    orient_python,
    orient_segments,
    segment_parts,
)
from repro.core.engine import _np, resolve_use_numpy
from repro.distributed.rounds import RoundTracker
from repro.graphs.bipartite import Bipartition
from repro.graphs.core import Graph

RED = 0
BLUE = 1


def eta_from_lambda(
    lambda_e: float,
    deg_u: int,
    deg_v: int,
    deg_e: int,
    epsilon: float,
    beta: float,
) -> float:
    """The threshold η_e of Equation (3).

    ``deg_u`` / ``deg_v`` are the degrees of the U-side / V-side endpoint
    within the instance, ``deg_e = deg_u + deg_v − 2`` the edge degree.
    """
    return (
        1.0
        - 2.0 * lambda_e
        - (1.0 - lambda_e) * deg_u
        + lambda_e * deg_v
        + epsilon * (lambda_e - 0.5) * deg_e
        + (2.0 * lambda_e - 1.0) * beta
    )


class DefectiveTwoColoringResult:
    """Outcome of a generalized defective 2-edge coloring.

    Attributes:
        colors: per edge, ``RED`` (0) or ``BLUE`` (1).
        red_edges / blue_edges: the two color classes.
        defects: measured number of same-colored neighboring edges, per
            edge (computed lazily on first access — the recursive
            splitting algorithms only consume the two color classes).
        orientation: the underlying balanced orientation.
        epsilon / beta: the parameters the run used (β is the additive
            slack used when computing η; the *guarantee* of Lemma 5.3 is
            with 2β).
        rounds: communication rounds charged.
    """

    def __init__(
        self,
        colors: Dict[int, int],
        red_edges: Set[int],
        blue_edges: Set[int],
        orientation: BalancedOrientationResult,
        epsilon: float,
        beta: float,
        rounds: int,
        lambdas: Optional[Dict[int, float]] = None,
        edge_degrees: Optional[Dict[int, int]] = None,
        defects: Optional[Dict[int, int]] = None,
        _graph: Optional[Graph] = None,
    ) -> None:
        self.colors = colors
        self.red_edges = red_edges
        self.blue_edges = blue_edges
        self.orientation = orientation
        self.epsilon = epsilon
        self.beta = beta
        self.rounds = rounds
        self.lambdas = lambdas if lambdas is not None else {}
        self.edge_degrees = edge_degrees if edge_degrees is not None else {}
        self._defects = defects
        self._measure_graph = _graph

    @property
    def defects(self) -> Dict[int, int]:
        """Measured same-colored neighbor counts, keyed by edge."""
        if self._defects is None:
            if self._measure_graph is None:
                raise ValueError("defects were not supplied and no graph is attached")
            self._defects = measure_defects(
                self._measure_graph, self.colors, self.colors.keys()
            )
        return self._defects

    def defect_bound(self, e: int, beta: Optional[float] = None) -> float:
        """The Definition 5.1 bound for edge ``e`` (with slack 2β as in Lemma 5.3)."""
        bound_beta = 2.0 * self.beta if beta is None else beta
        lam = self.lambdas[e]
        deg = self.edge_degrees[e]
        if self.colors[e] == RED:
            return (1.0 + self.epsilon) * lam * deg + lam * bound_beta
        return (1.0 + self.epsilon) * (1.0 - lam) * deg + (1.0 - lam) * bound_beta

    def violations(self, beta: Optional[float] = None) -> List[Tuple[int, int, float]]:
        """Edges whose measured defect exceeds the Definition 5.1 bound."""
        result = []
        for e, defect in self.defects.items():
            bound = self.defect_bound(e, beta=beta)
            if defect > bound + 1e-9:
                result.append((e, defect, bound))
        return result

    def max_defect(self) -> int:
        """The largest measured defect."""
        return max(self.defects.values(), default=0)


def generalized_defective_two_edge_coloring(
    graph: Graph,
    bipartition: Bipartition,
    lambdas: Dict[int, float],
    epsilon: float,
    edge_set: Optional[Iterable[int]] = None,
    beta: Optional[float] = None,
    nu: Optional[float] = None,
    tracker: Optional[RoundTracker] = None,
    scan_path: str = "auto",
) -> DefectiveTwoColoringResult:
    """Solve the generalized (1+ε, 2β)-relaxed defective 2-edge coloring (Corollary 5.7).

    Args:
        graph: the host graph.
        bipartition: 2-coloring of the nodes; all instance edges must cross it.
        lambdas: per-edge λ_e ∈ [0, 1]; a missing or out-of-range λ
            (NaN included) raises ``ValueError``.
        epsilon: the ε of Definition 5.1.
        edge_set: the instance's edges (defaults to all edges).
        beta: additive slack used in Equation (3); defaults to 0 (the
            practical override — see ``repro.core.parameters``); the
            analytic value is ``beta_theoretical(ε, Δ̄)``.
        nu: optional override of the orientation's phase parameter.
        tracker: optional round tracker.
        scan_path: the orientation engine, as in :func:`repro.core.
            balanced_orientation.compute_balanced_orientation` (the numpy
            engine runs the instance as a one-part level; both forced
            paths are bit-identical).
    """
    edges: List[int] = sorted(set(edge_set)) if edge_set is not None else list(graph.edges())
    resolved_beta = 0.0 if beta is None else float(beta)
    (split,), (orientation,) = _split_level(
        graph, bipartition, [edges], lambdas, epsilon, [resolved_beta], nu, scan_path, None,
        keep_orientations=True,
    )
    if tracker is not None:
        for label, rounds in split.breakdown.items():
            tracker.charge(rounds, label)
    colors = dict.fromkeys(edges, BLUE)
    colors.update(dict.fromkeys(split.red, RED))
    return DefectiveTwoColoringResult(
        colors=colors,
        red_edges=set(split.red),
        blue_edges=set(split.blue),
        orientation=orientation,
        epsilon=epsilon,
        beta=resolved_beta,
        rounds=split.rounds,
        lambdas=dict(lambdas),
        edge_degrees=orientation.edge_degrees,
        _graph=graph,
    )


@dataclass
class SplitPart:
    """One part's outcome in :func:`defective_split_level`.

    Attributes:
        red / blue: the part's two color classes, ascending.
        red_degrees / blue_degrees: per edge of ``red`` / ``blue``, its
            degree within its class — the number of same-colored
            neighbors (its defect), and the edge degree the next level
            of a recursion reads.
        rounds: the rounds the part's split charged.
        breakdown: those rounds per label.
    """

    red: List[int]
    blue: List[int]
    red_degrees: List[int]
    blue_degrees: List[int]
    rounds: int
    breakdown: Dict[str, int]

    @property
    def max_defect(self) -> int:
        """The largest number of same-colored neighbors of an edge of the part."""
        return max(max(self.red_degrees, default=0), max(self.blue_degrees, default=0))


def defective_split_level(
    graph: Graph,
    bipartition: Bipartition,
    parts: Sequence[Sequence[int]],
    lambdas: Optional[Mapping[int, float]],
    epsilon: float,
    betas: Sequence[float],
    nu: Optional[float] = None,
    scan_path: str = "auto",
    max_phases: Optional[int] = None,
) -> List[SplitPart]:
    """Defective 2-edge color every part of one recursion level (Corollary 5.7).

    The parts are edge-disjoint, each a strictly ascending edge list;
    part ``p`` is colored exactly as :func:`generalized_defective_two_edge_coloring`
    colors it alone with ``beta=betas[p]``.  In the distributed model the
    parts run in parallel: the numpy engine orients all of them in one
    lock-step call (:func:`repro.core.balanced_orientation.
    orient_segments`), the python reference twin one after another.  In
    ``"auto"`` mode the level's total edge count picks the engine.  The
    class degrees of every :class:`SplitPart` come from the orientation's
    in-degrees, so a recursion reads its next level's degrees from here
    instead of counting them.

    Args:
        graph / bipartition: the host graph and its node sides; every
            part edge must cross them.
        parts: the level's parts; a part that is not strictly ascending
            raises ``ValueError`` (parts that share an edge are not
            detected: each is colored on its own).
        lambdas: λ_e ∈ [0, 1] per part edge, or ``None`` for λ = 1/2
            everywhere; a missing or out-of-range λ (NaN included) raises
            ``ValueError`` before any part runs.
        epsilon: the ε of Definition 5.1, shared by the parts.
        betas: the additive slack of Equation (3), per part.
        nu: optional override of the orientation's phase parameter.
        scan_path: ``"auto"`` / ``"numpy"`` / ``"python"``.
        max_phases: optional cap on every part's orientation phases.

    Returns one :class:`SplitPart` per part, in order.
    """
    return _split_level(
        graph, bipartition, parts, lambdas, epsilon, betas, nu, scan_path, max_phases
    )[0]


def degrees_within(graph: Graph, edges: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Node degrees and edge degrees (aligned with ``edges``) within ``edges``.

    The recursions count the degrees of their root instance with this;
    every later level reads them from :class:`SplitPart`.
    """
    edge_u, edge_v = graph.endpoint_arrays()
    node_deg = [0] * graph.num_nodes
    for e in edges:
        node_deg[edge_u[e]] += 1
        node_deg[edge_v[e]] += 1
    return node_deg, [node_deg[edge_u[e]] + node_deg[edge_v[e]] - 2 for e in edges]


def _split_level(
    graph: Graph,
    bipartition: Bipartition,
    parts: Sequence[Sequence[int]],
    lambdas: Optional[Mapping[int, float]],
    epsilon: float,
    betas: Sequence[float],
    nu: Optional[float],
    scan_path: str,
    max_phases: Optional[int],
    keep_orientations: bool = False,
) -> Tuple[List[SplitPart], List[BalancedOrientationResult]]:
    """The body of both entry points: engine choice, λ validation, output charge.

    Returns the parts' splits and, with ``keep_orientations``, each
    part's :class:`BalancedOrientationResult` (else an empty list).
    """
    if not parts:
        return [], []
    trackers = [RoundTracker() for _ in parts]
    orientations: List[BalancedOrientationResult] = []
    if resolve_use_numpy(scan_path, sum(len(part) for part in parts)):
        lam = _lambda_array(lambdas, parts)
        seg = segment_parts(graph, bipartition, parts)
        run = orient_segments(
            seg, _eta_np(seg, lam, epsilon, betas), nu, epsilon, max_phases, trackers
        )
        classes = run.classes(seg)
        if keep_orientations:
            orientations = [
                run.result(seg, graph.num_nodes, p, trackers[p].total)
                for p in range(len(parts))
            ]
    else:
        lam = _lambda_values(lambdas, chain.from_iterable(parts))
        for index, part in enumerate(parts):
            _check_ascending(index, part)
        classes = []
        start = 0
        for part, beta, part_tracker in zip(parts, betas, trackers):
            orientation, part_classes = _split_python(
                graph,
                bipartition,
                part,
                lam[start : start + len(part)],
                epsilon,
                beta,
                nu,
                max_phases,
                part_tracker,
            )
            start += len(part)
            classes.append(part_classes)
            if keep_orientations:
                orientations.append(orientation)
    splits = []
    for (red, blue, red_degrees, blue_degrees), part_tracker in zip(classes, trackers):
        part_tracker.charge(1, "defective-2-coloring-output")
        splits.append(
            SplitPart(
                red, blue, red_degrees, blue_degrees, part_tracker.total, part_tracker.breakdown
            )
        )
    return splits, orientations


def _check_ascending(index: int, part: Sequence[int]) -> None:
    """Raise ``ValueError`` unless the part's edges are strictly ascending."""
    for a, b in zip(part, part[1:]):
        if a >= b:
            raise ValueError(f"part {index} is not strictly ascending at edge {b}")


def _lambda_values(lambdas: Optional[Mapping[int, float]], edges: Iterable[int]) -> List[float]:
    """λ per edge, validated (the reference twin's check)."""
    if lambdas is None:
        return [0.5 for _ in edges]
    values = []
    for e in edges:
        if e not in lambdas:
            raise ValueError(f"edge {e} has no lambda")
        lam = lambdas[e]
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"edge {e} has lambda {float(lam)!r}, outside [0, 1]")
        values.append(lam)
    return values


def _lambda_array(lambdas: Optional[Mapping[int, float]], parts: Sequence[Sequence[int]]):
    """λ per level position as float64, validated in one vectorized pass."""
    np = _np
    edges = list(chain.from_iterable(parts))
    if lambdas is None:
        return np.full(len(edges), 0.5)
    try:
        lam = np.fromiter((lambdas[e] for e in edges), dtype=np.float64, count=len(edges))
    except KeyError:
        missing = next(e for e in edges if e not in lambdas)
        raise ValueError(f"edge {missing} has no lambda") from None
    bad = ~((lam >= 0) & (lam <= 1))  # NaN fails both comparisons
    if bad.any():
        first = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"edge {edges[first]} has lambda {float(lam[first])!r}, outside [0, 1]"
        )
    return lam


def _eta_np(seg: LevelSegments, lam, epsilon: float, betas: Sequence[float]):
    """η_e of Equation (3) per position (the inline of :func:`eta_from_lambda`).

    The float64 expression tree is the scalar one of :func:`_split_python`,
    so the values are IEEE-identical to the reference twin's.
    """
    np = _np
    beta = np.asarray(betas, dtype=np.float64)[seg.pid]
    return (
        1.0
        - 2.0 * lam
        - (1.0 - lam) * seg.deg[seg.kou]
        + lam * seg.deg[seg.kov]
        + epsilon * (lam - 0.5) * seg.dege
        + (2.0 * lam - 1.0) * beta
    )


def _split_python(
    graph: Graph,
    bipartition: Bipartition,
    edges: Sequence[int],
    lam: Sequence[float],
    epsilon: float,
    beta: float,
    nu: Optional[float],
    max_phases: Optional[int],
    tracker: RoundTracker,
) -> Tuple[BalancedOrientationResult, Tuple[List[int], List[int], List[int], List[int]]]:
    """One part on the reference twin: its orientation and ``(red, blue,
    red_degrees, blue_degrees)`` (ascending, as :class:`SplitPart`)."""
    node_deg, edge_degrees, o_u, o_v = instance_arrays(graph, bipartition, edges)
    # η_e of Equation (3), inlined from :func:`eta_from_lambda` (one call
    # per edge per split adds up across the recursive decompositions).
    eta_arr = [0.0] * graph.num_edges
    for e, lam_e in zip(edges, lam):
        eta_arr[e] = (
            1.0
            - 2.0 * lam_e
            - (1.0 - lam_e) * node_deg[o_u[e]]
            + lam_e * node_deg[o_v[e]]
            + epsilon * (lam_e - 0.5) * edge_degrees[e]
            + (2.0 * lam_e - 1.0) * beta
        )
    orientation = orient_python(
        graph,
        edges,
        node_deg,
        edge_degrees,
        o_u,
        o_v,
        eta_arr,
        nu,
        epsilon,
        max_phases,
        tracker,
    )
    arrows = orientation.orientation
    x = orientation.in_degrees
    red: List[int] = []
    blue: List[int] = []
    red_degrees: List[int] = []
    blue_degrees: List[int] = []
    for e in edges:
        u = o_u[e]
        v = o_v[e]
        # U→V is RED, V→U is BLUE.  A node's in-edges are its blue edges
        # on the U side and its red edges on the V side.
        if arrows[e][0] == u:
            red.append(e)
            red_degrees.append(node_deg[u] - x[u] + x[v] - 2)
        else:
            blue.append(e)
            blue_degrees.append(x[u] + node_deg[v] - x[v] - 2)
    return orientation, (red, blue, red_degrees, blue_degrees)


def measure_defects(
    graph: Graph,
    colors: Dict[int, int],
    edges: Iterable[int],
    scan_path: str = "auto",
) -> Dict[int, int]:
    """Number of same-colored neighboring edges for every edge of the instance.

    ``scan_path`` selects the counting engine like every other knob of
    this family (``"auto"`` / ``"numpy"`` / ``"python"``; bit-identical
    results — the lazily computed ``DefectiveTwoColoringResult.defects``
    uses ``"auto"``, steerable via ``REPRO_SCAN_PATH``).
    """
    edge_list = list(edges)
    from repro.core.engine import _np, resolve_use_numpy

    if resolve_use_numpy(scan_path, len(edge_list)):
        # Vectorized (node, color) counting: color values are factorized
        # through np.unique, so any int color space works; counts and
        # defects are plain int arithmetic either way (bit-identical).
        np = _np
        ids = np.fromiter(edge_list, dtype=np.int64, count=len(edge_list))
        edge_u_np, edge_v_np = graph.endpoint_arrays_np()
        cvals = np.fromiter(
            (colors[e] for e in edge_list), dtype=np.int64, count=len(edge_list)
        )
        _uniq, code = np.unique(cvals, return_inverse=True)
        num_codes = int(_uniq.size)
        # The bincount below is O(n · distinct colors); that is only a
        # win for the few-color inputs the defective splits produce
        # (RED/BLUE).  Near-injective colorings fall through to the
        # O(m) dict counter.
        if num_codes * graph.num_nodes <= max(4096, 8 * len(edge_list)):
            eu = edge_u_np[ids]
            ev = edge_v_np[ids]
            keys = np.concatenate((eu, ev)) * num_codes + np.concatenate((code, code))
            counts = np.bincount(keys)
            per_edge = counts[eu * num_codes + code] + counts[ev * num_codes + code] - 2
            return dict(zip(edge_list, per_edge.tolist()))
    # Count per (node, color) to avoid quadratic scans.
    per_node_color: Dict[Tuple[int, int], int] = {}
    edge_u, edge_v = graph.endpoint_arrays()
    for e in edge_list:
        c = colors[e]
        ku = (edge_u[e], c)
        kv = (edge_v[e], c)
        per_node_color[ku] = per_node_color.get(ku, 0) + 1
        per_node_color[kv] = per_node_color.get(kv, 0) + 1
    defects: Dict[int, int] = {}
    for e in edge_list:
        c = colors[e]
        defects[e] = (
            per_node_color[(edge_u[e], c)] + per_node_color[(edge_v[e], c)] - 2
        )
    return defects


def half_split_lambdas(edges: Iterable[int]) -> Dict[int, float]:
    """λ_e = 1/2 for every edge (the plain degree-splitting case of Section 6)."""
    return {e: 0.5 for e in edges}


def list_driven_lambdas(
    lists: Dict[int, Sequence[int]],
    left_colors: Set[int],
    edges: Iterable[int],
) -> Dict[int, float]:
    """λ_e = |L_e ∩ left| / |L_e| as in Section 7 / Lemma D.1."""
    lambdas = {}
    for e in edges:
        colors = lists[e]
        if not colors:
            lambdas[e] = 0.5
            continue
        in_left = sum(1 for c in colors if c in left_colors)
        lambdas[e] = in_left / len(colors)
    return lambdas
