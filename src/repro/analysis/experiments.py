"""Experiment runner.

The paper contains no tables or figures; the benchmarks instead compare
the paper's algorithms against the baselines across parameter sweeps
(experiments E1–E10, the scenarios of :mod:`repro.runtime.scenarios`).
This module provides the shared
plumbing: run every algorithm on a graph and collect
:class:`ExperimentRecord` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import api
from repro.baselines.barenboim_elkin import barenboim_elkin_edge_coloring
from repro.baselines.greedy_by_classes import greedy_baseline_edge_coloring
from repro.baselines.panconesi_rizzi import linear_in_delta_edge_coloring
from repro.baselines.randomized import randomized_edge_coloring
from repro.baselines.sequential import sequential_greedy_edge_coloring
from repro.graphs.core import Graph
from repro.verification.checkers import is_proper_edge_coloring


@dataclass
class ExperimentRecord:
    """One row of an experiment: algorithm, instance parameters, measurements."""

    experiment: str
    algorithm: str
    parameters: Dict[str, object] = field(default_factory=dict)
    num_colors: int = 0
    bound: float = 0.0
    rounds: int = 0
    proper: bool = False
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Flatten the record for table formatting."""
        row: Dict[str, object] = {
            "experiment": self.experiment,
            "algorithm": self.algorithm,
            "colors": self.num_colors,
            "bound": round(self.bound, 1),
            "rounds": self.rounds,
            "proper": self.proper,
        }
        row.update(self.parameters)
        row.update(self.extra)
        return row


#: The default algorithm suite used by the comparison experiments (E6).
DEFAULT_ALGORITHMS = (
    "local-list-coloring",
    "congest-8eps",
    "greedy-by-classes",
    "linear-in-delta",
    "barenboim-elkin",
    "randomized",
)


def run_algorithm_suite(
    graph: Graph,
    experiment: str,
    parameters: Optional[Dict[str, object]] = None,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    seed: int = 0,
) -> List[ExperimentRecord]:
    """Run the selected algorithms on one graph and collect records."""
    parameters = dict(parameters or {})
    records: List[ExperimentRecord] = []

    def add(algorithm: str, colors, num_colors: int, bound: float, rounds: int, **extra) -> None:
        records.append(
            ExperimentRecord(
                experiment=experiment,
                algorithm=algorithm,
                parameters=dict(parameters),
                num_colors=num_colors,
                bound=bound,
                rounds=rounds,
                proper=is_proper_edge_coloring(graph, colors),
                extra=extra,
            )
        )

    if "local-list-coloring" in algorithms:
        outcome = api.color_edges_local(graph)
        add(outcome.algorithm, outcome.colors, outcome.num_colors, outcome.bound, outcome.rounds)
    if "congest-8eps" in algorithms:
        outcome = api.color_edges_congest(graph)
        add(outcome.algorithm, outcome.colors, outcome.num_colors, outcome.bound, outcome.rounds)
    if "greedy-by-classes" in algorithms:
        result = greedy_baseline_edge_coloring(graph)
        add(result.algorithm, result.colors, result.num_colors, result.bound, result.rounds)
    if "linear-in-delta" in algorithms:
        result = linear_in_delta_edge_coloring(graph)
        add(result.algorithm, result.colors, result.num_colors, result.bound, result.rounds)
    if "barenboim-elkin" in algorithms:
        result = barenboim_elkin_edge_coloring(graph)
        add(result.algorithm, result.colors, result.num_colors, result.bound, result.rounds)
    if "randomized" in algorithms:
        result = randomized_edge_coloring(graph, seed=seed)
        add(result.algorithm, result.colors, result.num_colors, result.bound, result.rounds)
    if "sequential" in algorithms:
        colors = sequential_greedy_edge_coloring(graph)
        add("sequential", colors, len(set(colors.values())), 2 * graph.max_degree - 1, 0)
    return records

