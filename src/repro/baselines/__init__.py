"""Baseline edge-coloring algorithms the paper compares against."""

from repro.baselines.sequential import sequential_greedy_edge_coloring
from repro.baselines.greedy_by_classes import greedy_baseline_edge_coloring
from repro.baselines.panconesi_rizzi import linear_in_delta_edge_coloring
from repro.baselines.barenboim_elkin import barenboim_elkin_edge_coloring
from repro.baselines.randomized import randomized_edge_coloring

__all__ = [
    "sequential_greedy_edge_coloring",
    "greedy_baseline_edge_coloring",
    "linear_in_delta_edge_coloring",
    "barenboim_elkin_edge_coloring",
    "randomized_edge_coloring",
]
