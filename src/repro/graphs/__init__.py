"""Graph substrate: static graphs, directed graphs, generators, bipartitions."""

from repro.graphs.core import DirectedGraph, Graph
from repro.graphs.bipartite import Bipartition, find_bipartition
from repro.graphs.delta import DeltaGraph
from repro.graphs import generators, identifiers

__all__ = [
    "Graph",
    "DirectedGraph",
    "DeltaGraph",
    "Bipartition",
    "find_bipartition",
    "generators",
    "identifiers",
]
