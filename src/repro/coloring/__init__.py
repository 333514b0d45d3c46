"""Classical coloring building blocks used by the paper's algorithms."""

from repro.coloring.color_reduction import (
    next_prime,
    polynomial_step,
    reduction_schedule,
)
from repro.coloring.linial import (
    LinialNodeAlgorithm,
    linial_edge_coloring,
    linial_vertex_coloring,
)
from repro.coloring.greedy import (
    greedy_edge_coloring_by_classes,
    proper_edge_schedule,
)
from repro.coloring.defective_vertex import (
    defective_coloring_local_search,
    defective_split_coloring,
    polynomial_defective_reduction,
)
from repro.coloring.palettes import ColorRange, PaletteAllocator

__all__ = [
    "next_prime",
    "polynomial_step",
    "reduction_schedule",
    "LinialNodeAlgorithm",
    "linial_vertex_coloring",
    "linial_edge_coloring",
    "greedy_edge_coloring_by_classes",
    "proper_edge_schedule",
    "polynomial_defective_reduction",
    "defective_coloring_local_search",
    "defective_split_coloring",
    "ColorRange",
    "PaletteAllocator",
]
