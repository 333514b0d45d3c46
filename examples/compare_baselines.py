"""Compare the paper's algorithms against every baseline on one workload.

Runs the full algorithm suite (the paper's LOCAL and CONGEST algorithms
plus the greedy, linear-in-Δ, Barenboim–Elkin and randomized baselines)
on a configurable workload and prints the comparison table of
experiment E6 (rounds against Δ across the paper's algorithms and the
baselines).  The ``e6_round_scaling`` scenario sweeps the same suite
over Δ.

Run with::

    python examples/compare_baselines.py [delta] [nodes]

and the Δ sweep with::

    python -m repro scenarios run e6_round_scaling
    python -m repro scenarios report e6_round_scaling
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.experiments import DEFAULT_ALGORITHMS, run_algorithm_suite
from repro.analysis.tables import format_records
from repro.graphs import generators


def main():
    delta = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    nodes = int(sys.argv[2]) if len(sys.argv) > 2 else 96

    graph = generators.random_regular_graph(nodes, delta, seed=1)
    print(
        f"workload: random {delta}-regular graph, {graph.num_nodes} nodes, "
        f"{graph.num_edges} edges\n"
    )
    records = run_algorithm_suite(
        graph,
        experiment="compare",
        parameters={"delta": delta, "n": nodes},
        algorithms=DEFAULT_ALGORITHMS + ("sequential",),
    )
    print(
        format_records(
            records,
            columns=["algorithm", "colors", "bound", "rounds", "proper"],
        )
    )
    print(
        "\nNote: the paper's algorithms trade constant-factor overhead at small Δ "
        "for polylogarithmic growth in Δ; sweep Δ with `python -m repro scenarios run "
        "e6_round_scaling` and read it with `python -m repro scenarios report e6_round_scaling`."
    )

    # Returned so the test suite can validate the suite run with the
    # verification.checkers invariants.
    return {"graph": graph, "records": records}


if __name__ == "__main__":
    main()
