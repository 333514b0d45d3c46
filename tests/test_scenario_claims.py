"""Cross-cell claims of the E-series: shapes no single cell can assert.

Every per-cell claim (color bounds, list conformance, Definition 5.1
defects, token caps, audits) lives in its runner in
:mod:`repro.runtime.workloads`, so every run of a scenario checks it.
The claims here compare cells of one scenario against each other — round
growth in Δ or n and the ablation trade-offs — so they run the
registered scenario in memory and check its results.  E6's rows are
also pinned whole, since they carry every algorithm of the comparison.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.complexity import loglog_slope
from repro.runtime import get
from runtime_helpers import scenario_results


def _results(name, **match):
    spec = get(name)
    cells = tuple(
        c for c in spec.cells if all(c.params[k] == v for k, v in match.items())
    )
    return scenario_results(dataclasses.replace(spec, cells=cells))


def test_e2_congest_rounds_grow_subquadratically_in_delta():
    rows = _results("e2_congest")
    assert loglog_slope([r["delta"] for r in rows], [r["rounds"] for r in rows]) < 1.8


def test_e6_paper_algorithms_scale_better_than_baselines():
    rows = _results("e6_round_scaling", n=128)
    # The smallest Δ sits below the practical divide-and-conquer cutover.
    rows = rows[1:]
    deltas = [r["delta"] for r in rows]
    slopes = {
        name: loglog_slope(deltas, [r["rounds"][name] for r in rows])
        for name in rows[0]["rounds"]
    }
    assert slopes["greedy-by-classes"] > 1.2
    assert slopes["linear-in-delta"] > 0.7
    assert slopes["congest-8eps"] < slopes["greedy-by-classes"]
    assert slopes["local-list-coloring"] < slopes["greedy-by-classes"]
    assert slopes["randomized"] < 0.6


#: (n, Δ) -> the E6 row's rounds and colors per algorithm, pinned so a
#: change to the suite or to any of its algorithms shows here.
E6_PINNED = {
    (128, 8): (
        {"local-list-coloring": 99, "congest-8eps": 154, "greedy-by-classes": 99,
         "linear-in-delta": 91, "barenboim-elkin": 44, "randomized": 5},
        {"local-list-coloring": 11, "congest-8eps": 17, "greedy-by-classes": 11,
         "linear-in-delta": 15, "barenboim-elkin": 15, "randomized": 15},
    ),
    (128, 16): (
        {"local-list-coloring": 1554, "congest-8eps": 350, "greedy-by-classes": 193,
         "linear-in-delta": 218, "barenboim-elkin": 58, "randomized": 6},
        {"local-list-coloring": 21, "congest-8eps": 34, "greedy-by-classes": 20,
         "linear-in-delta": 31, "barenboim-elkin": 30, "randomized": 31},
    ),
    (128, 32): (
        {"local-list-coloring": 2223, "congest-8eps": 700, "greedy-by-classes": 2048,
         "linear-in-delta": 504, "barenboim-elkin": 176, "randomized": 6},
        {"local-list-coloring": 38, "congest-8eps": 76, "greedy-by-classes": 44,
         "linear-in-delta": 43, "barenboim-elkin": 53, "randomized": 63},
    ),
    (128, 48): (
        {"local-list-coloring": 3969, "congest-8eps": 999, "greedy-by-classes": 3072,
         "linear-in-delta": 760, "barenboim-elkin": 144, "randomized": 6},
        {"local-list-coloring": 54, "congest-8eps": 104, "greedy-by-classes": 71,
         "linear-in-delta": 73, "barenboim-elkin": 76, "randomized": 95},
    ),
    (48, 6): (
        {"local-list-coloring": 50, "congest-8eps": 50, "greedy-by-classes": 50,
         "linear-in-delta": 67, "barenboim-elkin": 28, "randomized": 4},
        {"local-list-coloring": 8, "congest-8eps": 8, "greedy-by-classes": 8,
         "linear-in-delta": 11, "barenboim-elkin": 12, "randomized": 11},
    ),
    (96, 12): (
        {"local-list-coloring": 125, "congest-8eps": 295, "greedy-by-classes": 125,
         "linear-in-delta": 162, "barenboim-elkin": 34, "randomized": 6},
        {"local-list-coloring": 15, "congest-8eps": 27, "greedy-by-classes": 15,
         "linear-in-delta": 23, "barenboim-elkin": 24, "randomized": 23},
    ),
}


def test_e6_rows_keep_the_pinned_rounds_and_colors():
    rows = _results("e6_round_scaling")
    assert {(r["n"], r["delta"]): (r["rounds"], r["colors"]) for r in rows} == E6_PINNED


def test_e7_rounds_grow_only_through_log_star():
    rows = _results("e7_logstar")
    # Across a 64x increase in n.
    assert rows[-1]["linial_rounds"] - rows[0]["linial_rounds"] <= 3
    assert rows[-1]["greedy_rounds"] - rows[0]["greedy_rounds"] <= 6


def test_e10_ablation_tradeoffs_are_monotone():
    phases = [r["phases"] for r in _results("e10_ablation", ablation="token_delta")]
    assert phases == sorted(phases, reverse=True)
    rounds = [r["rounds"] for r in _results("e10_ablation", ablation="orientation_nu")]
    assert rounds == sorted(rounds, reverse=True)
    leaves = [
        r["max_leaf_degree"] for r in _results("e10_ablation", ablation="recursion_depth")
    ]
    assert leaves == sorted(leaves, reverse=True)
