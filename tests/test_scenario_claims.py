"""Cross-cell claims of the E-series: shapes no single cell can assert.

Every per-cell claim (color bounds, list conformance, Definition 5.1
defects, token caps, audits) lives in its runner in
:mod:`repro.runtime.workloads`, so every run of a scenario checks it.
The claims here compare cells of one scenario against each other — round
growth in Δ or n and the ablation trade-offs — so they run the
registered scenario in memory and check its results.
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
    rows = _results("e6_round_scaling")
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
