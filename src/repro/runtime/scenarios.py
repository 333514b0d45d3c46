"""Built-in scenario definitions: every repository workload as data.

Importing this module registers the specs in the global registry
(:mod:`repro.runtime.registry` does so lazily on first lookup).  The
cells reproduce the exact parameter grids (including graph seeds) of the
original E-series benchmark scripts and perf cells, so the rows stay
comparable with the historical numbers (``benchmarks/seed_baseline.json``).

The perf scenarios (``e1_sweep``, ``e1_large``, ``e1_list``,
``e6_congest``, ``e8_linial``) carry quick flags and repeat counts:
``--quick`` selects the fast subset, and the reported wall time is the
best of ``repeats`` timed executions.
"""

from __future__ import annotations

from repro.runtime.registry import register
from repro.runtime.spec import Cell, spec

# ---------------------------------------------------------------- E1 (perf + bench)
register(
    spec(
        "e1_sweep",
        "E1: Theorem D.4 (2Δ−1)-coloring sweep (n=96, Δ=4..24)",
        "local_coloring",
        [
            Cell(params={"n": 96, "delta": delta, "graph_seed": delta}, repeats=7)
            for delta in (4, 8, 16, 24)
        ],
        tags=("bench", "perf", "e1"),
    )
)

register(
    spec(
        "e1_large",
        "E1: Theorem D.4 at scale (n=192..512, Δ=32..64)",
        "local_coloring",
        [
            Cell(
                params={"n": n, "delta": delta, "graph_seed": delta},
                quick=(n == 512),
                repeats=1,
            )
            for n, delta in ((192, 32), (256, 48), (384, 56), (512, 64))
        ],
        tags=("perf", "e1"),
    )
)

register(
    spec(
        "e1_list",
        "E1: (degree+1)-list instances",
        "list_instance",
        [
            Cell(
                params={"n": 64, "delta": 10, "graph_seed": 3, "list_seed": 7, "slack": 1.0},
                repeats=3,
            ),
            Cell(
                params={"n": 256, "delta": 24, "graph_seed": 3, "list_seed": 7, "slack": 1.0},
                quick=False,
                repeats=3,
            ),
        ],
        tags=("bench", "perf", "e1"),
    )
)

# ---------------------------------------------------------------- E2 (bench)
register(
    spec(
        "e2_congest",
        "E2: Theorem 6.3 (8+ε)Δ CONGEST coloring sweep (n=128)",
        "congest_coloring",
        [
            {"n": 128, "delta": delta, "graph_seed": delta + 1, "epsilon": 0.5}
            for delta in (4, 8, 16, 24, 32)
        ],
        tags=("bench", "e2"),
    )
)

# ---------------------------------------------------------------- E3 (bench)
register(
    spec(
        "e3_bipartite",
        "E3: Lemma 6.1 (2+ε)Δ bipartite coloring sweep",
        "bipartite_coloring",
        [
            {"side": 64, "delta": delta, "graph_seed": delta + 2, "epsilon": 0.5}
            for delta in (4, 8, 16, 24)
        ],
        tags=("bench", "e3"),
    )
)

# ---------------------------------------------------------------- E4 (bench)
register(
    spec(
        "e4_token_dropping",
        "E4: Theorem 4.3 generalized token dropping",
        "token_dropping",
        [
            {"variant": "layered", "layers": 6, "width": 16, "k": 8, "delta": 1},
            {"variant": "layered", "layers": 6, "width": 16, "k": 16, "delta": 1},
            {"variant": "layered", "layers": 6, "width": 16, "k": 16, "delta": 4},
            {"variant": "layered", "layers": 10, "width": 32, "k": 32, "delta": 4},
            {"variant": "cyclic", "n": 60, "k": 12, "delta": 2},
        ],
        tags=("bench", "e4"),
    )
)

# ---------------------------------------------------------------- E5 (bench)
register(
    spec(
        "e5_defective",
        "E5: Corollary 5.7 generalized defective 2-edge coloring",
        "defective_two_coloring",
        [
            {"variant": "half", "side": 48, "delta": 12, "graph_seed": 17, "epsilon": eps}
            for eps in (1.0, 0.5, 0.25)
        ]
        + [
            {"variant": "list_driven", "side": 48, "delta": 12, "graph_seed": 23, "epsilon": 0.5}
        ],
        tags=("bench", "e5"),
    )
)

# ---------------------------------------------------------------- E6 (bench + perf)
register(
    spec(
        "e6_round_scaling",
        "E6: round scaling vs the classic baselines (n=128)",
        "round_scaling_suite",
        [
            {"n": 128, "delta": delta, "graph_seed": delta + 3, "rand_seed": delta}
            for delta in (8, 16, 32, 48)
        ],
        tags=("bench", "e6"),
    )
)

register(
    spec(
        "e6_congest",
        "E6 perf: Theorem 6.3 CONGEST pipeline (n=128..256)",
        "congest_coloring",
        [
            Cell(
                params={"n": 128, "delta": delta, "graph_seed": delta + 3, "epsilon": 0.5},
                quick=(delta == 16),
                repeats=3,
            )
            for delta in (8, 16, 32, 48)
        ]
        + [
            Cell(
                params={"n": 256, "delta": 64, "graph_seed": 67, "epsilon": 0.5},
                quick=False,
                repeats=3,
            )
        ],
        tags=("perf", "e6"),
    )
)

# ---------------------------------------------------------------- E7 (bench)
register(
    spec(
        "e7_logstar",
        "E7: the O(log* n) additive term on identifier-scrambled cycles",
        "logstar_growth",
        [{"n": n, "id_space_factor": 16} for n in (32, 128, 512, 2048)],
        tags=("bench", "e7"),
    )
)

# ---------------------------------------------------------------- E8 (bench + perf)
register(
    spec(
        "e8_linial",
        "E8: message-passing Linial CONGEST audit on the simulator",
        "linial_audit",
        [
            Cell(
                params={"n": n, "degree": 4, "id_space_factor": 8},
                quick=(n <= 256),
                repeats=3,
            )
            for n in (64, 256, 1024, 4096, 10_000)
        ],
        tags=("bench", "perf", "e8"),
    )
)

register(
    spec(
        "e8_values",
        "E8: Theorem 6.3 pipeline value ranges fit the CONGEST budget",
        "congest_value_audit",
        [{"n": 96, "delta": 12, "graph_seed": 5, "epsilon": 0.5}],
        tags=("bench", "e8"),
    )
)

# ---------------------------------------------------------------- E9 (bench)
register(
    spec(
        "e9_slack",
        "E9: Lemma D.2 solver and the Lemma D.3 degree reduction",
        "relaxed_solver",
        [
            {
                "side": 48,
                "delta": 10,
                "slack": slack,
                "graph_seed": int(slack * 10),
                "list_seed": int(slack * 7),
                "color_space": int(4 * slack * 10),
            }
            for slack in (1.0, 2.0, 4.0)
        ],
        tags=("bench", "e9"),
    )
)

register(
    spec(
        "e9_degree_reduction",
        "E9: one Lemma D.3 pass reduces the uncolored degree",
        "degree_reduction",
        [{"side": 48, "delta": 10, "graph_seed": 31}],
        tags=("bench", "e9"),
    )
)

# ---------------------------------------------------------------- E10 (bench)
register(
    spec(
        "e10_ablation",
        "E10: design-choice ablations (token δ, orientation ν, recursion depth)",
        "ablation",
        [{"ablation": "token_delta", "delta": delta} for delta in (1, 2, 4, 8)]
        + [{"ablation": "orientation_nu", "nu": nu} for nu in (0.02, 0.05, 0.125)]
        + [{"ablation": "recursion_depth", "levels": levels} for levels in (0, 1, 2, 3)],
        tags=("bench", "e10"),
    )
)

# ---------------------------------------------------------------- E11 (bench)
register(
    spec(
        "e11_classic_reductions",
        "E11: maximal matching / MIS via the coloring reductions",
        "classic_reduction",
        [
            {"pipeline": "matching", "n": 96, "delta": delta, "graph_seed": delta + 5}
            for delta in (8, 16)
        ]
        + [
            {"pipeline": "mis", "n": 96, "delta": delta, "graph_seed": delta + 6}
            for delta in (8, 16)
        ],
        tags=("bench", "e11"),
    )
)

# ---------------------------------------------------------------- fault plane
register(
    spec(
        "fault_sweep",
        "fault plane: Linial rounds/validity degradation vs message loss",
        "fault_sweep",
        [
            # Loss-rate curve (0.0 is the fault-free control row).
            {"n": 96, "degree": 4, "faults": {"seed": 11, "drop_rate": rate}}
            for rate in (0.0, 0.02, 0.05, 0.1)
        ]
        + [
            # Reordering adversary: delays + duplicates, no outright loss.
            {
                "n": 96,
                "degree": 4,
                "faults": {
                    "seed": 13,
                    "delay_rate": 0.05,
                    "duplicate_rate": 0.05,
                    "max_delay": 3,
                },
            },
            # Crash-stop adversary: seeded node crashes plus one pinned crash.
            {
                "n": 96,
                "degree": 4,
                "faults": {"seed": 17, "crash_rate": 0.05, "crashes": [[0, 1]]},
            },
        ],
        tags=("faults", "robustness"),
    )
)

# ---------------------------------------------------------------- serving plane
register(
    spec(
        "serving_churn",
        "serving plane: batched delta+lookup serving under edge churn (E12)",
        "serving_churn",
        [
            Cell(params={"n": 300, "delta": 6, "churn": 0.05, "graph_seed": 9}),
            Cell(
                params={"n": 1000, "delta": 8, "churn": 0.01, "graph_seed": 9},
                repeats=3,
            ),
            Cell(
                params={"n": 1000, "delta": 8, "churn": 0.05, "graph_seed": 9},
                quick=False,
                repeats=3,
            ),
            Cell(
                params={"n": 10_000, "delta": 8, "churn": 0.01, "graph_seed": 9},
                quick=False,
            ),
        ],
        tags=("bench", "perf", "serving"),
    )
)

register(
    spec(
        "serving_daemon",
        "serving plane: socket daemon with SIGKILL + journal-replay recovery (E13)",
        "serving_daemon",
        [
            Cell(params={"n": 200, "delta": 6, "churn": 0.05, "graph_seed": 9}),
            Cell(
                params={"n": 600, "delta": 8, "churn": 0.05, "graph_seed": 9},
                quick=False,
            ),
            # Concurrent-clients cell: 4 socket clients with ~2ms think
            # time between requests; the threading daemon must beat the
            # same streams replayed serially by >= 2x (timing-only — the
            # deterministic core does not depend on the interleaving).
            Cell(
                params={
                    "n": 200,
                    "delta": 6,
                    "graph_seed": 9,
                    "clients": 4,
                    "toggles": 3,
                    "reads_per_write": 3,
                    "client_delay_ms": 2.0,
                    "min_speedup": 2.0,
                    "journal_max_records": 16,
                }
            ),
        ],
        tags=("bench", "perf", "serving", "faults"),
    )
)

# ---------------------------------------------------------------- analysis suite
register(
    spec(
        "suite_compare",
        "analysis.experiments: full algorithm suite on regular workloads",
        "algorithm_suite",
        [
            {"n": 48, "delta": 6, "graph_seed": 1, "rand_seed": 6, "experiment": "suite"},
            {"n": 96, "delta": 12, "graph_seed": 1, "rand_seed": 12, "experiment": "suite"},
        ],
        tags=("analysis",),
    )
)

#: Registry names of the perf suite, in the order the perf harness
#: reports them, mapped to the legacy ``BENCH_e2e.json`` scenario labels.
PERF_SCENARIOS = (
    ("E1_sweep", "e1_sweep"),
    ("E1_large", "e1_large"),
    ("E1_list", "e1_list"),
    ("E6_congest", "e6_congest"),
    ("E8_linial", "e8_linial"),
    ("E12_serving", "serving_churn"),
    ("E13_daemon", "serving_daemon"),
)
