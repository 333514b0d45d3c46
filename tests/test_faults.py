"""Unit tests for the deterministic fault-injection plane.

The plane matrix lives in ``tests/test_differential_paths.py``
(same plan ⇒ bit-identical across all send × receive combinations);
here the fault semantics themselves are pinned: hash determinism,
plan validation, and the drop / delay / duplicate / crash-stop
behaviors with rates forced to extremes.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.distributed.faults import FaultInjector, FaultPlan, FaultStats, fault_unit
from repro.graphs import generators


def _linial_graph(n=64, degree=4, seed=64):
    return generators.graph_with_scrambled_ids(
        generators.random_regular_graph(n, degree, seed=seed), seed=seed, id_space_factor=8
    )


class TestFaultUnit:
    def test_deterministic_and_in_range(self):
        draws = [fault_unit(7, 0xD509, r, s) for r in range(20) for s in range(20)]
        again = [fault_unit(7, 0xD509, r, s) for r in range(20) for s in range(20)]
        assert draws == again
        assert all(0.0 <= d < 1.0 for d in draws)
        # No degenerate clustering: the 400 draws are essentially unique.
        assert len(set(draws)) > 390

    def test_channels_are_independent_streams(self):
        a = [fault_unit(7, 0xD509, r, 3) for r in range(50)]
        b = [fault_unit(7, 0xDE1A, r, 3) for r in range(50)]
        assert a != b

    def test_seed_sensitivity(self):
        assert fault_unit(1, 0xD509, 0, 0) != fault_unit(2, 0xD509, 0, 0)

    def test_rate_calibration(self):
        # Empirical frequency tracks the requested rate (hash uniformity).
        hits = sum(1 for i in range(10_000) if fault_unit(123, 0xD509, i // 100, i % 100) < 0.1)
        assert 800 < hits < 1200


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan(crash_rate=-0.1)
        with pytest.raises(ValueError, match="max_delay"):
            FaultPlan(max_delay=0)
        with pytest.raises(ValueError, match="crash_round_range"):
            FaultPlan(crash_round_range=0)
        with pytest.raises(ValueError, match="crash rounds"):
            FaultPlan(crashes=((1, -2),))

    def test_active(self):
        assert not FaultPlan().active
        assert not FaultPlan(seed=99).active  # a seed alone faults nothing
        assert FaultPlan(drop_rate=0.01).active
        assert FaultPlan(crashes=((0, 0),)).active

    def test_roundtrip(self):
        plan = FaultPlan(seed=3, drop_rate=0.1, delay_rate=0.2, crashes=((4, 2),))
        assert FaultPlan.from_params(plan.as_dict()) == plan

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_params({"drop_rate": 0.1, "loss_rate": 0.2})

    def test_inactive_plan_leaves_run_untouched(self):
        graph = _linial_graph()
        clean = api.run_linial_network(graph)
        gated = api.run_linial_network(graph, fault_plan=FaultPlan(seed=42))
        assert clean == gated
        assert gated.fault_summary is None


class TestDropSemantics:
    def test_total_loss_still_terminates(self):
        # Linial's schedule is fixed-length: even losing every message
        # must terminate in the fault-free round count, with every
        # delivered payload counted as dropped.
        graph = _linial_graph()
        clean = api.run_linial_network(graph)
        starved = api.run_linial_network(graph, fault_plan=FaultPlan(seed=1, drop_rate=1.0))
        assert starved.rounds == clean.rounds
        assert starved.messages == clean.messages  # sent-side accounting
        assert starved.fault_summary["dropped"] == starved.messages
        assert starved.fault_summary["delayed"] == 0


class TestDelaySemantics:
    def test_delay_conservation(self):
        # Every delayed payload either reaches a slot later (injected)
        # or is lost (collision / run end) — nothing vanishes silently.
        graph = _linial_graph()
        out = api.run_linial_network(
            graph, fault_plan=FaultPlan(seed=2, delay_rate=1.0, max_delay=2)
        )
        summary = out.fault_summary
        assert summary["delayed"] == out.messages
        assert summary["injected"] + summary["lost"] == summary["delayed"]

    def test_duplicate_conservation(self):
        graph = _linial_graph()
        out = api.run_linial_network(
            graph, fault_plan=FaultPlan(seed=2, duplicate_rate=1.0, max_delay=2)
        )
        summary = out.fault_summary
        assert summary["duplicated"] == out.messages
        assert summary["injected"] + summary["lost"] == summary["duplicated"]


class TestCrashSemantics:
    def test_explicit_crash_is_realized(self):
        # Round 0 is the only round this run has — both crashes land there.
        graph = _linial_graph()
        out = api.run_linial_network(
            graph, fault_plan=FaultPlan(seed=4, crashes=((0, 0), (3, 0)))
        )
        assert sorted(out.fault_summary["crashes"]) == [[0, 0], [3, 0]]

    def test_crash_past_termination_never_fires(self):
        graph = _linial_graph()
        clean = api.run_linial_network(graph)
        out = api.run_linial_network(
            graph, fault_plan=FaultPlan(seed=4, crashes=((0, clean.rounds + 50),))
        )
        assert out.fault_summary["crashes"] == []
        assert out.outputs == clean.outputs

    def test_earliest_crash_round_wins(self):
        injector = FaultInjector(
            FaultPlan(seed=0, crashes=((2, 5), (2, 1))), num_nodes=4, xadj=[0, 1, 2, 3, 4]
        )
        assert injector.crashed_at(1) == [2]
        assert injector.crashed_at(5) == []

    def test_messages_to_crashed_nodes_suppressed(self):
        # Crash a node at round 0 on a dense run: its neighbors keep
        # sending, and every payload addressed to it is suppressed.
        graph = _linial_graph()
        out = api.run_linial_network(
            graph, fault_plan=FaultPlan(seed=4, crashes=((1, 0),))
        )
        assert out.fault_summary["suppressed"] > 0


class TestStatsPlumbing:
    def test_stats_as_dict_shape(self):
        stats = FaultStats(dropped=1, delayed=2, crashes=[(0, 3)])
        d = stats.as_dict()
        assert d["dropped"] == 1 and d["delayed"] == 2 and d["crashes"] == [[0, 3]]
