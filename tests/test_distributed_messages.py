"""Unit tests for CONGEST message-size accounting."""

from __future__ import annotations

import pytest

from repro.distributed.messages import CongestAuditor, message_size_bits
from repro.distributed.model import Model, congest_bit_budget


class TestMessageSize:
    def test_small_values(self):
        assert message_size_bits(None) == 1
        assert message_size_bits(True) == 1
        assert message_size_bits(0) == 2
        assert message_size_bits(1) == 2
        assert message_size_bits(255) == 9

    def test_negative_integers(self):
        assert message_size_bits(-5) == message_size_bits(5)

    def test_float_and_string(self):
        assert message_size_bits(1.5) == 64
        assert message_size_bits("ab") == 8 + 16

    def test_containers(self):
        assert message_size_bits([1, 2, 3]) > message_size_bits([1])
        assert message_size_bits({"a": 1}) > message_size_bits(1)
        assert message_size_bits((7, 7)) == 8 + 2 * message_size_bits(7)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            message_size_bits(object())


class TestBudget:
    def test_budget_grows_logarithmically(self):
        assert congest_bit_budget(2, factor=1) == 1
        assert congest_bit_budget(1024, factor=1) == 10
        assert congest_bit_budget(1024, factor=8) == 80

    def test_model_enum(self):
        assert Model.LOCAL.value == "LOCAL"
        assert Model.CONGEST.value == "CONGEST"


class TestAuditor:
    def test_records_and_summary(self):
        auditor = CongestAuditor(num_nodes=256, factor=4)
        auditor.record(17)
        auditor.record([1, 2, 3])
        summary = auditor.summary()
        assert summary["messages"] == 2
        assert summary["violations"] == 0
        assert auditor.compliant
        assert auditor.max_bits >= message_size_bits(17)

    def test_violation_detection(self):
        auditor = CongestAuditor(num_nodes=4, factor=1)
        big_payload = list(range(100))
        auditor.record(big_payload)
        assert not auditor.compliant
        assert auditor.summary()["violations"] == 1

    def test_strict_mode_raises(self):
        auditor = CongestAuditor(num_nodes=4, factor=1, strict=True)
        with pytest.raises(ValueError, match="CONGEST violation"):
            auditor.record(list(range(100)))

    def test_budget_is_cached_and_stable(self):
        auditor = CongestAuditor(num_nodes=1024, factor=8)
        assert auditor.budget_bits == congest_bit_budget(1024, 8)
        assert auditor.budget_bits == auditor.budget_bits

    def test_typical_coloring_messages_fit(self):
        # Colors up to Δ² and node identifiers are O(log n)-bit values.
        auditor = CongestAuditor(num_nodes=1024, factor=8)
        auditor.record(1023)          # a node identifier
        auditor.record(64 * 64)       # an O(Δ²) color for Δ = 64
        auditor.record((12, 200, 3))  # a (phase, color, counter) triple
        assert auditor.compliant


def _auditor_state(auditor):
    return (
        auditor.messages_recorded,
        auditor.total_bits,
        auditor.max_bits,
        list(auditor.violations),
    )


def _record_sequentially(auditor, groups):
    """The per-message reference: ``record`` once per sent copy."""
    for payload, count in groups:
        for _ in range(count):
            auditor.record(payload)


class TestBatchAuditing:
    """``record_batch_grouped`` against sequential ``record`` calls."""

    # Payloads chosen to stress the memo: 0 == False and 1 == True == 1.0
    # compare equal but size differently, repeated ints hit the memo, and
    # containers/floats bypass it.
    MIXED = [0, False, True, 1, 1, 1.0, "ab", "ab", (7, 7), [1, 2, 3], 255, 0, None]

    def _assert_matches_sequential(self, groups, num_nodes=256, factor=4):
        sequential = CongestAuditor(num_nodes=num_nodes, factor=factor)
        grouped = CongestAuditor(num_nodes=num_nodes, factor=factor)
        _record_sequentially(sequential, groups)
        batch_max = grouped.record_batch_grouped(groups)
        assert _auditor_state(grouped) == _auditor_state(sequential)
        sent = [payload for payload, count in groups if count > 0]
        assert batch_max == max((message_size_bits(p) for p in sent), default=0)
        return grouped

    def test_count_one_groups_match_sequential_record(self):
        # What per-port writes emit: one (payload, 1) group per message.
        self._assert_matches_sequential([(payload, 1) for payload in self.MIXED])

    def test_count_above_one_groups_match_sequential_record(self):
        # What broadcasts emit: one (payload, degree) group, mixed with
        # single writes and an empty broadcast (count 0).
        groups = [(5, 4), ("ab", 1), ((7, 7), 3), (5, 2), (1.0, 0), ([1, 2], 5), (True, 6)]
        auditor = self._assert_matches_sequential(groups)
        assert auditor.messages_recorded == 4 + 1 + 3 + 2 + 5 + 6

    def test_equal_but_differently_sized_payloads_not_conflated(self):
        auditor = CongestAuditor(num_nodes=256, factor=8)
        auditor.record_batch_grouped(
            [(0, 1), (False, 2), (0, 1), (1, 1), (True, 1), (1.0, 1)]
        )
        # int 0 costs 2 bits, bool False costs 1; 1/True/1.0 cost 2/1/64.
        assert auditor.total_bits == 2 + 1 + 1 + 2 + 2 + 1 + 64

    def test_violations_keep_order(self):
        # Budget is 2 bits: the big lists and the ints 2 and 3 (3 bits)
        # violate, the int 1 (2 bits) does not; a violating group
        # appends its size once per copy.
        groups = [(1, 2), (list(range(100)), 1), (2, 3), (list(range(30)), 1), (3, 1)]
        auditor = self._assert_matches_sequential(groups, num_nodes=4, factor=1)
        assert len(auditor.violations) == 1 + 3 + 1 + 1

    def test_strict_raises_at_first_violation_and_records_prefix(self):
        auditor = CongestAuditor(num_nodes=4, factor=1, strict=True)
        big = list(range(100))
        with pytest.raises(ValueError, match="CONGEST violation"):
            auditor.record_batch_grouped([(1, 3), (big, 2), (2, 1)])
        # Everything up to and including the first violating copy is
        # recorded, the rest of its group and the tail are not — exactly
        # like sequential strict record() calls.
        reference = CongestAuditor(num_nodes=4, factor=1, strict=True)
        with pytest.raises(ValueError, match="CONGEST violation"):
            _record_sequentially(reference, [(1, 3), (big, 2), (2, 1)])
        assert _auditor_state(auditor) == _auditor_state(reference)
        assert auditor.messages_recorded == 4
        assert auditor.violations == [message_size_bits(big)]

    def test_empty_batch_is_a_noop(self):
        auditor = CongestAuditor(num_nodes=256, factor=4)
        auditor.record(7)
        before = _auditor_state(auditor)
        assert auditor.record_batch_grouped([]) == 0
        assert auditor.record_batch_grouped([(9, 0)]) == 0
        assert _auditor_state(auditor) == before
