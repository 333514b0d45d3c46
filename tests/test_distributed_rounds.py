"""Unit tests for round accounting."""

from __future__ import annotations

import pytest

from repro.distributed.rounds import RoundTracker


class TestRoundTracker:
    def test_charges_accumulate(self):
        tracker = RoundTracker()
        tracker.charge(3, "a")
        tracker.charge(2, "b")
        tracker.charge(5, "a")
        assert tracker.total == 10
        assert tracker.breakdown == {"a": 8, "b": 2}

    def test_zero_charge_allowed(self):
        tracker = RoundTracker()
        tracker.charge(0, "noop")
        assert tracker.total == 0
        assert "noop" in tracker.breakdown

    def test_negative_charge_rejected(self):
        tracker = RoundTracker()
        with pytest.raises(ValueError):
            tracker.charge(-1)

    def test_default_label(self):
        tracker = RoundTracker()
        tracker.charge(4)
        assert tracker.breakdown == {"unlabelled": 4}

    def test_merge(self):
        a = RoundTracker()
        a.charge(2, "x")
        b = RoundTracker()
        b.charge(3, "y")
        a.merge(b)
        assert a.total == 5
        assert a.breakdown == {"x": 2, "y": 3}
