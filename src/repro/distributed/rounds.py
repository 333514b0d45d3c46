"""Round accounting.

The higher-level algorithms of the paper are specified as sequences of
*phases* (e.g. the ⌊k/δ⌋−1 phases of the token dropping algorithm, or the
O(log Δ / ν) orientation phases of Section 5), where each phase consists
of a constant number of communication rounds among neighbors.  Rather
than serializing every phase through the message-passing simulator, those
algorithms charge their rounds to a :class:`RoundTracker`: each charge
records how many synchronous rounds the phase would take in the LOCAL or
CONGEST model and a label identifying which part of the algorithm it
belongs to.

Linial's coloring, the primitive that genuinely needs identifier-driven
symmetry breaking, is in addition implemented on the real message-passing
simulator (:class:`repro.coloring.linial.LinialNodeAlgorithm` on
:mod:`repro.distributed.network`), and its measured round count agrees
with its ``linial`` charge; an integration test asserts that.  Every
other label, greedy coloring by color classes among them, is charged
here and not executed on the simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict


class RoundTracker:
    """Accumulates synchronous communication rounds, with per-label breakdown."""

    def __init__(self) -> None:
        self._total = 0
        self._breakdown: "OrderedDict[str, int]" = OrderedDict()

    @property
    def total(self) -> int:
        """Total number of rounds charged so far."""
        return self._total

    @property
    def breakdown(self) -> Dict[str, int]:
        """Rounds per label, in charge order."""
        return dict(self._breakdown)

    def charge(self, rounds: int, label: str = "unlabelled") -> None:
        """Charge ``rounds`` synchronous rounds under ``label``.

        Zero-round charges are allowed (they record that a phase ran but
        needed no communication); negative charges are rejected.
        """
        if rounds < 0:
            raise ValueError("cannot charge a negative number of rounds")
        self._total += rounds
        self._breakdown[label] = self._breakdown.get(label, 0) + rounds

    def merge(self, other: "RoundTracker") -> None:
        """Add another tracker's rounds, label by label."""
        for key, value in other.breakdown.items():
            self.charge(value, key)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RoundTracker(total={self._total})"
