"""Message-size accounting for the CONGEST model.

Messages exchanged by the simulated algorithms are plain Python values
(integers, booleans, tuples/lists of such, small dicts).  For CONGEST
auditing we estimate how many bits an honest binary encoding of the value
would take:

* an integer ``x`` costs ``bit_length(|x|) + 1`` bits (sign/zero bit),
* a boolean or ``None`` costs 1 bit,
* a float costs 64 bits,
* a sequence costs the sum of its elements plus a small length header,
* a mapping costs the sum over keys and values plus a header.

The estimates only need to be accurate up to constant factors — the
CONGEST bound itself is O(log n) bits.

Two auditing entry points are provided.  :meth:`CongestAuditor.record`
sizes one payload at a time and is the per-message reference;
:meth:`CongestAuditor.record_batch_grouped` takes a whole round of
``(payload, count)`` pairs, so a broadcast is sized **once** and
accounted arithmetically, and memoizes the size of repeated scalar
payloads (distributed algorithms overwhelmingly resend the same few
values — colors, identifiers — to every neighbor).  This is what the
simulator's send phase emits.  Both maintain exactly the same counters:
per-payload sizes, totals, the running maximum and the ordered
violation list are bit-identical whichever entry point delivered the
payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.distributed.model import congest_bit_budget

_LENGTH_HEADER_BITS = 8


def message_size_bits(payload: Any) -> int:
    """Estimated size of ``payload`` in bits under a straightforward encoding."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, abs(payload).bit_length()) + 1
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return _LENGTH_HEADER_BITS + 8 * len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return _LENGTH_HEADER_BITS + sum(message_size_bits(item) for item in payload)
    if isinstance(payload, dict):
        return _LENGTH_HEADER_BITS + sum(
            message_size_bits(key) + message_size_bits(value) for key, value in payload.items()
        )
    raise TypeError(f"cannot estimate the size of a {type(payload).__name__} message")


@dataclass
class CongestAuditor:
    """Records message sizes and checks them against the CONGEST budget.

    Args:
        num_nodes: size of the network (defines the O(log n) budget).
        factor: constant factor allowed in the budget.
        strict: when true, :meth:`record` raises on violation instead of
            only recording it.
    """

    num_nodes: int
    factor: int = 8
    strict: bool = False
    messages_recorded: int = 0
    total_bits: int = 0
    max_bits: int = 0
    violations: List[int] = field(default_factory=list)

    @cached_property
    def budget_bits(self) -> int:
        """The per-message budget in bits (computed once, then cached —
        ``num_nodes`` and ``factor`` are fixed at construction)."""
        return congest_bit_budget(self.num_nodes, self.factor)

    def record(self, payload: Any) -> int:
        """Record one message; returns its estimated size in bits."""
        bits = message_size_bits(payload)
        self.messages_recorded += 1
        self.total_bits += bits
        self.max_bits = max(self.max_bits, bits)
        if bits > self.budget_bits:
            self.violations.append(bits)
            if self.strict:
                raise ValueError(
                    f"CONGEST violation: message of {bits} bits exceeds budget of {self.budget_bits} bits"
                )
        return bits

    def record_batch_grouped(self, groups: Iterable[Tuple[Any, int]]) -> int:
        """Record ``(payload, count)`` pairs; returns the batch maximum.

        Equivalent to calling :meth:`record` ``count`` times per pair, in
        pair order — identical ``messages_recorded`` / ``total_bits`` /
        ``max_bits`` counters and an identical violation list (a
        violating payload appends its size ``count`` times) — but each
        distinct payload is sized exactly once.  This is the entry point
        of the simulator's send phase, where a broadcast arrives as one
        pair instead of ``degree`` repeated payloads.  In strict mode the
        raise happens at the first violating payload, with every payload
        up to and including it recorded (the remainder of its group is
        not).

        Returns 0 for an empty iterable (``max_bits`` is untouched).
        """
        budget = self.budget_bits
        violations = self.violations
        memo: Dict[Any, int] = {}
        count_total = 0
        total = 0
        batch_max = 0
        for payload, count in groups:
            if count <= 0:
                continue
            # The memo is keyed by value, so it holds exact int/str only:
            # bool (True == 1) and float (1.0 == 1) compare equal to ints
            # but size differently.
            kind = type(payload)
            if kind is int or kind is str:
                bits = memo.get(payload)
                if bits is None:
                    bits = message_size_bits(payload)
                    memo[payload] = bits
            else:
                bits = message_size_bits(payload)
            if bits > batch_max:
                batch_max = bits
            if bits > budget:
                if self.strict:
                    count_total += 1
                    total += bits
                    violations.append(bits)
                    self.messages_recorded += count_total
                    self.total_bits += total
                    if batch_max > self.max_bits:
                        self.max_bits = batch_max
                    raise ValueError(
                        f"CONGEST violation: message of {bits} bits exceeds budget of {budget} bits"
                    )
                violations.extend([bits] * count)
            count_total += count
            total += bits * count
        self.messages_recorded += count_total
        self.total_bits += total
        if batch_max > self.max_bits:
            self.max_bits = batch_max
        return batch_max

    @property
    def compliant(self) -> bool:
        """Whether every recorded message respected the budget."""
        return not self.violations

    def reset(self) -> None:
        """Clear the recorded counters (not the budget).

        :meth:`SynchronousNetwork.run` resets its auditor at the start of
        every execution so a reused network reports per-run violation
        counts instead of accumulating across runs.
        """
        self.messages_recorded = 0
        self.total_bits = 0
        self.max_bits = 0
        self.violations.clear()

    def summary(self) -> Dict[str, Optional[int]]:
        """A compact summary used by the benchmarks."""
        return {
            "messages": self.messages_recorded,
            "max_bits": self.max_bits,
            "budget_bits": self.budget_bits,
            "violations": len(self.violations),
        }
