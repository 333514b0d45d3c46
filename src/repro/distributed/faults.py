"""Deterministic fault-injection plane for the synchronous simulator.

The paper's algorithms are *distributed*: they are supposed to tolerate
an adversarial network, not just the perfect one the simulator delivers
by default.  This module turns "the algorithm is distributed" into a
measurable claim: an opt-in :class:`FaultPlan` makes
:meth:`repro.distributed.network.SynchronousNetwork.run` drop, delay and
duplicate messages and crash-stop nodes — deterministically, derived
from a seed.

**Fault model.**  Faults are applied to the flat slot-indexed round
buffer *after* the send phase (and its CONGEST audit) and *before* the
receive phase.  The fault decisions below depend only on ``(seed,
round, slot)`` — never on iteration order, worker identity or wall
clock — so a fixed plan yields bit-identical outputs, metrics and fault
statistics.  The supported faults:

* **drop** — a delivered payload is erased from its slot; the receiver
  sees an absent message (``None`` slot), exactly as if the sender had
  skipped the port.
* **delay** — the payload is removed from the current round and
  re-injected into the same slot ``1..max_delay`` rounds later.  If the
  slot is occupied by a fresh message when the delayed copy comes due,
  the copy is lost (counted in ``lost``); re-injected payloads are not
  faulted a second time.
* **duplicate** — the payload is delivered normally *and* a copy is
  scheduled for re-injection ``1..max_delay`` rounds later (same
  collision rule as delay).
* **crash-stop** — a node halts at the start of its crash round: it
  never sends or receives again (messages already in flight to it are
  suppressed), it is removed from the unfinished set, and its output is
  whatever its state yields at that point.  Crash rounds come from the
  explicit ``crashes`` schedule and/or the seed-derived ``crash_rate``.

Metrics semantics under faults: ``ExecutionMetrics.messages`` and the
CONGEST audit keep counting *sent* messages (auditing happens on the
send side, before injection), so they stay identical to the fault-free
run of the same rounds; what the receivers actually saw is recorded in
:class:`FaultStats` and surfaced as ``ExecutionMetrics.fault_summary``.

**Determinism contract.**  Every per-message decision is a pure function
of ``(plan.seed, fault channel, round, slot)`` through a splitmix64
hash; every per-node crash decision of ``(plan.seed, channel, node)``.
There is no shared RNG stream to consume out of order, so the decisions
are independent of how many other faults fired, of the send phase's
write order, and of the process executing the run — the property the
runtime's bit-identical-rows guarantee relies on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

_MASK64 = (1 << 64) - 1

# Channel salts: independent decision streams per fault type.
_CH_DROP = 0xD509
_CH_DELAY = 0xDE1A
_CH_DELAY_STEPS = 0xDE1B
_CH_DUPLICATE = 0xD0B1
_CH_CRASH = 0xC4A5
_CH_CRASH_ROUND = 0xC4A6


def _mix(x: int) -> int:
    """One splitmix64 finalization step (pure-python, exact 64-bit)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fault_unit(seed: int, channel: int, a: int, b: int = 0) -> float:
    """A deterministic uniform draw in ``[0, 1)`` for one fault decision.

    Pure function of ``(seed, channel, a, b)`` — typically
    ``(plan.seed, fault type, round, slot)`` — so decisions are
    order-independent and identical across processes.
    """
    h = _mix(seed & _MASK64 ^ _mix(channel))
    h = _mix(h ^ a & _MASK64)
    h = _mix(h ^ b & _MASK64)
    return h / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seed-derived fault schedule for one simulator run.

    All rates are probabilities in ``[0, 1]`` evaluated independently
    per delivered message (drop / delay / duplicate, in that order) or
    per node (crash).  A plan is plain data: it can live in scenario
    cell params (:meth:`as_dict` / :meth:`from_params`) and is folded
    into nothing — the same plan always produces the same faults.

    Attributes:
        seed: root of every fault decision.
        drop_rate: probability a delivered payload is erased.
        delay_rate: probability a payload is deferred by
            ``1..max_delay`` rounds instead of delivered now.
        duplicate_rate: probability a payload is additionally
            re-delivered ``1..max_delay`` rounds later.
        max_delay: upper bound (inclusive) of the deferral distance.
        crash_rate: probability a node crash-stops, at a seed-derived
            round in ``[0, crash_round_range)``.
        crash_round_range: range the derived crash rounds are drawn from.
        crashes: explicit ``(node, round)`` crash-stops, applied on top
            of the derived ones (the earlier round wins per node).
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    max_delay: int = 2
    crash_rate: float = 0.0
    crash_round_range: int = 8
    crashes: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "duplicate_rate", "crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay!r}")
        if self.crash_round_range < 1:
            raise ValueError(
                f"crash_round_range must be >= 1, got {self.crash_round_range!r}"
            )
        normalized = tuple((int(v), int(r)) for v, r in self.crashes)
        if any(r < 0 for _v, r in normalized):
            raise ValueError("explicit crash rounds must be >= 0")
        object.__setattr__(self, "crashes", normalized)

    @property
    def active(self) -> bool:
        """Whether the plan can produce any fault at all."""
        return bool(
            self.drop_rate
            or self.delay_rate
            or self.duplicate_rate
            or self.crash_rate
            or self.crashes
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (inverse of :meth:`from_params`)."""
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "delay_rate": self.delay_rate,
            "duplicate_rate": self.duplicate_rate,
            "max_delay": self.max_delay,
            "crash_rate": self.crash_rate,
            "crash_round_range": self.crash_round_range,
            "crashes": [list(pair) for pair in self.crashes],
        }

    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "FaultPlan":
        """Build a plan from a JSON-style mapping (unknown keys rejected)."""
        known = {
            "seed",
            "drop_rate",
            "delay_rate",
            "duplicate_rate",
            "max_delay",
            "crash_rate",
            "crash_round_range",
            "crashes",
        }
        unknown = set(params) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        kwargs = dict(params)
        if "crashes" in kwargs:
            kwargs["crashes"] = tuple(
                (int(v), int(r)) for v, r in kwargs["crashes"]  # type: ignore[union-attr]
            )
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass
class FaultStats:
    """What one faulted run actually did to the message stream.

    All counters are deterministic for a fixed plan and algorithm (see
    the module docstring), so they may safely appear in result rows.
    """

    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    injected: int = 0  # deferred copies that reached their slot
    lost: int = 0  # deferred copies lost to collisions or run end
    suppressed: int = 0  # payloads addressed to crashed nodes
    crashes: List[Tuple[int, int]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "dropped": self.dropped,
            "delayed": self.delayed,
            "duplicated": self.duplicated,
            "injected": self.injected,
            "lost": self.lost,
            "suppressed": self.suppressed,
            "crashes": [list(pair) for pair in self.crashes],
        }


class FaultInjector:
    """Applies a :class:`FaultPlan` to one simulator run's round buffers.

    Owned and driven by :meth:`SynchronousNetwork.run`; one injector per
    run (it carries the in-flight deferred deliveries and the realized
    :class:`FaultStats`).  All mutation happens between the send audit
    and the receive phase — see the module docstring for the contract.
    """

    def __init__(self, plan: FaultPlan, num_nodes: int, xadj: Sequence[int]) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._xadj = xadj
        self._pending: Dict[int, List[Tuple[int, Any]]] = {}
        self.crashed: Set[int] = set()
        schedule: Dict[int, int] = {}
        for node, round_index in plan.crashes:
            if 0 <= node < num_nodes:
                current = schedule.get(node)
                schedule[node] = round_index if current is None else min(current, round_index)
        if plan.crash_rate > 0.0:
            seed = plan.seed
            for v in range(num_nodes):
                if fault_unit(seed, _CH_CRASH, v) < plan.crash_rate:
                    derived = int(
                        fault_unit(seed, _CH_CRASH_ROUND, v) * plan.crash_round_range
                    )
                    current = schedule.get(v)
                    schedule[v] = derived if current is None else min(current, derived)
        self._crash_schedule = schedule

    def _slot_owner(self, slot: int) -> int:
        """The node whose inbox row contains ``slot``."""
        return bisect_right(self._xadj, slot) - 1

    def crashed_at(self, round_index: int) -> List[int]:
        """Nodes whose crash round is ``round_index`` (ascending), realized.

        Marks them crashed and records the crash in the stats — a crash
        scheduled past the run's termination never appears.
        """
        fallen = sorted(
            v
            for v, r in self._crash_schedule.items()
            if r == round_index and v not in self.crashed
        )
        for v in fallen:
            self.crashed.add(v)
            self.stats.crashes.append((v, round_index))
        return fallen

    def _defer(self, round_index: int, slot: int, payload: Any, spread: int) -> None:
        distance = 1 + int(
            fault_unit(self.plan.seed, _CH_DELAY_STEPS, round_index, slot + spread)
            * self.plan.max_delay
        )
        if distance > self.plan.max_delay:  # fault_unit < 1.0, but guard exactly
            distance = self.plan.max_delay
        self._pending.setdefault(round_index + distance, []).append((slot, payload))

    def apply(
        self,
        round_index: int,
        buf: List[Any],
        touched: List[int],
        receivers: Optional[Set[int]],
    ) -> None:
        """Fault this round's buffer in place (post-send, pre-receive).

        Fresh payloads are faulted first (suppress-to-crashed, then
        drop, delay, duplicate — first matching channel wins, except
        duplicate which keeps the original); deferred copies from
        earlier rounds are injected afterwards into still-empty slots
        and are never re-faulted.  When ``receivers`` is given it is
        rebuilt to exactly the nodes that still have a payload, so late
        delivery to finished nodes matches what the faults left behind.
        """
        plan = self.plan
        stats = self.stats
        seed = plan.seed
        for slot in sorted(set(touched)):
            payload = buf[slot]
            if payload is None:
                continue
            if self.crashed and self._slot_owner(slot) in self.crashed:
                buf[slot] = None
                stats.suppressed += 1
                continue
            if plan.drop_rate and fault_unit(seed, _CH_DROP, round_index, slot) < plan.drop_rate:
                buf[slot] = None
                stats.dropped += 1
                continue
            if (
                plan.delay_rate
                and fault_unit(seed, _CH_DELAY, round_index, slot) < plan.delay_rate
            ):
                buf[slot] = None
                stats.delayed += 1
                self._defer(round_index, slot, payload, spread=0)
                continue
            if (
                plan.duplicate_rate
                and fault_unit(seed, _CH_DUPLICATE, round_index, slot) < plan.duplicate_rate
            ):
                stats.duplicated += 1
                self._defer(round_index, slot, payload, spread=1)
        due = self._pending.pop(round_index, None)
        if due:
            for slot, payload in sorted(due, key=lambda item: item[0]):
                if self.crashed and self._slot_owner(slot) in self.crashed:
                    stats.suppressed += 1
                elif buf[slot] is None:
                    buf[slot] = payload
                    touched.append(slot)
                    stats.injected += 1
                else:
                    stats.lost += 1  # collided with a fresh payload
        if receivers is not None:
            receivers.clear()
            for slot in touched:
                if buf[slot] is not None:
                    receivers.add(self._slot_owner(slot))

    def finish(self) -> None:
        """Account deferred copies still in flight when the run ended."""
        for batch in self._pending.values():
            self.stats.lost += len(batch)
        self._pending.clear()

    def summary(self) -> Dict[str, object]:
        """The realized fault statistics (JSON-serializable)."""
        return self.stats.as_dict()
