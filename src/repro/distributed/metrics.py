"""Execution metrics shared by simulator runs and phase-charged algorithms.

Message accounting semantics: ``messages`` counts every non-``None``
payload delivered (a payload of ``None`` means "send nothing on this
port" and is neither delivered nor counted).  In CONGEST runs each
counted payload is sized by
:func:`repro.distributed.messages.message_size_bits` against the budget
``congest_factor * ceil(log2 n)`` bits (see
:func:`repro.distributed.model.congest_bit_budget`); ``max_message_bits``
is the largest size observed across the whole run and
``congest_violations`` the number of payloads over budget.  LOCAL runs
perform no audit: ``congest_budget_bits`` is ``None`` and
``max_message_bits`` stays 0.

Fault accounting: runs executed under a
:class:`repro.distributed.faults.FaultPlan` record the realized fault
statistics (drops, delays, duplicates, crash-stops — see
:mod:`repro.distributed.faults` for the fault model) in
``fault_summary``; ``messages`` and the CONGEST audit keep counting
*sent* payloads, so they match the fault-free run of the same rounds.
Fault-free runs leave ``fault_summary`` as ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class ExecutionMetrics:
    """What a simulated execution cost.

    Attributes:
        rounds: synchronous communication rounds.
        messages: number of (non-empty) messages delivered, when the
            execution went through the message-passing simulator.
        max_message_bits: size of the largest message, when audited.
        congest_budget_bits: the CONGEST budget the run was audited against
            (``None`` for LOCAL runs).
        congest_violations: number of messages that exceeded the budget.
        fault_summary: realized fault statistics when the run executed
            under a :class:`repro.distributed.faults.FaultPlan`
            (deterministic for a fixed plan); ``None`` for fault-free runs.
    """

    rounds: int = 0
    messages: int = 0
    max_message_bits: int = 0
    congest_budget_bits: Optional[int] = None
    congest_violations: int = 0
    fault_summary: Optional[Dict[str, object]] = None
