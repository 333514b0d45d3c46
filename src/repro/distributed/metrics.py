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

The simulator's network is reliable (see
:mod:`repro.distributed.network`): every counted payload is also a
received one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


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
    """

    rounds: int = 0
    messages: int = 0
    max_message_bits: int = 0
    congest_budget_bits: Optional[int] = None
    congest_violations: int = 0
