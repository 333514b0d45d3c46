"""Synchronous distributed-computing substrate (LOCAL / CONGEST simulation).

The simulator (:class:`SynchronousNetwork`) runs a
:class:`NodeAlgorithm` on every node in lock-step rounds over an
array-batched message plane (flat slot-indexed buffers over the graph's
CSR adjacency; see :mod:`repro.distributed.network`).  In CONGEST mode
(``Model.CONGEST``) every delivered payload is audited against the
per-message budget ``congest_factor * ceil(log2 n)`` bits — the
``congest_factor`` argument of :class:`SynchronousNetwork` is the
constant of the model's O(log n) bound, default
:data:`repro.distributed.model.DEFAULT_CONGEST_FACTOR` — with payload
sizes estimated by :func:`message_size_bits` (see
:mod:`repro.distributed.messages` for the encoding).  Audit results land
in :class:`ExecutionMetrics` (``max_message_bits``,
``congest_violations``); LOCAL runs skip the audit.

Every round, each unfinished node writes its messages straight into the
flat slot-indexed round buffer through a pooled :class:`OutboxWriter`,
and the algorithm then drains the whole round at once from one
phase-level :class:`RoundInbox` view (see the contract on
:class:`NodeAlgorithm`: per-(node, port) slot ownership, ``None`` is an
absent message and never surfaces, views die with the round, late
delivery to finished nodes stays per-node).  Algorithms that only define
per-node ``send()`` dicts and ``receive()`` hooks run through the base
class's bridges, which hand ``receive()`` a pooled :class:`PortInbox`
view per node (``tests/test_distributed_network.py`` pins the edge
semantics).

The simulated network is the paper's reliable synchronous model:
every message is delivered in the round it is sent, and no node
crashes.
"""

from repro.distributed.model import Model, congest_bit_budget
from repro.distributed.rounds import RoundTracker
from repro.distributed.messages import CongestAuditor, message_size_bits
from repro.distributed.metrics import ExecutionMetrics
from repro.distributed.network import (
    OutboxWriter,
    PortInbox,
    RoundInbox,
    SynchronousNetwork,
)
from repro.distributed.algorithms import NodeAlgorithm

__all__ = [
    "Model",
    "congest_bit_budget",
    "RoundTracker",
    "CongestAuditor",
    "message_size_bits",
    "ExecutionMetrics",
    "OutboxWriter",
    "PortInbox",
    "RoundInbox",
    "SynchronousNetwork",
    "NodeAlgorithm",
]
