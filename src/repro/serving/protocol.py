"""``repro-serving/v1`` — the serving plane's wire protocol. **Normative.**

This docstring is the contract every speaker of the protocol implements:
:class:`~repro.serving.session.ServingSession` (in-process),
:class:`~repro.serving.daemon.ColoringDaemon` (socket server), the
clients built by :func:`repro.serving.connect`, and the ``repro query``
CLI.  The prose in other modules is commentary; this file wins.

Framing
=======

The protocol is newline-delimited JSON.  One request line is answered
by exactly one response line, in order, per connection.  Lines are
UTF-8; a response line is the request's answer serialized with sorted
keys (``json.dumps(response, sort_keys=True)``) — canonical key order
is what makes response streams byte-comparable across
implementations, which the twin tests rely on.

Requests
========

A request is a JSON object with an ``op`` field.  Ops and their
required fields:

==============  =======================  =========  ====================
op              fields                   class      answer payload
==============  =======================  =========  ====================
``color``       ``u``, ``v``             read       ``color``
``node_palette`` ``v``                   read       ``colors``, ``degree``
``schedule``    ``v``                    read       ``slots``
``stats``       (``scope``, optional)    read       artifact summary
``insert``      ``u``, ``v``             write      ``epoch``
``delete``      ``u``, ``v``             write      ``epoch``
``set_list``    ``u``, ``v``, ``colors`` write      ``epoch``
``rebase``      —                        write      ``epoch``
``shutdown``    —                        wire-only  ``{}`` (ack)
==============  =======================  =========  ====================

``u``/``v`` are integers (integer-coercible values are accepted);
``colors`` is a list of non-negative integers or ``null`` (clear the
demand list).  ``stats`` with ``"scope": "daemon"`` is answered by the
daemon itself (process introspection) and is not part of the session
twin contract; bare ``stats`` is.  ``shutdown`` is only meaningful on a
socket — an in-process session answers it with error code
``wire-only``.

Two optional *envelope* fields may accompany any request and never
reach the session:

* ``"proto"`` — the protocol format tag.  When present it must equal
  :data:`PROTOCOL_FORMAT`; a mismatch is answered with error code
  ``unsupported-protocol``.  Absence means "current version".
* ``"trace"`` — a ``{"trace_id": ..., "span_id": ...}`` span context
  carried across the socket for the observability plane; stripped
  before dispatch, never echoed, never cached.

Unknown additional fields are ignored (forward compatibility).

Concurrency contract
====================

``read`` ops may execute concurrently against a snapshot of the
current epoch; ``write`` ops serialize on a single writer lock which
establishes a **total order**: every write response carries the unique
``epoch`` the write produced, and the concatenation of writes in epoch
order is a serial schedule every response is consistent with
(linearizability — pinned by the protocol tests).  A daemon journals a
write *before* acknowledging it, inside the writer critical section,
so journal order equals epoch order equals ack order and an
acknowledged write survives SIGKILL.

Responses
=========

Every response object carries ``ok`` (boolean) and ``op`` (echo of the
request op, ``null`` when the request was too malformed to name one).
Successful responses add the payload fields of the table above.
Failed requests never close the connection and never poison a batch;
they answer::

    {"ok": false, "op": <op-or-null>, "error": <human message>,
     "code": <stable machine code>}

``error`` text is advisory and may change; ``code`` is stable API,
drawn from :data:`ERROR_CODES`:

=======================  ==============================================
code                     meaning
=======================  ==============================================
``malformed-request``    the line is not valid JSON
``not-an-object``        the line parsed but is not a JSON object
``unsupported-protocol`` the ``proto`` envelope tag is not ours
``unknown-op``           ``op`` missing or not in the table above
``bad-field``            a required field is missing or not coercible
``absent-edge``          the addressed edge is not in the graph
``node-out-of-range``    the addressed node id is out of range
``bad-list``             a demand list is empty or has negative colors
``list-exhausted``       no allowed color remains for some edge
``lookup-only``          delta sent to a non-canonical artifact
``wire-only``            op only exists on a daemon socket
``repair-failed``        any other repair-engine failure
=======================  ==============================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

#: Wire-format tag of this protocol; bump on breaking changes.
PROTOCOL_FORMAT = "repro-serving/v1"

#: Read ops: concurrent, epoch-snapshotted; all but ``stats`` are result-cached.
READ_OPS = ("color", "node_palette", "schedule", "stats")
#: Write ops routed to the repair engine (journaled by daemons).
DELTA_OPS = ("insert", "delete", "set_list")
#: Maintenance write ops: never cached, never journaled, epoch-preserving.
CONTROL_OPS = ("rebase",)
#: Ops that only exist on a daemon socket.
WIRE_OPS = ("shutdown",)

#: Envelope fields stripped before dispatch (see the module docstring).
ENVELOPE_FIELDS = ("proto", "trace")

#: Stable error codes → meaning.  Keys are API: tests pin them and
#: clients may dispatch on them; never rename, only add.
ERROR_CODES = {
    "malformed-request": "the line is not valid JSON",
    "not-an-object": "the line parsed but is not a JSON object",
    "unsupported-protocol": "the 'proto' envelope tag is not ours",
    "unknown-op": "'op' missing or not a known operation",
    "bad-field": "a required field is missing or not coercible",
    "absent-edge": "the addressed edge is not in the graph",
    "node-out-of-range": "the addressed node id is out of range",
    "bad-list": "a demand list is empty or has negative colors",
    "list-exhausted": "no allowed color remains for some edge",
    "lookup-only": "delta sent to a non-canonical artifact",
    "wire-only": "op only exists on a daemon socket",
    "repair-failed": "any other repair-engine failure",
}


@dataclass(frozen=True)
class ErrorResponse:
    """A structured failure answer (``ok: false`` on the wire)."""

    code: str
    error: str
    op: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown error code {self.code!r}")

    def to_wire(self) -> Dict[str, object]:
        return {"ok": False, "op": self.op, "error": self.error, "code": self.code}


class ProtocolError(Exception):
    """A request that cannot be dispatched; carries its wire answer."""

    def __init__(self, code: str, message: str, op: Optional[str] = None) -> None:
        super().__init__(message)
        self.response = ErrorResponse(code=code, error=message, op=op)
        self.code = code


@dataclass(frozen=True)
class QueryRequest:
    """A read op: ``color`` (edge) or ``node_palette``/``schedule`` (node)."""

    op: str
    v: int
    u: Optional[int] = None

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {"op": self.op, "v": self.v}
        if self.u is not None:
            wire["u"] = self.u
        return wire


@dataclass(frozen=True)
class StatsRequest:
    """The ``stats`` read op; ``scope="daemon"`` asks for introspection."""

    scope: Optional[str] = None
    op: str = field(default="stats", init=False)

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {"op": "stats"}
        if self.scope is not None:
            wire["scope"] = self.scope
        return wire


@dataclass(frozen=True)
class DeltaRequest:
    """A write op: ``insert``/``delete`` an edge, or ``set_list`` demands."""

    op: str
    u: int
    v: int
    colors: Optional[Tuple[int, ...]] = None

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {"op": self.op, "u": self.u, "v": self.v}
        if self.op == "set_list":
            wire["colors"] = None if self.colors is None else list(self.colors)
        return wire


@dataclass(frozen=True)
class RebaseRequest:
    """The ``rebase`` maintenance op (epoch-preserving write)."""

    op: str = field(default="rebase", init=False)

    def to_wire(self) -> Dict[str, object]:
        return {"op": "rebase"}


@dataclass(frozen=True)
class ShutdownRequest:
    """The wire-only ``shutdown`` op (acknowledged, then the daemon stops)."""

    op: str = field(default="shutdown", init=False)

    def to_wire(self) -> Dict[str, object]:
        return {"op": "shutdown"}


Request = Union[QueryRequest, StatsRequest, DeltaRequest, RebaseRequest, ShutdownRequest]


def _int_field(payload: Mapping, op: str, name: str) -> int:
    value = payload.get(name)
    if value is None or isinstance(value, bool):
        raise ProtocolError(
            "bad-field", f"op {op!r} requires integer field {name!r}", op=op
        )
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            "bad-field",
            f"op {op!r} field {name!r} is not an integer: {value!r}",
            op=op,
        ) from None


def parse_request(payload: Mapping) -> Request:
    """Validate one request object into its typed form.

    Raises :class:`ProtocolError` (carrying the wire answer) on
    anything the normative spec rejects.  Envelope fields are ignored;
    unknown extra fields are ignored.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("not-an-object", "request must be a JSON object")
    proto = payload.get("proto")
    if proto is not None and proto != PROTOCOL_FORMAT:
        raise ProtocolError(
            "unsupported-protocol",
            f"unsupported protocol {proto!r} (this server speaks {PROTOCOL_FORMAT})",
        )
    op = payload.get("op")
    if op == "color":
        return QueryRequest(
            op="color", u=_int_field(payload, op, "u"), v=_int_field(payload, op, "v")
        )
    if op in ("node_palette", "schedule"):
        return QueryRequest(op=op, v=_int_field(payload, op, "v"))
    if op == "stats":
        scope = payload.get("scope")
        return StatsRequest(scope=None if scope is None else str(scope))
    if op in DELTA_OPS:
        colors = None
        if op == "set_list":
            raw = payload.get("colors")
            if raw is not None:
                if isinstance(raw, (str, bytes)) or not hasattr(raw, "__iter__"):
                    raise ProtocolError(
                        "bad-field",
                        f"op 'set_list' field 'colors' must be a list or null, "
                        f"got {raw!r}",
                        op=op,
                    )
                try:
                    colors = tuple(int(c) for c in raw)
                except (TypeError, ValueError):
                    raise ProtocolError(
                        "bad-field",
                        f"op 'set_list' field 'colors' has non-integer entries: {raw!r}",
                        op=op,
                    ) from None
        return DeltaRequest(
            op=op,
            u=_int_field(payload, op, "u"),
            v=_int_field(payload, op, "v"),
            colors=colors,
        )
    if op == "rebase":
        return RebaseRequest()
    if op == "shutdown":
        return ShutdownRequest()
    raise ProtocolError(
        "unknown-op", f"unknown op {op!r}", op=op if isinstance(op, str) else None
    )


def decode_request_line(line: str) -> Mapping:
    """One wire line → the raw request object (envelope still attached)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "malformed-request", f"malformed request: {exc}"
        ) from None
    if not isinstance(payload, Mapping):
        raise ProtocolError("not-an-object", "request must be a JSON object")
    return payload


def strip_envelope(payload: Mapping) -> Dict[str, object]:
    """Drop the envelope fields; what remains is the session's request."""
    return {k: v for k, v in payload.items() if k not in ENVELOPE_FIELDS}


def encode_request(request: Union[Request, Mapping]) -> str:
    """A request (typed or raw mapping) → its canonical wire line."""
    payload = request.to_wire() if hasattr(request, "to_wire") else dict(request)
    return json.dumps(payload, sort_keys=True)


def encode_response(response: Union[ErrorResponse, Mapping]) -> str:
    """A response → its canonical wire line (sorted keys, no newline)."""
    payload = response.to_wire() if isinstance(response, ErrorResponse) else response
    return json.dumps(payload, sort_keys=True)


def error_response(
    code: str, message: str, op: Optional[str] = None
) -> Dict[str, object]:
    """The wire dict of a structured failure answer."""
    return ErrorResponse(code=code, error=message, op=op).to_wire()


def is_read(request: Request) -> bool:
    """True for ops that may execute concurrently against a snapshot."""
    return isinstance(request, (QueryRequest, StatsRequest))


def is_write(request: Request) -> bool:
    """True for ops that must serialize on the writer lock."""
    return isinstance(request, (DeltaRequest, RebaseRequest))
