"""The daemon's wire protocol: newline-delimited JSON, length-guarded.

One message is one JSON object on one line, UTF-8 encoded, terminated by
``\\n`` — the same shape ``serve-batch --json`` already emits, so anything
that can produce a ``PlanQuery`` JSONL file can speak to the daemon with
``nc``.  The framing rules are deliberately boring:

* a line longer than the connection's ``max_line_bytes`` is a protocol
  violation — the server answers ``{"error": "line_too_long"}`` and closes
  the connection (an unbounded line is indistinguishable from a hostile or
  broken peer, and the read buffer must stay bounded);
* a line that is not a JSON object is answered with
  ``{"error": "bad_request"}`` and the connection *stays open* (a torn line
  from a well-behaved client should not kill its neighbours on the same
  connection);
* requests and replies carry an optional caller-chosen ``id`` so one
  connection can have several requests in flight.

A request is either a full envelope or a bare query::

    {"op": "plan", "query": {...PlanQuery.to_dict()...}, "tenant": "team-a",
     "id": "r1", "trace_id": "abc123", "include_plan": false}
    {"axes": [8, 4], "reduce": [0], "bytes": 67108864}

Ops: ``plan`` (default when a query is present), ``ping`` and ``stats``
(the daemon's live :class:`~repro.obs.RecorderSnapshot`, which
``repro-cli stats`` renders).  Replies always carry ``"ok"``::

    {"ok": true, "id": "r1", "outcome": {...PlanOutcome.to_dict()...}}
    {"ok": false, "error": "overloaded", "detail": "queue full (64)"}

With ``include_plan`` (the default for a bare envelope) the outcome carries
``"plan"``, an :meth:`~repro.api.OptimizationPlan.to_dict` in format v4: the
plan's distinct lowered steps once, in a top-level ``"steps"`` table, and
each strategy's ``"program"`` as ``{"label", "steps": [indices]}`` into it.
:meth:`~repro.api.OptimizationPlan.from_dict` rebuilds the plan.

Error codes: ``bad_request``, ``line_too_long``, ``overloaded`` (admission
control shed the request), ``rate_limited`` (per-tenant token bucket),
``draining`` (the daemon is shutting down), ``plan_failed`` (the query was
well-formed but planning raised), ``internal``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServeError
from repro.query import PlanQuery

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "ServeRequest",
    "encode_message",
    "decode_message",
    "error_reply",
    "ok_reply",
]

# Default per-connection line limit.  PlanQuery dicts are a few hundred
# bytes; a megabyte leaves room for generous envelopes while keeping the
# per-connection buffer bounded.
MAX_LINE_BYTES = 1 << 20

OPS = ("plan", "ping", "stats")


def encode_message(message: Dict[str, Any]) -> bytes:
    """One JSON object as one newline-terminated UTF-8 line.

    Compact separators keep the frame small; ``json.dumps`` never emits raw
    newlines, so the line framing is safe for any JSON-serializable payload.
    """
    return json.dumps(message, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    ) + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a JSON object; :class:`ServeError` if not."""
    try:
        data = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as error:
        raise ServeError(f"message is not UTF-8: {error}")
    except json.JSONDecodeError as error:
        raise ServeError(f"message is not JSON: {error}")
    except RecursionError:
        raise ServeError("message nests deeper than the JSON parser can descend")
    if not isinstance(data, dict):
        raise ServeError(
            f"message must be a JSON object, got {type(data).__name__}"
        )
    return data


def error_reply(
    code: str,
    detail: Optional[str] = None,
    request_id: Optional[str] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """The structured error shape every refusal uses."""
    reply: Dict[str, Any] = {"ok": False, "error": code}
    if detail is not None:
        reply["detail"] = detail
    if request_id is not None:
        reply["id"] = request_id
    reply.update(extra)
    return reply


def ok_reply(request_id: Optional[str] = None, **payload: Any) -> Dict[str, Any]:
    reply: Dict[str, Any] = {"ok": True}
    if request_id is not None:
        reply["id"] = request_id
    reply.update(payload)
    return reply


@dataclass(frozen=True)
class ServeRequest:
    """One parsed request: op, query, tenancy and trace metadata."""

    op: str
    query: Optional[PlanQuery] = None
    tenant: Optional[str] = None
    request_id: Optional[str] = None
    include_plan: bool = True
    # (trace_id, span_id) shipped by the caller: the daemon's serve.request
    # root span attaches to it, so the wire's trace id flows into
    # PlanOutcome.provenance() unchanged.
    trace_parent: Optional[Tuple[str, str]] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, data: Dict[str, Any]) -> "ServeRequest":
        """Parse a decoded message; :class:`ServeError` on any bad shape."""
        request_id = data.get("id")
        if request_id is not None and not isinstance(request_id, str):
            raise ServeError(f"'id' must be a string, got {request_id!r}")
        op = data.get("op")
        if op is None:
            # A bare PlanQuery dict (or a {"query": ...} envelope) is a plan.
            op = "plan" if ("query" in data or "axes" in data) else None
        if op not in OPS:
            raise ServeError(
                f"unknown op {op!r}; expected one of {list(OPS)} "
                "(or a bare plan-query object)"
            )
        tenant = data.get("tenant")
        if tenant is not None:
            if not isinstance(tenant, str) or not tenant:
                raise ServeError(f"'tenant' must be a non-empty string, got {tenant!r}")
            if len(tenant) > 128:
                raise ServeError("'tenant' must be at most 128 characters")
        include_plan = data.get("include_plan", True)
        if not isinstance(include_plan, bool):
            raise ServeError(
                f"'include_plan' must be a boolean, got {include_plan!r}"
            )
        trace_parent = None
        trace_id = data.get("trace_id")
        if trace_id is not None:
            if not isinstance(trace_id, str) or not trace_id:
                raise ServeError(f"'trace_id' must be a non-empty string, got {trace_id!r}")
            span_id = data.get("span_id")
            if span_id is not None and (not isinstance(span_id, str) or not span_id):
                raise ServeError(f"'span_id' must be a non-empty string, got {span_id!r}")
            trace_parent = (trace_id, span_id or "client")
        query = None
        if op == "plan":
            payload = data.get("query", data)
            # ServeError is a QueryError sibling; normalize everything the
            # query layer raises into the protocol's error vocabulary.
            query = PlanQuery.from_dict(payload)
        return cls(
            op=op,
            query=query,
            tenant=tenant,
            request_id=request_id,
            include_plan=include_plan,
            trace_parent=trace_parent,
        )
