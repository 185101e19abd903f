"""The planning daemon: hold live traffic against the planning service.

Three pieces:

* :mod:`repro.serve.protocol` — the wire format: newline-delimited JSON
  messages with length-guarded framing and a structured error vocabulary
  (``overloaded``, ``rate_limited``, ``bad_request``, ...).
* :mod:`repro.serve.daemon` — :class:`PlanDaemon`, the asyncio front end:
  TCP + Unix-domain listeners, a bounded admission queue with shedding,
  per-tenant token-bucket rate limits, warm-on-boot, SIGTERM drain, and
  ``serve.request`` root spans so wire trace ids land in plan provenance.
* :mod:`repro.serve.client` — :class:`PlanClient`, the blocking one-socket
  client that tests and scripts drive the daemon with.

Start one from the command line with ``repro-cli serve``; ``bench/run.py
--workload daemon_open_loop`` fires open-loop traffic at one.  Everything is
stdlib-only.
"""

from repro.serve.client import PlanClient
from repro.serve.daemon import (
    DaemonConfig,
    DaemonThread,
    PlanDaemon,
    TokenBucket,
    load_warm_queries,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ServeRequest,
    decode_message,
    encode_message,
    error_reply,
    ok_reply,
)

__all__ = [
    "MAX_LINE_BYTES",
    "ServeRequest",
    "encode_message",
    "decode_message",
    "error_reply",
    "ok_reply",
    "DaemonConfig",
    "TokenBucket",
    "PlanDaemon",
    "DaemonThread",
    "load_warm_queries",
    "PlanClient",
]
