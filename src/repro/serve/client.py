"""A small blocking client for the planning daemon.

:class:`PlanClient` owns one socket (TCP or Unix-domain) and speaks the
newline-delimited JSON protocol synchronously — the shape tests and ad-hoc
scripts want.  It is *not* thread-safe: one client per thread (a client is
one connection; the daemon multiplexes many connections, not many threads
on one connection).
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServeError
from repro.query import PlanQuery
from repro.serve.protocol import MAX_LINE_BYTES, decode_message, encode_message

__all__ = ["PlanClient"]


class PlanClient:
    """One blocking connection to a :class:`~repro.serve.daemon.PlanDaemon`.

    Exactly one of ``(host, port)`` or ``unix_path`` selects the transport.
    Replies longer than ``max_line_bytes`` abort the connection — the same
    bound the server applies to requests.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        timeout: float = 30.0,
        max_line_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        if unix_path is not None:
            if host is not None or port is not None:
                raise ServeError("pass host/port or unix_path, not both")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(unix_path)
            except BaseException:
                sock.close()
                raise
            self.address: Tuple[Any, ...] = (unix_path,)
        else:
            if host is None or port is None:
                raise ServeError("PlanClient needs host and port (or unix_path)")
            sock = socket.create_connection((host, port), timeout=timeout)
            self.address = (host, port)
        self._sock = sock
        self._buffer = b""
        self.max_line_bytes = max_line_bytes

    # ------------------------------------------------------------------ #
    # Framing
    # ------------------------------------------------------------------ #
    def _read_line(self) -> bytes:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line, self._buffer = self._buffer[: newline + 1], self._buffer[newline + 1:]
                return line
            if len(self._buffer) > self.max_line_bytes:
                raise ServeError(
                    f"reply exceeds {self.max_line_bytes} bytes without a newline"
                )
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ServeError("connection closed by the daemon")
            self._buffer += chunk

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message, block for one reply."""
        try:
            self._sock.sendall(encode_message(message))
            return decode_message(self._read_line())
        except socket.timeout:
            raise ServeError("daemon did not reply within the client timeout")
        except (BrokenPipeError, ConnectionResetError) as error:
            raise ServeError(f"connection to the daemon lost: {error}")

    def send_raw(self, payload: bytes) -> Dict[str, Any]:
        """Ship raw bytes and read one reply (protocol tests)."""
        self._sock.sendall(payload)
        return decode_message(self._read_line())

    # ------------------------------------------------------------------ #
    # Ops
    # ------------------------------------------------------------------ #
    def plan(
        self,
        query: PlanQuery,
        tenant: Optional[str] = None,
        include_plan: bool = False,
        request_id: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Answer one query; returns the raw reply dict (check ``"ok"``).

        ``include_plan=False`` by default: monitoring callers want the
        provenance and the headline numbers, not the full ranked plan (whose
        programs are indices into its ``"steps"`` table; see
        :mod:`repro.serve.protocol`).
        """
        message: Dict[str, Any] = {"op": "plan", "query": query.to_dict()}
        if tenant is not None:
            message["tenant"] = tenant
        if request_id is not None:
            message["id"] = request_id
        if trace_id is not None:
            message["trace_id"] = trace_id
        message["include_plan"] = include_plan
        return self.request(message)

    def ping(self) -> Dict[str, Any]:
        reply = self.request({"op": "ping"})
        if not reply.get("ok"):
            raise ServeError(f"ping failed: {reply}")
        return reply

    def stats(self) -> Dict[str, Any]:
        """The daemon's live telemetry snapshot (``repro.obs/1`` schema)."""
        reply = self.request({"op": "stats"})
        if not reply.get("ok"):
            raise ServeError(f"stats failed: {reply}")
        return reply["snapshot"]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "PlanClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
