"""A test harness that runs the planning daemon in-process.

:class:`DaemonThread` starts a :class:`~repro.serve.daemon.PlanDaemon` on a
background thread with its own event loop, so a test can drive it through a
:class:`~repro.serve.client.PlanClient` and stop it with a drain.  The
package itself serves only through ``repro-cli serve``.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Tuple

from repro.errors import ServeError
from repro.serve.daemon import DaemonConfig, PlanDaemon


class DaemonThread:
    """Run a :class:`PlanDaemon` on a background thread with its own loop.

    The daemon's tests embed it so::

        with DaemonThread(service, config) as handle:
            client = PlanClient(*handle.address)
            ...

    ``stop(drain=True)`` (or context-manager exit) drains and joins.
    """

    def __init__(self, service, config: Optional[DaemonConfig] = None, recorder=None) -> None:
        self.service = service
        self.config = config if config is not None else DaemonConfig()
        self.recorder = recorder
        self.daemon: Optional[PlanDaemon] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "DaemonThread":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-daemon", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("daemon thread did not start within 30s")
        if self._startup_error is not None:
            raise ServeError(f"daemon failed to start: {self._startup_error}")
        return self

    def _thread_main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_event_loop()
        self.daemon = PlanDaemon(self.service, self.config, recorder=self.recorder)
        try:
            await self.daemon.start()
        except BaseException as error:  # surface bind errors to the caller
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self.daemon.wait_closed()

    @property
    def address(self) -> Tuple[str, int]:
        assert self.daemon is not None and self.daemon.tcp_address is not None
        return self.daemon.tcp_address

    def stop(self, drain: bool = True) -> None:
        if self.daemon is None or self._loop is None or self._thread is None:
            return
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.shutdown(drain=drain), self._loop
        )
        future.result(timeout=self.config.drain_timeout_s + 10)
        self._thread.join(timeout=10)

    def __enter__(self) -> "DaemonThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
