"""Single-flight: concurrent requests for one key share one execution.

:class:`AsyncSingleFlight` works on one asyncio event loop.  The serve
artifact registry uses ``do``, the leader/joiner protocol around an
async loader.  The micro-batcher uses ``share``/``get``/``release``: it
publishes the future for an in-flight batch so identical requests
attach to it.  Joiners await a :func:`asyncio.shield` of the shared
future so one cancelled joiner does not cancel the flight for everyone
else.

Every join increments ``cache.singleflight.joined``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Optional

from repro.obs import counter


class AsyncSingleFlight:
    """Asyncio single-flight over shared futures (single event loop).

    ``do`` is the whole leader/joiner protocol; the lower-level
    ``share``/``get``/``release`` triple exists for callers (the
    micro-batcher) that create and resolve the shared future
    themselves and only need the registry of in-flight keys.
    """

    def __init__(self) -> None:
        self._flights: Dict[Any, "asyncio.Future"] = {}

    # -- low-level registry ------------------------------------------------

    def get(self, key: Any) -> Optional["asyncio.Future"]:
        """The in-flight future for ``key``, or None.  Passive: the
        caller decides whether attaching counts as a join."""
        return self._flights.get(key)

    def share(self, key: Any, fut: "asyncio.Future") -> None:
        """Publish ``fut`` as the flight for ``key``."""
        self._flights[key] = fut

    def release(self, key: Any, fut: Optional["asyncio.Future"] = None) -> None:
        """Retire the flight for ``key`` (only if it is still ``fut``,
        when given — a newer flight for the same key stays)."""
        if fut is None or self._flights.get(key) is fut:
            self._flights.pop(key, None)

    def __len__(self) -> int:
        return len(self._flights)

    def __contains__(self, key: Any) -> bool:
        return key in self._flights

    # -- leader/joiner protocol --------------------------------------------

    async def do(
        self,
        key: Any,
        runner: Callable[[], Awaitable[Any]],
        on_join: Optional[Callable[[], None]] = None,
    ) -> Any:
        """Await ``runner()`` once per key; concurrent callers share the
        result.  ``on_join`` fires for each caller that attached to an
        existing flight (the registry counts these per-tier)."""
        fut = self._flights.get(key)
        if fut is not None:
            counter("cache.singleflight.joined").inc()
            if on_join is not None:
                on_join()
            return await asyncio.shield(fut)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._flights[key] = fut
        try:
            result = await runner()
        except BaseException as exc:
            if not fut.done():
                fut.set_exception(exc)
                # Joiners may already have been cancelled; retrieving
                # the exception here keeps the loop's "never retrieved"
                # warning out of the logs.
                fut.exception()
            raise
        else:
            if not fut.done():
                fut.set_result(result)
            return result
        finally:
            self.release(key, fut)
