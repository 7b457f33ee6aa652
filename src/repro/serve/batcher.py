"""Micro-batching dispatcher with dedup, single-flight, and admission.

The serving hot path.  Concurrent requests are coalesced into one batch
and evaluated together; identical queries — same content key — share a
single evaluation no matter how many clients asked (dedup inside the
open batch, single-flight against evaluations already running).  A
bounded admission count sheds excess load *before* it queues: shedding
answers fast with 429 + ``Retry-After`` instead of letting latency
collapse for everyone.

Mechanics per request (:meth:`MicroBatcher.submit`):

1. admission — if admitted-but-unresolved requests ≥ ``queue_limit``,
   raise :class:`AdmissionError` (the app turns it into a 429);
2. dedup — an identical query already collecting or already evaluating
   gets the existing future (``serve.batch.deduped``);
3. batching — otherwise the query joins the open batch, which flushes
   at the first of:

   * *nothing else pending* — the front end announces each model
     request it has read (:meth:`MicroBatcher.expect`) and ``submit``
     retires the announcement; once the open batch holds every
     announced request, nothing else can join it, so it flushes on the
     next event-loop tick (``loop.call_soon``: requests that became
     ready in the same tick still coalesce into one batch);
   * *window expiry* — the first entrant arms a ``window_s`` timer, the
     longest a batch waits for an announced request to arrive;
   * *size cap* — reaching ``max_batch`` *requests*, duplicate riders
     included, deliberately, so a full batch (even 64 copies of one
     query) never waits;

   ``serve.batch.window_ms`` records each request's time from
   ``submit`` to that flush;
4. evaluation — the flush hands the unique queries to the evaluator as
   one call (``serve.batch.evaluations`` counts unique queries
   evaluated; the acceptance bound "64 identical concurrent requests →
   ≤ 8 evaluations" is observable here via ``/metrics``).

The evaluator is an async callable ``(Dict[key, payload]) ->
Dict[key, result]``; a missing key or a raised exception fails every
waiter of that batch (the app maps it to a 500).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set

from repro.cache import AsyncSingleFlight
from repro.errors import ConfigurationError, ReproError
from repro.obs import counter, gauge, histogram, span

Evaluator = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]


class AdmissionError(ReproError):
    """Load shed: the admission queue is full.

    ``retry_after_s`` is the server's hint for the 429 ``Retry-After``
    header (a couple of batch windows — by then the current backlog has
    drained or the client should back off harder).
    """

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class BatcherClosed(ReproError):
    """Submit after shutdown."""


class MicroBatcher:
    def __init__(
        self,
        evaluate: Evaluator,
        window_s: float = 0.002,
        max_batch: int = 64,
        queue_limit: int = 256,
    ) -> None:
        if not (math.isfinite(window_s) and window_s >= 0):
            raise ConfigurationError("window_s must be finite and >= 0")
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        self._evaluate = evaluate
        self.window_s = window_s
        self.max_batch = max_batch
        self.queue_limit = queue_limit

        #: Open (collecting) batch: key -> payload / shared future.
        self._open: Dict[str, Any] = {}
        self._open_futures: Dict[str, asyncio.Future] = {}
        #: ``submit`` time of every request riding the open batch, dups
        #: included — ``max_batch`` caps THIS, so 64 identical waiters
        #: flush immediately instead of all paying the window for one
        #: unique evaluation.
        self._open_since: List[float] = []
        #: Tickets of announced requests: read by the front end, not yet
        #: submitted.  While any is out, the open batch waits for it (up
        #: to the window); once none is, nothing else can join.
        self._expected: Set[int] = set()
        self._tickets = itertools.count()
        #: Evaluations in flight (single-flight): the batcher publishes
        #: each flushed batch's futures here so identical submissions
        #: attach to the running evaluation.
        self._inflight = AsyncSingleFlight()
        #: Strong references to running batch tasks.  The event loop
        #: only keeps a weak reference to a task — a flush whose task
        #: nobody holds can be garbage-collected mid-evaluation and
        #: every waiter of that batch would hang until its deadline.
        self._tasks: Set[asyncio.Task] = set()
        self._pending_requests = 0
        #: The window timer (the upper bound) and the next-tick flush
        #: scheduled once nothing else is pending.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._soon: Optional[asyncio.Handle] = None
        self._closed = False

    # -- introspection ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Admitted requests not yet resolved (the admission measure)."""
        return self._pending_requests

    # -- submission ---------------------------------------------------------

    def expect(self) -> int:
        """Announce a request that has been read and will be submitted;
        the open batch waits for it (at most the window).  Returns the
        ticket that ``submit(..., ticket=...)`` or :meth:`retire` hands
        back."""
        ticket = next(self._tickets)
        self._expected.add(ticket)
        return ticket

    def retire(self, ticket: int) -> None:
        """Withdraw an announcement (idempotent): the request was
        submitted, or never will be."""
        if ticket in self._expected:
            self._expected.discard(ticket)
            self._flush_soon()

    async def submit(
        self, key: str, payload: Any, ticket: Optional[int] = None
    ) -> Any:
        """Resolve ``payload`` (content-addressed by ``key``) through the
        batcher; identical concurrent submissions share one evaluation.
        ``ticket`` is the request's :meth:`expect` announcement, retired
        here."""
        if ticket is not None:
            self.retire(ticket)
        if self._closed:
            raise BatcherClosed("batcher is shut down")
        if self._pending_requests >= self.queue_limit:
            counter("serve.shed").inc()
            raise AdmissionError(
                f"admission queue full ({self.queue_limit} in flight)",
                retry_after_s=max(2 * self.window_s, 0.05),
            )
        self._pending_requests += 1
        gauge("serve.queue.depth").set(self._pending_requests)
        counter("serve.batch.requests").inc()
        enqueued = time.perf_counter()
        try:
            fut = self._open_futures.get(key)
            if fut is not None:
                # Dedup within the open batch: ride it (and count toward
                # its size cap).
                counter("serve.batch.deduped").inc()
                self._ride_open_batch(enqueued)
            else:
                fut = self._inflight.get(key)
                if fut is not None:
                    # Single-flight: an identical evaluation is already
                    # running; share its future.
                    counter("serve.batch.deduped").inc()
                else:
                    fut = asyncio.get_running_loop().create_future()
                    self._open[key] = payload
                    self._open_futures[key] = fut
                    self._ride_open_batch(enqueued)
            # Shield: a cancelled waiter (deadline) must not kill the
            # evaluation other waiters share.
            result = await asyncio.shield(fut)
            histogram("serve.queue.wait_ms", unit="ms").observe(
                (time.perf_counter() - enqueued) * 1e3
            )
            return result
        finally:
            self._pending_requests -= 1
            gauge("serve.queue.depth").set(self._pending_requests)

    def _ride_open_batch(self, enqueued: float) -> None:
        self._open_since.append(enqueued)
        if len(self._open_since) >= self.max_batch:
            self._flush()
            return
        if self._timer is None:
            # A zero window fires on the next loop tick: a single submit
            # still goes through the one code path.
            self._timer = asyncio.get_running_loop().call_later(
                self.window_s, self._flush
            )
        self._flush_soon()

    # -- flush / evaluate ---------------------------------------------------

    def _flush_soon(self) -> None:
        """Flush on the next tick if no announced request is still on its
        way; the flush re-checks, as one may be announced meanwhile."""
        if self._open and not self._expected and self._soon is None:
            self._soon = asyncio.get_running_loop().call_soon(
                self._flush_if_nothing_pending
            )

    def _flush_if_nothing_pending(self) -> None:
        self._soon = None
        if not self._expected:
            self._flush()

    def _flush(self) -> None:
        for handle in (self._timer, self._soon):
            if handle is not None:
                handle.cancel()
        self._timer = self._soon = None
        if not self._open:
            return
        batch, futures = self._open, self._open_futures
        self._open, self._open_futures = {}, {}
        flushed = time.perf_counter()
        window = histogram("serve.batch.window_ms", unit="ms")
        for enqueued in self._open_since:
            window.observe((flushed - enqueued) * 1e3)
        self._open_since = []
        for key, fut in futures.items():
            self._inflight.share(key, fut)
        counter("serve.batch.batches").inc()
        histogram("serve.batch.size").observe(len(batch))
        task = asyncio.get_running_loop().create_task(
            self._run_batch(batch, futures)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(
        self, batch: Dict[str, Any], futures: Dict[str, asyncio.Future]
    ) -> None:
        try:
            with span("serve.batch.evaluate", category="serve",
                      size=len(batch)):
                results = await self._evaluate(batch)
            counter("serve.batch.evaluations").inc(len(batch))
            for key, fut in futures.items():
                if fut.done():
                    continue
                if key in results:
                    fut.set_result(results[key])
                else:
                    fut.set_exception(
                        ReproError(f"evaluator returned no result for {key}")
                    )
        except BaseException as e:  # noqa: BLE001 — fail every waiter
            for fut in futures.values():
                if not fut.done():
                    fut.set_exception(e)
        finally:
            for key, fut in futures.items():
                self._inflight.release(key, fut)
                # Swallow "exception never retrieved" for abandoned waiters.
                if fut.done() and fut.exception() is not None:
                    pass

    # -- lifecycle ----------------------------------------------------------

    async def close(self) -> None:
        """Refuse new work, flush and drain what was admitted."""
        self._closed = True
        self._flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
