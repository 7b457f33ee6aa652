"""Micro-batching dispatcher: coalescing, dedup, admission, failure."""

import asyncio
import time

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.obs import metrics_snapshot, reset_metrics
from repro.serve.batcher import AdmissionError, BatcherClosed, MicroBatcher


def run(coro):
    return asyncio.run(coro)


class Recorder:
    """Evaluator double: records every batch it was handed."""

    def __init__(self, delay_s=0.0, fail_keys=()):
        self.batches = []
        self.delay_s = delay_s
        self.fail_keys = set(fail_keys)

    async def __call__(self, batch):
        self.batches.append(dict(batch))
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        for key in batch:
            if key in self.fail_keys:
                raise ReproError(f"evaluator refused {key}")
        return {key: f"result:{payload}" for key, payload in batch.items()}

    @property
    def evaluated(self):
        return sum(len(b) for b in self.batches)


class TestValidation:
    def test_rejects_nonsense_parameters(self):
        async def go():
            for kw in (
                {"window_s": -1},
                {"window_s": float("nan")},
                {"window_s": float("inf")},
                {"max_batch": 0},
                {"queue_limit": 0},
            ):
                with pytest.raises(ConfigurationError):
                    MicroBatcher(Recorder(), **kw)

        run(go())


class TestCoalescing:
    def test_distinct_queries_share_one_batch(self):
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=0.01)
            results = await asyncio.gather(
                *(b.submit(f"k{i}", f"p{i}") for i in range(5))
            )
            await b.close()
            return results

        results = run(go())
        assert results == [f"result:p{i}" for i in range(5)]
        assert len(rec.batches) == 1 and len(rec.batches[0]) == 5

    def test_identical_queries_evaluate_once(self):
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=0.01)
            results = await asyncio.gather(
                *(b.submit("same", "payload") for _ in range(32))
            )
            await b.close()
            return results

        results = run(go())
        assert set(results) == {"result:payload"}
        assert rec.evaluated == 1

    def test_full_batch_of_duplicates_flushes_before_window(self):
        """max_batch caps *requests* (dups included): a full batch of
        identical queries must not sit out a long window."""
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=5.0, max_batch=8)
            t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
            await asyncio.gather(*(b.submit("same", "p") for _ in range(8)))
            elapsed = time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result
            await b.close()
            return elapsed

        assert run(go()) < 1.0
        assert rec.evaluated == 1

    def test_single_flight_joins_running_evaluation(self):
        rec = Recorder(delay_s=0.05)

        async def go():
            b = MicroBatcher(rec, window_s=0.0)
            first = asyncio.create_task(b.submit("k", "p"))
            await asyncio.sleep(0.01)  # evaluation now in flight
            second = await b.submit("k", "p")
            await b.close()
            return await first, second

        assert run(go()) == ("result:p", "result:p")
        assert rec.evaluated == 1

    def test_window_zero_still_answers(self):
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=0.0, max_batch=1)
            result = await b.submit("k", "p")
            await b.close()
            return result

        assert run(go()) == "result:p"


class TestEarlyFlush:
    """The open batch flushes once it holds every announced request —
    nothing else can join it — and ``window_s`` is only the upper
    bound."""

    def test_lone_submit_does_not_wait_out_the_window(self):
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=5.0)
            t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
            result = await b.submit("k", "p")
            elapsed = time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result
            await b.close()
            return result, elapsed

        result, elapsed = run(go())
        assert result == "result:p"
        assert elapsed < 1.0, f"a lone request waited {elapsed:.2f}s"

    def test_announced_request_holds_the_batch_until_it_joins(self):
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=5.0)
            ticket = b.expect()  # read, not yet submitted
            first = asyncio.create_task(b.submit("a", "pa"))
            await asyncio.sleep(0.05)
            held = not first.done() and not rec.batches
            t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
            second = await b.submit("b", "pb", ticket)
            elapsed = time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result
            results = (await first, second)
            await b.close()
            return held, results, elapsed

        held, results, elapsed = run(go())
        assert held, "the batch flushed while an announced request was out"
        assert results == ("result:pa", "result:pb")
        assert elapsed < 1.0
        assert len(rec.batches) == 1 and set(rec.batches[0]) == {"a", "b"}

    def test_announced_before_the_scheduled_flush_runs_still_joins(self):
        """The next-tick flush re-checks: a request read in the tick
        between the last submit and the flush holds the batch too."""
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=5.0)
            first = asyncio.create_task(b.submit("a", "pa"))
            await asyncio.sleep(0)  # "a" joined; a flush is scheduled
            ticket = b.expect()
            await asyncio.sleep(0.05)
            held = not first.done()
            second = await b.submit("b", "pb", ticket)
            results = (await first, second)
            await b.close()
            return held, results

        held, results = run(go())
        assert held
        assert results == ("result:pa", "result:pb")
        assert len(rec.batches) == 1 and set(rec.batches[0]) == {"a", "b"}

    def test_request_answered_without_submit_never_holds_a_batch(self):
        """A ``/healthz``-style request is never announced; one that was
        but never reaches ``submit`` (a deadline of zero, shutdown)
        retires its ticket, and the open batch flushes at once."""
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=5.0)
            ticket = b.expect()
            waiter = asyncio.create_task(b.submit("k", "p"))
            await asyncio.sleep(0.01)
            held = not waiter.done()
            t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
            b.retire(ticket)
            b.retire(ticket)  # idempotent
            result = await waiter
            elapsed = time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result
            await b.close()
            return held, result, elapsed

        held, result, elapsed = run(go())
        assert held and result == "result:p"
        assert elapsed < 1.0

    def test_single_flight_rider_does_not_hold_the_batch(self):
        """A request riding a running evaluation retires its ticket on
        ``submit``: the next open batch flushes without waiting."""
        rec = Recorder(delay_s=0.05)

        async def go():
            b = MicroBatcher(rec, window_s=5.0)
            running = asyncio.create_task(b.submit("k", "p"))
            await asyncio.sleep(0.01)  # "k" is evaluating
            rider, other = b.expect(), b.expect()
            riding = asyncio.create_task(b.submit("k", "p", rider))
            t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
            late = await b.submit("j", "q", other)
            elapsed = time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result
            results = (await running, await riding, late)
            await b.close()
            return results, elapsed

        results, elapsed = run(go())
        assert results == ("result:p", "result:p", "result:q")
        assert elapsed < 1.0
        assert rec.evaluated == 2

    def test_window_metric_counts_batch_members_not_riders(self):
        """``serve.batch.window_ms``: one sample per request that joined
        a flushed batch (dedup riders included), none for a request that
        rode a running evaluation."""
        reset_metrics()
        rec = Recorder(delay_s=0.05)

        async def go():
            b = MicroBatcher(rec, window_s=0.01)
            first = asyncio.gather(b.submit("k", "p"), b.submit("k", "p"))
            await asyncio.sleep(0.02)  # flushed; "k" is evaluating
            await b.submit("k", "p")  # single-flight rider
            await first
            await b.close()

        run(go())
        metrics = metrics_snapshot()
        assert metrics["serve.batch.window_ms"]["count"] == 2
        assert metrics["serve.queue.wait_ms"]["count"] == 3


class TestAdmission:
    def test_overload_sheds_with_retry_hint(self):
        rec = Recorder(delay_s=0.05)

        async def go():
            b = MicroBatcher(rec, window_s=0.0, max_batch=1, queue_limit=2)
            admitted = [
                asyncio.create_task(b.submit(f"k{i}", "p")) for i in range(2)
            ]
            await asyncio.sleep(0.01)  # both occupy the admission budget
            with pytest.raises(AdmissionError) as exc:
                await b.submit("k-over", "p")
            assert exc.value.retry_after_s > 0
            results = await asyncio.gather(*admitted)
            await b.close()
            return results

        assert run(go()) == ["result:p", "result:p"]

    def test_depth_returns_to_zero(self):
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=0.0)
            await asyncio.gather(*(b.submit(f"k{i}", "p") for i in range(4)))
            depth = b.depth
            await b.close()
            return depth

        assert run(go()) == 0


class TestFailure:
    def test_evaluator_exception_fails_every_waiter(self):
        rec = Recorder(fail_keys={"bad"})

        async def go():
            b = MicroBatcher(rec, window_s=0.01)
            results = await asyncio.gather(
                b.submit("bad", "p"),
                b.submit("bad", "p"),
                return_exceptions=True,
            )
            await b.close()
            return results

        results = run(go())
        assert all(isinstance(r, ReproError) for r in results)

    def test_missing_result_key_is_an_error(self):
        async def forgetful(batch):
            return {}

        async def go():
            b = MicroBatcher(forgetful, window_s=0.0)
            with pytest.raises(ReproError, match="no result"):
                await b.submit("k", "p")
            await b.close()

        run(go())

    def test_cancelled_waiter_does_not_kill_shared_evaluation(self):
        rec = Recorder(delay_s=0.05)

        async def go():
            b = MicroBatcher(rec, window_s=0.01)
            doomed = asyncio.create_task(b.submit("k", "p"))
            survivor = asyncio.create_task(b.submit("k", "p"))
            await asyncio.sleep(0.02)
            doomed.cancel()
            result = await survivor
            await b.close()
            return result

        assert run(go()) == "result:p"

    def test_submit_after_close_raises(self):
        async def go():
            b = MicroBatcher(Recorder(), window_s=0.0)
            await b.close()
            with pytest.raises(BatcherClosed):
                await b.submit("k", "p")

        run(go())


class TestTaskReferences:
    """The flush task must be strongly held until it completes.

    The event loop keeps only a weak reference to tasks
    (``create_task`` docs); without ``_tasks`` a garbage-collection
    pass during evaluation could collect the batch task and leave
    every waiter hanging.  Regression for the ASY003 lint finding.
    """

    def test_flush_task_is_held_then_discarded(self):
        rec = Recorder(delay_s=0.02)

        async def go():
            b = MicroBatcher(rec, window_s=0.0)
            waiter = asyncio.create_task(b.submit("k", "p"))
            await asyncio.sleep(0.005)  # flush ran, evaluation pending
            held = len(b._tasks)
            import gc

            gc.collect()  # must not collect the in-flight batch task
            result = await waiter
            await asyncio.sleep(0)  # let done-callbacks run
            return held, len(b._tasks), result

        held, after, result = run(go())
        assert held == 1
        assert after == 0
        assert result == "result:p"

    def test_close_with_armed_window_timer_flushes_immediately(self):
        """close() racing an armed window timer: the open batch must
        flush *now*, not after the (possibly multi-second) window, and
        the cancelled timer handle must be dropped."""
        rec = Recorder()

        async def go():
            b = MicroBatcher(rec, window_s=5.0)
            # An announced request still on its way keeps the batch open.
            b.expect()
            waiter = asyncio.create_task(b.submit("k", "p"))
            await asyncio.sleep(0.01)  # timer armed, window wide open
            assert b._timer is not None
            t0 = time.perf_counter()  # repro: noqa[DET001] — latency bound, not a result
            await b.close()
            elapsed = time.perf_counter() - t0  # repro: noqa[DET001] — latency bound, not a result
            assert b._timer is None
            return await waiter, elapsed

        result, elapsed = run(go())
        assert result == "result:p"
        assert elapsed < 1.0, f"close waited out the window ({elapsed:.2f}s)"
        assert rec.evaluated == 1

    def test_submit_racing_close_rejects_but_inflight_completes(self):
        """The shutdown race behind the 503 bugfix: a submit landing
        after close() raises BatcherClosed, while the batch already in
        flight still delivers its results."""
        rec = Recorder(delay_s=0.05)

        async def go():
            b = MicroBatcher(rec, window_s=0.0)
            inflight = asyncio.create_task(b.submit("k", "p"))
            await asyncio.sleep(0.01)  # evaluation running
            closer = asyncio.create_task(b.close())
            await asyncio.sleep(0)  # close() has marked the batcher
            with pytest.raises(BatcherClosed):
                await b.submit("late", "p")
            await closer
            return await inflight

        assert run(go()) == "result:p"
        assert rec.evaluated == 1  # the late request never ran

    def test_deadline_cancelled_waiter_leaves_evaluation_joinable(self):
        """A waiter that times out (asyncio.wait_for cancels it) must
        not poison the shared evaluation: a later identical submit
        still joins the in-flight batch and gets the result, and the
        evaluator runs exactly once."""
        rec = Recorder(delay_s=0.05)

        async def go():
            b = MicroBatcher(rec, window_s=0.0)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(b.submit("k", "p"), timeout=0.01)
            # The evaluation is still in flight; join it.
            result = await b.submit("k", "p")
            await b.close()
            return result

        assert run(go()) == "result:p"
        assert rec.evaluated == 1

    def test_close_drains_running_batches(self):
        rec = Recorder(delay_s=0.02)

        async def go():
            b = MicroBatcher(rec, window_s=0.05)
            waiters = [
                asyncio.create_task(b.submit(f"k{i}", f"p{i}"))
                for i in range(3)
            ]
            await asyncio.sleep(0)
            await b.close()  # flushes the open window and drains
            assert not b._tasks
            return await asyncio.gather(*waiters)

        assert run(go()) == [f"result:p{i}" for i in range(3)]
