"""Fault tolerance: retries, crash recovery, timeouts, graceful failure.

The acceptance gate: an injected worker crash is retried and, when the
attempts are exhausted, reported FAILED — without aborting the rest of
the run.
"""

import multiprocessing
import time

import pytest

from repro.errors import ReproError
from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.obs import disable_tracing, enable_tracing
from repro.runtime import (
    RetryPolicy,
    TaskStatus,
    execute,
    parse_fault_spec,
    plan_run,
)
from repro.runtime.supervisor import FAULT_ENV, FaultInjected, faults_from_env
from repro.runtime.task import TaskSpec

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

KW = {"iterations": 6}


class TestRetryPolicy:
    def test_defaults(self):
        p = RetryPolicy()
        assert p.max_attempts == 2
        assert p.should_retry(1) and not p.should_retry(2)

    def test_backoff_grows_exponentially(self):
        p = RetryPolicy(backoff_s=0.1, backoff_factor=2.0)
        assert p.backoff(1) == pytest.approx(0.1)
        assert p.backoff(2) == pytest.approx(0.2)
        assert p.backoff(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ReproError):
                RetryPolicy(timeout_s=bad)


class TestFaultSpecs:
    def test_parse(self):
        faults = parse_fault_spec("fig4:1,fig6:2:crash")
        assert faults == {"fig4": (1, "raise"), "fig6": (2, "crash")}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ReproError):
            parse_fault_spec("fig4")
        with pytest.raises(ReproError):
            parse_fault_spec("fig4:x")
        with pytest.raises(ReproError):
            parse_fault_spec("fig4:1:segfault")

    def test_env_hook(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "fig5:3")
        assert faults_from_env() == {"fig5": (3, "raise")}
        monkeypatch.delenv(FAULT_ENV)
        assert faults_from_env() == {}

    def test_injection_trips_until_attempts_exceed(self):
        from repro.runtime.supervisor import maybe_inject_fault

        spec = TaskSpec("x", attempt=1, inject_failures=2)
        with pytest.raises(FaultInjected):
            maybe_inject_fault(spec)
        spec = TaskSpec("x", attempt=3, inject_failures=2)
        maybe_inject_fault(spec)  # no raise


#: The shared supervision cases run once in-process and once on a pool.
JOBS = pytest.mark.parametrize(
    "jobs",
    [1, pytest.param(2, marks=pytest.mark.skipif(
        not HAVE_FORK, reason="needs fork start method"))],
    ids=lambda jobs: f"jobs{jobs}",
)

#: Each sleep experiment takes SLEEP_S; two back to back exceed the
#: per-attempt budget, one alone fits it comfortably.
SLEEP_S = 0.6
SLEEP_IDS = ["sleep_a", "sleep_b", "sleep_c"]


def _sleeper(exp_id):
    def run(**_kwargs):
        time.sleep(SLEEP_S)
        return ExperimentResult(exp_id, "sleep", ["slept_s"],
                                rows=[{"slept_s": SLEEP_S}])
    return run


@pytest.fixture
def sleep_experiments(monkeypatch):
    """Three registered sleep experiments; forked workers inherit them."""
    for eid in SLEEP_IDS:
        monkeypatch.setitem(registry._REGISTRY, eid, _sleeper(eid))
    return SLEEP_IDS


@pytest.fixture
def tracer():
    tracer = enable_tracing()
    tracer.clear()
    try:
        yield tracer
    finally:
        disable_tracing()
        tracer.clear()


@JOBS
class TestSupervision:
    def test_transient_fault_is_retried_to_success(self, jobs):
        report = execute(plan_run(
            ["fig5"], KW, jobs=jobs, retries=1, no_cache=True,
            progress=False, faults={"fig5": (1, "raise")}))
        out = report.outcome("fig5")
        assert out.status is TaskStatus.DONE
        assert out.attempts == 2
        assert report.manifest.retries == 1
        assert not report.failed

    def test_exhausted_fault_fails_without_aborting_run(self, jobs):
        report = execute(plan_run(
            ["fig5", "fig9"], KW, jobs=jobs, retries=1, no_cache=True,
            progress=False, faults={"fig5": (99, "raise")}))
        bad = report.outcome("fig5")
        good = report.outcome("fig9")
        assert bad.status is TaskStatus.FAILED
        assert "FaultInjected" in (bad.traceback or "")
        assert bad.attempts == 2
        assert good.status is TaskStatus.DONE
        assert report.failed
        assert report.manifest.failed == 1

    def test_failed_experiments_never_cached(self, jobs, tmp_path):
        cache = str(tmp_path / "cache")
        execute(plan_run(
            ["fig5"], KW, jobs=jobs, retries=0, cache_dir=cache,
            progress=False, faults={"fig5": (99, "raise")}))
        # The failure must not poison the cache: a clean run recomputes.
        clean = execute(plan_run(
            ["fig5"], KW, jobs=jobs, cache_dir=cache, progress=False))
        assert clean.outcome("fig5").status is TaskStatus.DONE

    def test_timeout_marks_task_timeout(self, jobs, sleep_experiments):
        # One sleeper outlasts the 0.1 s budget (and the scheduler's poll
        # interval) by construction, whatever the host's speed.
        eid = sleep_experiments[0]
        report = execute(plan_run(
            [eid], jobs=jobs, retries=0,
            timeout=0.1, no_cache=True, progress=False))
        out = report.outcome(eid)
        assert out.status is TaskStatus.TIMEOUT
        assert "timeout" in (out.error or "")
        assert report.failed

    def test_attempt_timed_from_free_slot_not_from_queue(
        self, jobs, sleep_experiments
    ):
        """More tasks than workers: a task that waits for a slot has not
        started, so the wait does not count against its budget."""
        report = execute(plan_run(
            sleep_experiments, jobs=jobs, retries=0, timeout=1.0,
            no_cache=True, progress=False))
        assert [o.status for o in report.outcomes] == [TaskStatus.DONE] * 3
        assert all(o.attempts == 1 for o in report.outcomes)


class TestSerialSupervision:
    def test_crash_kind_demoted_in_serial_mode(self):
        # A hard exit would take down the caller; serial demotes to raise.
        report = execute(plan_run(
            ["fig5"], KW, retries=1, no_cache=True, progress=False,
            faults={"fig5": (1, "crash")}))
        assert report.outcome("fig5").status is TaskStatus.DONE

    def test_env_fault_spec_applies(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "fig5:1")
        report = execute(plan_run(
            ["fig5"], KW, retries=1, no_cache=True, progress=False))
        assert report.outcome("fig5").attempts == 2

    def test_experiment_spans_nest_under_live_task_span(self, tracer):
        ids = ["fig4", "fig5"]
        report = execute(plan_run(ids, KW, no_cache=True, progress=False))
        assert not report.failed
        spans = tracer.spans()
        for eid in ids:
            (task,) = [s for s in spans if s.name == f"task:{eid}"]
            inside = [s for s in spans if s.name == "bench.collect"
                      and task.start_ns <= s.start_ns
                      and s.end_ns <= task.end_ns]
            assert inside and all(s.tid == task.tid for s in inside)
        collects = [s for s in spans if s.name == "bench.collect"]
        tasks = [s for s in spans if s.name.startswith("task:")]
        assert all(
            any(t.start_ns <= c.start_ns and c.end_ns <= t.end_ns
                for t in tasks)
            for c in collects
        )


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
class TestParallelSupervision:
    def test_worker_crash_recovered(self):
        """A hard worker exit (os._exit) breaks the pool; the scheduler
        rebuilds it and retries — the run completes."""
        report = execute(plan_run(
            ["fig5", "fig9"], KW, jobs=2, retries=3, no_cache=True,
            progress=False, faults={"fig5": (1, "crash")}))
        assert report.outcome("fig5").status is TaskStatus.DONE
        assert report.outcome("fig5").attempts >= 2
        assert report.outcome("fig9").status is TaskStatus.DONE

    def test_worker_crash_exhausts_to_failed(self):
        report = execute(plan_run(
            ["fig5", "fig9"], KW, jobs=2, retries=1, no_cache=True,
            progress=False, faults={"fig5": (99, "crash")}))
        assert report.outcome("fig5").status is TaskStatus.FAILED
        assert "crash" in (report.outcome("fig5").error or "")
        # The innocent bystander still completes (possibly after a
        # collateral retry when the shared pool broke under it).
        assert report.outcome("fig9").status is TaskStatus.DONE

    def test_one_task_span_per_attempt_on_its_own_track(self, tracer):
        report = execute(plan_run(
            ["fig5", "fig9"], KW, jobs=2, retries=1, no_cache=True,
            progress=False, faults={"fig5": (1, "raise")}))
        assert not report.failed
        spans = tracer.spans()
        fig5 = [s for s in spans if s.name == "task:fig5"]
        fig9 = [s for s in spans if s.name == "task:fig9"]
        assert [s.attrs["attempt"] for s in fig5] == [1, 2]
        assert [s.attrs["ok"] for s in fig5] == [False, True]
        assert len(fig9) == 1
        tracks = {s.tid for s in fig5} | {s.tid for s in fig9}
        assert len({s.tid for s in fig5}) == 1 and len(tracks) == 2
        assert 0 not in tracks

    def test_timed_out_attempt_holds_its_slot_until_it_settles(
        self, tracer, sleep_experiments
    ):
        """A worker still running an expired attempt is not free: the
        third task starts only once one of the first two has settled."""
        report = execute(plan_run(
            sleep_experiments, jobs=2, retries=0, timeout=0.2,
            no_cache=True, progress=False))
        assert ([o.status for o in report.outcomes]
                == [TaskStatus.TIMEOUT] * 3)
        start = {s.name: s.start_ns for s in tracer.spans()
                 if s.name.startswith("task:")}
        first = min(start["task:sleep_a"], start["task:sleep_b"])
        assert start["task:sleep_c"] - first >= 0.9 * SLEEP_S * 1e9
