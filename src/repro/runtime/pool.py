"""Dependency-aware parallel scheduler for the experiment suite.

Execution proceeds in two phases:

1. **Warm-up** — the declared :class:`CharacterizationNeed` bundles of
   all scheduled experiments are deduplicated and computed once each
   (in parallel), populating the shared on-disk characterization cache.
2. **Fan-out** — experiments run with at most ``jobs`` attempts in
   flight; each attempt opens the characterization cache *read-only*,
   so the cache hit/miss pattern — and therefore every RNG draw an
   experiment makes — is a pure function of the declared needs, never
   of scheduling order.  That is what makes ``--jobs 8`` byte-identical
   to ``--jobs 1``.

One supervision loop serves every ``--jobs`` value.  ``--jobs N`` runs
attempts on a process pool; ``--jobs 1`` runs them on an in-process
executor that runs each attempt as it is submitted, inside its live
``task:<id>`` span.  An attempt is submitted only when a slot is free,
so its timeout clock starts when it can actually run.

Each experiment seeds its own RNG and shares no mutable state with its
siblings, so results are position-independent; the report re-assembles
outcomes in the originally requested order.

Fault tolerance (per-attempt timeout, bounded retry with exponential
backoff, crash recovery) follows the :class:`RetryPolicy`; a task that
exhausts its attempts is reported FAILED with its traceback and the run
continues — the caller decides (via :attr:`RunReport.failed`) to exit
non-zero at the end.
"""

from __future__ import annotations

# repro: noqa-file[DET001] — every wall-clock read in this module is
# run telemetry (manifest timestamps, task durations, retry backoff
# deadlines).  Experiment *results* never see these values: workers
# compute on seeded RNGs and the characterization cache, which is why
# --jobs N stays byte-identical to serial.

import collections
import concurrent.futures
import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments import registry
from repro.experiments._collectives import shared_points
from repro.obs import counter, get_tracer, histogram, metrics_snapshot, span
from repro.runtime.cache import (
    CharacterizationCache,
    ResultCache,
    default_cache_dir,
    fingerprint,
    use_characterization_cache,
)
from repro.runtime.progress import ProgressPrinter, RunManifest
from repro.runtime.supervisor import (
    RetryPolicy,
    faults_from_env,
    maybe_inject_fault,
    note_retry,
)
from repro.runtime.task import (
    CharacterizationNeed,
    TaskOutcome,
    TaskSpec,
    TaskStatus,
    resolved_kwargs,
)


# ---------------------------------------------------------------------------
# Worker-side entry points (top-level so they pickle under any start method).
# ---------------------------------------------------------------------------


def _failure(duration_s: float, error) -> Dict[str, Any]:
    """The payload of an attempt (or warm-up) that did not succeed;
    ``error`` is a message, or the exception being handled."""
    tb = None
    if isinstance(error, Exception):
        error, tb = f"{type(error).__name__}: {error}", traceback.format_exc()
    return {"ok": False, "error": error, "traceback": tb,
            "duration_s": duration_s}


def _char_cache_for(spec: TaskSpec) -> Optional[CharacterizationCache]:
    # Attempts never write the characterization cache: hit/miss must not
    # depend on scheduling order.
    if not spec.char_cache_dir:
        return None
    return CharacterizationCache(spec.char_cache_dir, read_only=True)


def _run_experiment_task(spec: TaskSpec) -> Dict[str, Any]:
    """Run one experiment in the current process; never raises."""
    t0 = time.perf_counter()
    try:
        maybe_inject_fault(spec)
        runner = registry.get(spec.exp_id)
        with use_characterization_cache(_char_cache_for(spec)):
            result = runner(**spec.kwargs)
        return {
            "ok": True,
            "result": result,
            "duration_s": time.perf_counter() - t0,
        }
    except Exception as exc:
        return _failure(time.perf_counter() - t0, exc)


def _run_warmup_task(
    need: CharacterizationNeed, cache_dir: str
) -> Dict[str, Any]:
    """Compute one characterization bundle into the shared cache."""
    t0 = time.perf_counter()
    try:
        from repro.bench.suite import characterize
        from repro.machine.machine import KNLMachine

        cache = CharacterizationCache(cache_dir, read_only=False)
        key = CharacterizationCache.key_for_need(need)
        if not cache.has(key):
            machine = KNLMachine(need.config, seed=need.machine_seed)
            characterize(
                machine,
                iterations=need.iterations,
                seed=need.char_seed,
                thread_counts=need.thread_counts,
                include_sweeps=need.include_sweeps,
                cache=cache,
            )
        return {"ok": True, "duration_s": time.perf_counter() - t0}
    except Exception as exc:
        return _failure(time.perf_counter() - t0, exc)


# ---------------------------------------------------------------------------
# Plan / report
# ---------------------------------------------------------------------------


@dataclass
class RunPlan:
    """A fully specified engine run (what to execute, and how)."""

    ids: List[str]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    jobs: int = 1
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Root cache directory, or None to disable all caching.
    cache_dir: Optional[str] = None
    #: Recompute even on a result-cache hit (and overwrite the entry).
    refresh: bool = False
    #: exp_id → (n_failures, "raise"|"crash") fault-injection map.
    faults: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    progress: bool = True


def plan_run(
    ids,
    kwargs: Optional[Dict[str, Any]] = None,
    jobs: int = 1,
    no_cache: bool = False,
    cache_dir: Optional[str] = None,
    refresh: bool = False,
    timeout: Optional[float] = None,
    retries: int = 1,
    faults: Optional[Dict[str, Tuple[int, str]]] = None,
    progress: bool = True,
) -> RunPlan:
    """Convenience constructor mirroring the CLI flags."""
    return RunPlan(
        ids=list(ids),
        kwargs=dict(kwargs or {}),
        jobs=max(1, int(jobs)),
        retry=RetryPolicy(max_attempts=1 + max(0, retries),
                          timeout_s=timeout),
        cache_dir=None if no_cache else (cache_dir or default_cache_dir()),
        refresh=refresh,
        faults=dict(faults or {}),
        progress=progress,
    )


@dataclass
class RunReport:
    """Ordered outcomes plus the manifest of one engine run."""

    outcomes: List[TaskOutcome]
    manifest: RunManifest

    @property
    def failed(self) -> bool:
        return any(not o.ok for o in self.outcomes)

    def outcome(self, exp_id: str) -> TaskOutcome:
        for o in self.outcomes:
            if o.exp_id == exp_id:
                return o
        raise KeyError(exp_id)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class _InlineExecutor(concurrent.futures.Executor):
    """``--jobs 1``: runs each call in this process as it is submitted.

    An experiment attempt runs inside its live ``task:<id>`` span, so
    the spans it opens nest under it, and a ``crash`` fault is demoted
    to ``raise`` — a hard exit would take down the caller.
    """

    def submit(self, fn, *args):
        fut: concurrent.futures.Future = concurrent.futures.Future()
        if fn is _run_experiment_task:
            spec = replace(args[0], inject_kind="raise")
            with span(f"task:{spec.exp_id}", category="task",
                      attempt=spec.attempt) as sp:
                payload = fn(spec)
                sp.set(ok=payload["ok"])
        else:
            payload = fn(*args)
        fut.set_result(payload)
        return fut


def _executor(workers: int) -> concurrent.futures.Executor:
    """A process pool with ``workers`` slots; in-process for one."""
    if workers <= 1:
        return _InlineExecutor()
    return ProcessPoolExecutor(max_workers=workers, mp_context=_mp_context())


def _rel_ns(t_perf_s: float) -> int:
    """``time.perf_counter()`` seconds → ns relative to the tracer epoch.

    The supervision loop observes pool attempts as (submit time, settle
    time) pairs in the parent process; this converts them to the
    tracer's clock so they can be recorded as spans after the fact.
    """
    return int(t_perf_s * 1e9) - get_tracer().epoch_ns


def _collect_needs(
    specs: List[Tuple[TaskSpec, Optional[str]]],
    plan: RunPlan,
    char_cache: CharacterizationCache,
) -> List[CharacterizationNeed]:
    """Deduplicated, not-yet-cached needs of every scheduled task."""
    needs: List[CharacterizationNeed] = []
    seen = set()
    for spec, _ in specs:
        runner = registry.get(spec.exp_id)
        rk = resolved_kwargs(runner, plan.kwargs)
        for need in registry.needs_for(spec.exp_id, rk):
            key = CharacterizationCache.key_for_need(need)
            if key in seen or char_cache.has(key):
                continue
            seen.add(key)
            needs.append(need)
    return needs


def execute(plan: RunPlan) -> RunReport:
    """Run a plan to completion and return every task's outcome."""
    printer = ProgressPrinter(enabled=plan.progress)
    manifest = RunManifest(
        jobs=plan.jobs,
        # Absolute timestamp only — never differenced.  Every duration
        # in this module (wall_s below, per-task duration_s, backoff
        # deadlines) comes from time.perf_counter(), so an NTP step
        # mid-run cannot corrupt them (the bug class ProgressPrinter
        # fixed by moving to time.monotonic()).
        started_at=time.time(),
        cache_enabled=plan.cache_dir is not None,
    )
    t_start = time.perf_counter()

    # Resolve every runner up front: an unknown id aborts before any work.
    runners = {eid: registry.get(eid) for eid in plan.ids}

    faults = dict(faults_from_env())
    faults.update(plan.faults)

    result_cache = (
        ResultCache(plan.cache_dir) if plan.cache_dir is not None else None
    )

    outcomes: Dict[str, TaskOutcome] = {}
    specs: List[Tuple[TaskSpec, Optional[str]]] = []
    for eid in plan.ids:
        key = None
        if result_cache is not None:
            key = result_cache.key_for(eid, resolved_kwargs(
                runners[eid], plan.kwargs))
            if not plan.refresh:
                hit = result_cache.get(key)
                if hit is not None:
                    outcomes[eid] = TaskOutcome(
                        exp_id=eid,
                        status=TaskStatus.CACHED,
                        result=hit,
                        attempts=0,
                        cache="hit",
                    )
                    printer.task(eid, TaskStatus.CACHED)
                    continue
        n_fail, kind = faults.get(eid, (0, "raise"))
        specs.append(
            (
                TaskSpec(
                    exp_id=eid,
                    kwargs=dict(plan.kwargs),
                    inject_failures=n_fail,
                    inject_kind=kind,
                    char_cache_dir=plan.cache_dir,
                ),
                key,
            )
        )

    # Phase 1: warm shared characterization bundles.
    if plan.cache_dir is not None and specs:
        char_cache = CharacterizationCache(plan.cache_dir)
        needs = _collect_needs(specs, plan, char_cache)
        if needs:
            printer.phase(
                "warm-up", f"{len(needs)} characterization bundle(s)"
            )
            with span("runtime.warmup", category="runtime",
                      bundles=len(needs), jobs=plan.jobs):
                _run_warmups(needs, plan, printer)
            manifest.warmed_characterizations = len(needs)

    # Phase 2: fan experiments out.  The collective sweeps run in one
    # process share their points for this run only.
    if specs:
        printer.phase(
            "experiments",
            f"{len(specs)} task(s) on {plan.jobs} worker(s)",
        )
        with shared_points():
            _supervise([spec for spec, _ in specs], plan, printer, outcomes)

    # Fill the result cache and the manifest in request order.
    ordered: List[TaskOutcome] = []
    for eid in plan.ids:
        outcome = outcomes[eid]
        key = next((k for s, k in specs if s.exp_id == eid), None)
        if (
            result_cache is not None
            and key is not None
            and outcome.status is TaskStatus.DONE
            and outcome.result is not None
        ):
            result_cache.put(
                key,
                outcome.result,
                meta={
                    "exp_id": eid,
                    "kwargs": fingerprint(
                        resolved_kwargs(runners[eid], plan.kwargs)
                    ),
                    "duration_s": round(outcome.duration_s, 4),
                },
            )
            outcome.cache = "miss"
        ordered.append(outcome)
        manifest.record(outcome)
    if result_cache is not None:
        # Warm hits only buffer atime refreshes; one locked index
        # write at the end of the run records them all.
        result_cache.flush()

    for outcome in ordered:
        counter(f"runtime.tasks.{outcome.status.value}").inc()
        if outcome.status is TaskStatus.DONE:
            histogram("runtime.task.duration_s", unit="s").observe(
                outcome.duration_s
            )
    t_end = time.perf_counter()
    get_tracer().record(
        "runtime.execute", _rel_ns(t_start), _rel_ns(t_end),
        category="runtime", jobs=plan.jobs, tasks=len(plan.ids),
        failed=sum(1 for o in ordered if not o.ok),
    )
    manifest.wall_s = round(t_end - t_start, 4)
    manifest.metrics = metrics_snapshot()
    return RunReport(outcomes=ordered, manifest=manifest)


def _run_warmups(
    needs: List[CharacterizationNeed],
    plan: RunPlan,
    printer: ProgressPrinter,
) -> None:
    """Compute all needed bundles; a failed warm-up is non-fatal (the
    consuming experiment recomputes inline and reports its own error)."""
    with _executor(min(plan.jobs, len(needs))) as pool:
        futures = [
            pool.submit(_run_warmup_task, need, plan.cache_dir)
            for need in needs
        ]
        for need, fut in zip(needs, futures):
            try:
                payload = fut.result()
            except Exception as exc:
                payload = _failure(0.0, exc)
            _report_warmup(printer, need, payload)


def _report_warmup(printer, need: CharacterizationNeed, payload) -> None:
    label = f"char:{need.config.label()}/s{need.machine_seed}"
    if payload["ok"]:
        printer.phase(label, f"ready in {payload['duration_s']:.1f}s")
    else:
        printer.phase(label, f"warm-up failed: {payload['error']}")


@dataclass
class _Attempt:
    """One submitted attempt, as the supervision loop tracks it."""

    spec: TaskSpec
    #: Summed duration of the task's earlier attempts.
    prior: float
    #: ``time.perf_counter()`` at submit: the attempt's timeout clock.
    started: float
    #: The executor running it: the shared pool, or a private one.
    executor: concurrent.futures.Executor
    quarantined: bool = False
    #: Booked as timed out while still running; holds its slot until
    #: its future settles.
    expired: bool = False


def _supervise(
    specs: List[TaskSpec],
    plan: RunPlan,
    printer: ProgressPrinter,
    outcomes: Dict[str, TaskOutcome],
) -> None:
    """Run every task to a terminal outcome, at most ``plan.jobs``
    attempts in flight.

    Tasks wait in ``ready`` until a slot is free, so an attempt's
    timeout clock starts when it can run.  A failed attempt waits out
    its backoff and rejoins ``ready``, or the task ends FAILED/TIMEOUT.
    A ``BrokenProcessPool`` (a worker crashed hard) poisons every
    in-flight future of that pool; the pool is rebuilt and each poisoned
    task is treated as a failed attempt of its own.
    """
    policy = plan.retry
    timeout = policy.timeout_s
    pool = _executor(plan.jobs)
    #: Stable display track per task for recorded attempt spans
    #: (track 0 is the parent's own thread).
    trace_tids = {spec.exp_id: i + 1 for i, spec in enumerate(specs)}
    #: (spec, cumulative duration of prior attempts) awaiting a slot.
    ready = collections.deque((spec, 0.0) for spec in specs)
    #: (due time, spec, cumulative duration) awaiting backoff expiry.
    backoff: List[Tuple[float, TaskSpec, float]] = []
    running: Dict[concurrent.futures.Future, _Attempt] = {}

    def submit(spec: TaskSpec, prior: float) -> None:
        nonlocal pool
        printer.task(spec.exp_id, TaskStatus.RUNNING, spec.attempt)
        started = time.perf_counter()
        if spec.broken:
            # Quarantine: once a task's future has been poisoned by a
            # pool-wide crash, re-run it in a private single-task pool.
            # A repeat crash then cannot poison siblings — and a crash
            # in isolation unambiguously convicts the task itself, so
            # it is charged as a normal failed attempt.
            solo = ProcessPoolExecutor(max_workers=1, mp_context=_mp_context())
            fut = solo.submit(_run_experiment_task, spec)
            running[fut] = _Attempt(spec, prior, started, solo,
                                    quarantined=True)
            return
        try:
            fut = pool.submit(_run_experiment_task, spec)
        except BrokenProcessPool:
            pool.shutdown(wait=False, cancel_futures=True)
            pool = _executor(plan.jobs)
            fut = pool.submit(_run_experiment_task, spec)
        running[fut] = _Attempt(spec, prior, started, pool)

    def finish(
        att: _Attempt, payload: Dict[str, Any], elapsed: float,
        broken: bool = False,
    ) -> None:
        """Book one settled or expired attempt: done, retry, or give up."""
        spec = att.spec
        timed_out = timeout is not None and elapsed > timeout
        if timed_out:
            payload = _failure(elapsed, f"attempt exceeded timeout "
                               f"({elapsed:.1f}s > {timeout:.1f}s)")
        if not isinstance(att.executor, _InlineExecutor):
            # Inline attempts ran inside their own live span.
            get_tracer().record(
                f"task:{spec.exp_id}", _rel_ns(att.started),
                _rel_ns(att.started + elapsed), category="task",
                tid=trace_tids[spec.exp_id], attempt=spec.attempt,
                ok=bool(payload["ok"]), quarantined=att.quarantined,
                timeout=timed_out,
            )
        total = att.prior + payload["duration_s"]
        if not payload["ok"]:
            retry = policy.should_retry(spec.attempt)
            if broken and not retry:
                # A pool break poisons *every* in-flight future, and the
                # perpetrator is indistinguishable from its victims — so
                # pool-broken attempts draw on a separate, equally
                # bounded grace allowance instead of the task's own
                # retry budget.
                retry = spec.broken < policy.max_attempts
            if broken:
                spec = replace(spec, broken=spec.broken + 1)
            if retry:
                printer.task(
                    spec.exp_id, TaskStatus.FAILED, spec.attempt,
                    f"retrying: {payload['error']}",
                )
                note_retry(spec.exp_id, spec.attempt,
                           policy.backoff(spec.attempt))
                backoff.append((
                    time.perf_counter() + policy.backoff(spec.attempt),
                    replace(spec, attempt=spec.attempt + 1),
                    total,
                ))
                return
        status = (TaskStatus.DONE if payload["ok"] else
                  TaskStatus.TIMEOUT if timed_out else TaskStatus.FAILED)
        outcomes[spec.exp_id] = TaskOutcome(
            exp_id=spec.exp_id, status=status,
            result=payload.get("result"), attempts=spec.attempt,
            duration_s=total, error=payload.get("error"),
            traceback=payload.get("traceback"),
        )
        printer.task(spec.exp_id, status, spec.attempt,
                     payload.get("error") or f"{payload['duration_s']:.1f}s")

    finished = False
    try:
        while ready or backoff or any(
            not att.expired for att in running.values()
        ):
            now = time.perf_counter()
            ready.extend((s, prior) for due, s, prior in backoff
                         if due <= now)
            backoff = [b for b in backoff if b[0] > now]
            while ready and len(running) < plan.jobs:
                submit(*ready.popleft())

            # Sleep until an attempt settles, a live attempt's budget
            # runs out, or a backoff expires — whichever comes first.
            deadlines = [due for due, _s, _p in backoff]
            if timeout is not None:
                deadlines += [att.started + timeout
                              for att in running.values() if not att.expired]
            done, _ = concurrent.futures.wait(
                running,
                timeout=(max(0.0, min(deadlines) - time.perf_counter())
                         if deadlines else None),
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            now = time.perf_counter()
            rebuild = False
            for fut in done:
                att = running.pop(fut)
                if att.quarantined:
                    att.executor.shutdown(wait=False, cancel_futures=True)
                if att.expired:
                    continue  # booked when its budget ran out
                elapsed = now - att.started
                crashed = False
                try:
                    payload = fut.result()
                except BrokenProcessPool as exc:
                    crashed = not att.quarantined
                    rebuild |= crashed and att.executor is pool
                    payload = _failure(elapsed, f"worker crashed: {exc!r}")
                except Exception as exc:
                    payload = _failure(elapsed, exc)
                finish(att, payload, elapsed, broken=crashed)
            if rebuild:
                # The crashed pool is unusable; rebuild before retries run.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = _executor(plan.jobs)

            # Enforce per-attempt wall-clock budgets on live attempts.
            for fut, att in running.items():
                if (timeout is not None and not att.expired
                        and now - att.started > timeout):
                    att.expired = True
                    fut.cancel()
                    finish(att, {}, now - att.started)
        finished = True
    finally:
        # Join workers on the normal path — leaving executor threads
        # alive races the interpreter's own atexit teardown and
        # occasionally spews "Exception ignored" noise.
        for executor in [pool, *(a.executor for a in running.values())]:
            executor.shutdown(wait=finished, cancel_futures=True)
