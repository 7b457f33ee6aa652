"""Child process of the ``pipeline`` workload: the paper pipeline, driven
through ``repro.runtime.plan_run``/``execute``.

Run by ``perfbench/run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  It prints ``READY`` once the package and the
experiment registry are loaded (the parent times set-up up to that
line), then runs one phase, unless ``--setup-only``:

* ``cold``: ``--cold-runs`` runs of the full suite, each into an empty
  cache directory under ``--cache-root`` (a fixed count, so every seed
  measures the same work);
* ``warm``, in a fresh process against the last cold run's cache
  (``--cache-dir``): rounds of one rerun of the identical plan and then
  the 15 single-experiment requests in turn, as a user rerunning one
  artifact would, until ``--seconds`` have passed and at least
  ``--warm-runs`` reruns and ``--min-requests`` requests are done.

Times are ``time.perf_counter()`` values, which the parent can compare
with its own (the system-wide monotonic clock).

The warm phase runs in its own process because a long-lived process
slows down: every ``execute`` snapshots the metrics registry, whose
histograms keep and sort every sample the process has recorded, so a
rerun after the cold runs would pay for their samples too (and in a
sawtooth, as the histograms thin out).

Every run is checked: cold runs must all succeed and agree with each
other, and every warm answer must come from the cache with the bytes of
``--reference`` (the cold digests).  With ``--trace-out`` the
:mod:`probes` are installed and this process's spans are dumped there.
The last stdout line is one JSON object of raw measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _digests(report) -> dict:
    """``exp_id -> sha256`` of each result's canonical JSON ("" if the
    experiment failed)."""
    out = {}
    for outcome in report.outcomes:
        if outcome.ok and outcome.result is not None:
            text = outcome.result.to_json()
            out[outcome.exp_id] = hashlib.sha256(text.encode()).hexdigest()
        else:
            out[outcome.exp_id] = ""
    return out


class Phase:
    """Runs, their timings and their checks."""

    def __init__(self, ids, kwargs) -> None:
        self.ids = ids
        self.kwargs = kwargs
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run(self, run_ids, cache_dir: str, span_name: str):
        from repro.obs import span
        from repro.runtime import execute, plan_run

        plan = plan_run(run_ids, kwargs=self.kwargs, jobs=1,
                        cache_dir=cache_dir, retries=0, progress=False)
        t0 = time.perf_counter()
        with span(span_name, category="probe"):
            report = execute(plan)
        return t0, time.perf_counter() - t0, report

    def check(self, wrong) -> None:
        self.attempted += 1
        self.failed += bool(wrong)
        if len(self.problems) < 20:
            self.problems.extend(wrong)

    def result(self, **timings) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20], **timings}


def cold(phase: Phase, cache_root: str, runs: int) -> dict:
    from repro.runtime import TaskStatus

    cold_at, cold_s, reference, cache_dir = [], [], None, ""
    for k in range(runs):
        cache_dir = os.path.join(cache_root, f"cold{k}")
        t0, elapsed, report = phase.run(phase.ids, cache_dir,
                                        "pipeline.execute")
        cold_at.append(t0)
        cold_s.append(elapsed)
        digests = _digests(report)
        wrong = [
            f"cold {o.exp_id}: {o.status.value} {o.error or ''}".strip()
            for o in report.outcomes
            if o.status is not TaskStatus.DONE
        ]
        if reference is None:
            reference = digests
        elif digests != reference:
            wrong.append("cold runs of one seed disagree")
        phase.check(wrong)
    return phase.result(cold_at=cold_at, cold_s=cold_s,
                        cold_digests=reference, cache_dir=cache_dir)


def warm(phase: Phase, cache_dir: str, reference: dict, runs: int,
         seconds: float, min_requests: int) -> dict:
    from repro.runtime import TaskStatus

    def problems(report) -> list:
        wrong = []
        if any(o.status is not TaskStatus.CACHED for o in report.outcomes):
            wrong.append("warm answer did not come from the cache")
        for eid, digest in _digests(report).items():
            if digest != reference.get(eid):
                wrong.append(f"warm {eid} differs from its cold result")
        return wrong

    start = time.perf_counter()
    warm_at, warm_s, request_s, wall_s, done_at = [], [], [], [], []
    # Rounds of one full-plan rerun and then the 15 single requests, so
    # both kinds of sample spread over the whole phase.
    while (
        len(warm_s) < runs
        or len(request_s) < min_requests
        or time.perf_counter() - start < seconds
    ):
        t0, elapsed, report = phase.run(phase.ids, cache_dir,
                                        "pipeline.execute")
        warm_at.append(t0)
        warm_s.append(elapsed)
        phase.check(problems(report))
        for eid in phase.ids:
            t0 = time.perf_counter()
            _, elapsed, report = phase.run([eid], cache_dir,
                                           "pipeline.request")
            request_s.append(elapsed)
            # The whole call, planning included: what a caller waits for.
            done_at.append(time.perf_counter())
            wall_s.append(done_at[-1] - t0)
            phase.check(problems(report))
    return phase.result(warm_at=warm_at, warm_s=warm_s, request_s=request_s,
                        request_wall_s=wall_s, request_done_at=done_at,
                        start=start)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=("cold", "warm"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--cache-root", help="cold: where the caches go")
    p.add_argument("--cold-runs", type=int, default=1)
    p.add_argument("--cache-dir", help="warm: the cold run's cache")
    p.add_argument("--reference", help="warm: JSON file of cold digests")
    p.add_argument("--warm-runs", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-requests", type=int, default=0)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from repro.experiments import all_ids, get

    ids = all_ids()
    for eid in ids:
        get(eid)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace_out:
        import probes

        probes.install()
        probes.reset()
    phase = Phase(ids, {"iterations": args.iterations, "seed": args.seed})
    if args.phase == "cold":
        doc = cold(phase, args.cache_root, args.cold_runs)
    else:
        with open(args.reference) as fh:
            reference = json.load(fh)
        doc = warm(phase, args.cache_dir, reference, args.warm_runs,
                   args.seconds, args.min_requests)
    if args.trace_out:
        probes.dump(args.trace_out, role=f"pipeline-{args.phase}")
    doc["ids"] = ids
    doc["kwargs"] = phase.kwargs
    doc["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
