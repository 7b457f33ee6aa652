#!/usr/bin/env python3
"""One benchmark for both end-to-end paths of the reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 12 --trace 0

Workloads (``perfbench/workloads.py`` records why each exists and what
should move on it):

* ``pipeline`` — the paper pipeline through ``repro.runtime.plan_run`` /
  ``execute``: all 15 experiments serially into an empty cache, then, in
  a fresh process, the identical plan again and single experiments from
  the warm cache;
* ``serve_repeat`` — Zipf-popular repeats of ~64 default-machine predict
  bodies against ``repro serve --workers 2``;
* ``serve_unique`` — every body new, four presets, predict/advise/tune,
  against a single ``repro serve``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same inputs twice, untraced and then with the
``repro.obs`` tracer and the benchmark's probes on, and reports the
per-layer metrics (``perfbench/layers.py``).

Every answer is checked (``perfbench/oracle.py``); a wrong one counts as
a failed operation and the exit code is 1.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(``{name: {"value", "unit"}}``).  Exit code 2 means the checkout has no
program to measure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from calm import StealMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: ``(name, unit)`` of the end-to-end metrics (``--trace 0``).
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pipeline_cold_s", "s"),
    ("pipeline_warm_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
]
# The p99 latency is printed with every run, but on a shared 2-vCPU host
# its slow spells move it by up to 2x between runs, so it is no
# end-to-end metric with a bound: the traced run reports it (from its
# untraced half) per layer.

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Closed-loop connections of the serve workloads.
CONNECTIONS = 2
#: How long one pipeline runner process may take.
RUNNER_TIMEOUT_S = 150
#: Samples per chunk of the p99 estimate: ten lie beyond each chunk's p99.
P99_CHUNK = 1000

# A shared host's speed drifts by ±20% over seconds (other tenants), and
# spells of CPU steal slow it by up to a third, so every figure is a
# median over parts of a run (chunks of the timed phase, passes, set-ups,
# reruns), taken over the parts a steal burst spared, each part's times
# scaled to what they would have been with nothing stolen (``calm.py``).


def p99(latencies_s: List[float]) -> float:
    """Median of the p99s of consecutive chunks of ``P99_CHUNK`` samples
    (one chunk when there are fewer; samples in the order they ended)."""
    k = max(1, len(latencies_s) // P99_CHUNK)
    size = len(latencies_s) // k
    return median(
        statistics.quantiles(latencies_s[i * size:(i + 1) * size], n=100)[98]
        for i in range(k)
    )


def tail_line(latencies_s: List[float]) -> str:
    return (f"latency_p99_ms {p99(latencies_s) * 1e3:.4f} ms over "
            f"{len(latencies_s)} requests ({len(latencies_s) // 100} beyond "
            f"p99)")


Chunk = Tuple[float, float, List[int]]


def calm_chunks(meter: StealMeter, start: float,
                done_at: List[float]) -> List[Chunk]:
    """A timed phase that began at ``start`` cut into chunks of equal
    answer counts, about one second each; returns the calm ones as
    ``(begin, end, indices of their answers)``.  ``done_at[i]`` is when
    answer ``i`` arrived (``perf_counter`` time)."""
    order = sorted(range(len(done_at)), key=done_at.__getitem__)
    k = max(1, min(int(done_at[order[-1]] - start), len(order)))
    size = len(order) // k
    edges = [start] + [done_at[order[(i + 1) * size - 1]] for i in range(k)]
    chunks = [(edges[i], edges[i + 1], order[i * size:(i + 1) * size])
              for i in range(k)]
    return [chunks[i] for i in meter.calm([(a, b) for a, b, _ in chunks])]


def calm_median(meter: StealMeter, starts: List[float],
                times_s: List[float]) -> float:
    """Median of the calm ones of timings that began at ``starts``."""
    spans = [(t, t + d) for t, d in zip(starts, times_s)]
    return median(times_s[i] * meter.kept(*spans[i])
                  for i in meter.calm(spans))


def pass_time(meter: StealMeter, passes: List[Any]) -> float:
    """Time of one pass over a pair set: each request's median latency
    over the calm passes (the sets differ in nonces only), summed, so a
    stall in one pass does not count."""
    spans = [(p.start, p.start + p.wall_s) for p in passes]
    per_request = zip(*[
        [s.latency_s * meter.kept(*spans[i]) for s in passes[i].samples]
        for i in meter.calm(spans)
    ])
    return sum(median(lat) for lat in per_request)


class Checks:
    """Operations attempted, failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    def note(self, problem: str) -> None:
        """A failure that is not one operation (a crash, a bad exit)."""
        self.failed += 1
        self.problems.append(problem)


# -- host and code-size block -------------------------------------------------


def host_block() -> Dict[str, Any]:
    """Where and on what code the numbers were measured."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = "unknown"
    # Only the checkout's own repository: git would otherwise search the
    # parent directories for one.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    lines, digest = 0, hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# -- pipeline -----------------------------------------------------------------


def run_pipeline(work: str, seed: int, seconds: float, trace: bool,
                 checks: Checks,
                 meter: StealMeter) -> Tuple[Dict[str, float], List[str]]:
    from server import program_env
    from workloads import (PIPELINE_COLD_RUNS, PIPELINE_ITERATIONS,
                           PIPELINE_MIN_REQUESTS, PIPELINE_WARM_RUNS,
                           PIPELINE_WARM_S, pipeline_seed)

    env = program_env(ROOT, os.path.join(work, "cache"))
    common = ["--seed", str(pipeline_seed(seed)),
              "--iterations", str(PIPELINE_ITERATIONS)]
    #: (launch time, time to READY) of each runner process.
    setups: List[Tuple[float, float]] = []

    def launch(phase: str, *args: str) -> Dict[str, Any]:
        """One runner process; returns its result."""
        argv = [sys.executable, os.path.join(HERE, "pipeline_runner.py"),
                phase, *common, *args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        first = proc.stdout.readline()
        setups.append((t0, time.perf_counter() - t0))
        try:
            rest, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"pipeline {phase} runner timed out")
        if first.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(
                f"pipeline {phase} runner failed (exit {proc.returncode})")
        lines = rest.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def traced_dump(phase: str) -> str:
        return os.path.join(work, f"traced-{phase}.json")

    def cycle(tag: str, cold_runs: int, warm_runs: int, min_requests: int,
              until: float = 0.0, warm_min_s: float = 0.0):
        """Cold runs, then the warm phase in a fresh process, which goes
        on until the ``perf_counter`` time ``until`` and for at least
        ``warm_min_s``; returns (cold result, warm result)."""
        traced = {
            phase: ["--trace-out", traced_dump(phase)]
            if trace and tag == "traced" else []
            for phase in ("cold", "warm")
        }
        cold = launch(
            "cold", "--cache-root", os.path.join(work, tag),
            "--cold-runs", str(cold_runs), *traced["cold"])
        reference = os.path.join(work, f"{tag}-reference.json")
        with open(reference, "w") as fh:
            json.dump(cold["cold_digests"], fh)
        warm = launch(
            "warm", "--cache-dir", cold["cache_dir"],
            "--reference", reference, "--warm-runs", str(warm_runs),
            "--min-requests", str(min_requests),
            "--seconds", str(max(warm_min_s, until - time.perf_counter())),
            *traced["warm"])
        for doc in (cold, warm):
            checks.attempted += doc["attempted"]
            checks.failed += doc["failed"]
            checks.problems += doc["problems"][:10]
        report.append(
            f"{tag}: {len(cold['cold_s'])} cold run(s) "
            f"{[round(x, 3) for x in cold['cold_s']]} s, "
            f"{len(warm['warm_s'])} warm reruns, "
            f"{len(warm['request_s'])} warm single-experiment requests"
        )
        return cold, warm

    report: List[str] = [f"experiments: 15, iterations "
                         f"{PIPELINE_ITERATIONS}, seed {pipeline_seed(seed)}"]
    if trace:
        # Same inputs twice, one cold run each: untraced (the overhead
        # baseline), then traced.
        half = (1, PIPELINE_WARM_RUNS // 2, PIPELINE_MIN_REQUESTS // 2)
        plain, plain_warm = cycle("plain", *half)
        cold, warm = cycle("traced", *half)
        from layers import pipeline_layers

        dumps = []
        for phase in ("cold", "warm"):
            with open(traced_dump(phase)) as fh:
                dumps.append(json.load(fh))
        cold_dump, warm_dump = dumps
        metrics = pipeline_layers(cold_dump, warm_dump,
                                  len(cold["cold_s"]), len(warm["warm_s"]))
        metrics["trace_overhead"] = (
            median(cold["cold_s"]) / median(plain["cold_s"]) - 1.0
        )
        metrics["latency_p99_ms"] = p99(plain_warm["request_s"]) * 1e3
        measured_s = median(cold["cold_s"])
        report.append(
            f"blocking path: layers compose to "
            f"{measured_s * (1 - metrics['unattributed_share']):.4f} s of "
            f"the measured {measured_s:.4f} s cold run"
        )
        return metrics, report
    for _ in range(SETUPS - 1):
        launch("cold", "--setup-only")
    cold, warm = cycle(
        "plain", PIPELINE_COLD_RUNS, PIPELINE_WARM_RUNS,
        PIPELINE_MIN_REQUESTS, time.perf_counter() + seconds,
        PIPELINE_WARM_S,
    )
    setups = setups[:SETUPS]  # the warm runner's start is no set-up
    for eid, digest in sorted(cold["cold_digests"].items()):
        report.append(f"digest {eid:9s} {digest}")
    requests = warm["request_s"]
    # The pipeline's "request": one experiment's result answered from the
    # result cache, as a user rerunning one artifact sees it.  Throughput
    # counts those answers per second of the callers' waiting, planning
    # included (reruns between them do not count).
    wall = warm["request_wall_s"]
    chunks = calm_chunks(meter, warm["start"], warm["request_done_at"])
    metrics = {
        "setup_s": calm_median(meter, *zip(*setups)),
        # The two processes run one after the other.
        "peak_rss_mb": max(cold["peak_rss_mb"], warm["peak_rss_mb"]),
        "pipeline_cold_s": calm_median(meter, cold["cold_at"],
                                       cold["cold_s"]),
        # The median rerun, so a cost that slows most reruns shows even
        # if a few stay fast.
        "pipeline_warm_s": calm_median(meter, warm["warm_at"],
                                       warm["warm_s"]),
        "throughput_rps": median(
            len(idx) / (sum(wall[i] for i in idx) * meter.kept(a, b))
            for a, b, idx in chunks),
        "latency_p50_ms": median(
            requests[i] * meter.kept(a, b)
            for a, b, idx in chunks for i in idx) * 1e3,
    }
    report.append(tail_line(requests))
    report.append(f"setups: {[round(d, 4) for _t, d in setups]} s")
    return metrics, report


# -- serve --------------------------------------------------------------------


class ServeRun:
    """One serve workload: inputs, server launches and answer checks."""

    def __init__(self, name: str, work: str, seed: int,
                 seconds: float) -> None:
        import workloads as W

        self.workload = W.WORKLOADS[name]
        self.work = work
        self.fits = W.fit_requests(name, seed)
        self.pair_sets = [W.pair_set(name, seed, f"pair{k}")
                          for k in range(self.workload.pairs)]
        if name == "serve_repeat":
            bodies = W.repeat_bodies(seed)
            # The popular bodies' first sight is not part of the traffic.
            self.warmup = [("/v1/predict", b) for b in bodies]
            schedule = W.repeat_schedule(seed, int(seconds * 4000) + 10000)
            self.requests = [("/v1/predict", bodies[i]) for i in schedule]
        else:
            self.warmup = []
            self.requests = W.unique_requests(seed, int(seconds * 600) + 1000)
        #: (request list, samples) pairs still to be checked.
        self.sent: List[Tuple[List[Tuple[str, bytes]], Any]] = []
        self.launches = 0

    def server(self, trace_dir: Optional[str] = None):
        from server import Server

        self.launches += 1
        srv = Server(ROOT, os.path.join(self.work, f"s{self.launches}"),
                     self.workload.serve_args, trace_dir=trace_dir)
        return srv

    def send(self, srv, requests, seconds: Optional[float] = None,
             connections: int = CONNECTIONS):
        from client import closed_loop

        result = closed_loop(srv.host, srv.port, requests,
                             connections=connections, seconds=seconds)
        self.sent.append((requests, result))
        return result

    def boot(self, srv) -> Tuple[float, float]:
        """Launch and fit every artifact the workload uses; returns
        (launch time, set-up time)."""
        t0 = time.perf_counter()
        srv.start()
        if self.fits:
            self.send(srv, self.fits, connections=1)
        return t0, time.perf_counter() - t0

    def warm_up(self, srv) -> None:
        if self.warmup:
            self.send(srv, self.warmup)

    def timed(self, srv, seconds: float):
        """The timed traffic in equal segments, one per pair set, each
        followed by its pair set sent cold and then warm, one request at
        a time on one connection (so a pass is the sum of its answers).
        Spread
        over the phase, neither kind of sample sits in one slow spell.
        Returns (segments, cold passes, warm passes)."""
        segments, colds, warms = [], [], []
        offset = 0
        for bodies in self.pair_sets:
            segment = self.send(srv, self.requests[offset:],
                                seconds=seconds / len(self.pair_sets))
            if not segment.samples:
                raise RuntimeError("the request pool ran out")
            segments.append(segment)
            offset += max(s.index for s in segment.samples) + 1
            colds.append(self.send(srv, bodies, connections=1))
            warms.append(self.send(srv, bodies, connections=1))
        return segments, colds, warms

    def stop(self, srv, checks: Checks) -> None:
        code = srv.stop()
        if code != 0:
            checks.note(f"server exited with code {code}: "
                        + "".join(srv.log[-5:]))

    def verify(self, checks: Checks) -> float:
        """Check every answer received; returns the time it took."""
        from oracle import Oracle

        t0 = time.perf_counter()
        oracle = Oracle()
        for requests, result in self.sent:
            for s in result.samples:
                route, body = requests[s.index]
                if s.status < 0:
                    checks.record(False, f"{route}: {s.error}")
                    continue
                problem = oracle.check(route, body, s.status, s.digest,
                                       s.body)
                checks.record(not problem, problem)
        return time.perf_counter() - t0


def latencies(result) -> List[float]:
    """Latencies in the order the answers arrived."""
    return [s.latency_s for s in sorted(result.samples,
                                        key=lambda s: s.done_s)]


def run_serve(name: str, work: str, seed: int, seconds: float, trace: bool,
              checks: Checks,
              meter: StealMeter) -> Tuple[Dict[str, float], List[str]]:
    run = ServeRun(name, work, seed, seconds)
    report = [
        f"serve args: {list(run.workload.serve_args) or ['(single)']}, "
        f"{CONNECTIONS} closed-loop connections, "
        f"{len(run.pair_sets)} cold/warm pairs of {len(run.pair_sets[0])} "
        f"bodies, "
        f"warm-up set {len(run.warmup)}, request pool {len(run.requests)}"
    ]
    if trace:
        return run_serve_traced(run, seconds, checks, report)
    setups = []
    srv = None
    try:
        for k in range(SETUPS):
            srv = run.server()
            setups.append(run.boot(srv))
            if k < SETUPS - 1:
                run.stop(srv, checks)
        run.warm_up(srv)
        segments, colds, warms = run.timed(srv, seconds)
        rss = srv.peak_rss_mb()
    finally:
        if srv is not None:
            run.stop(srv, checks)
    verify_s = run.verify(checks)
    lat = [x for segment in segments for x in latencies(segment)]
    report.append(f"setups: {[round(d, 4) for _t, d in setups]} s")
    report.append(f"checked {checks.attempted} answers against the oracle "
                  f"in {verify_s:.2f} s")
    begin, end = segments[0].start, segments[-1].start + segments[-1].wall_s
    report.append(
        f"timed: {len(lat)} requests in "
        f"{sum(s.wall_s for s in segments):.3f} s, CPU steal share "
        f"{meter.share(begin, end):.4f}")
    report.append(tail_line(lat))
    rates, calm_lat = [], []
    for segment in segments:
        samples = segment.samples
        for a, b, idx in calm_chunks(
                meter, segment.start,
                [segment.start + s.done_s for s in samples]):
            kept = meter.kept(a, b)
            rates.append(len(idx) / ((b - a) * kept))
            calm_lat += [samples[i].latency_s * kept for i in idx]
    metrics = {
        "setup_s": calm_median(meter, *zip(*setups)),
        "peak_rss_mb": rss,
        # The service's cold/warm pair: a set of bodies new to the
        # server (plan and render caches miss; artifacts fitted), then
        # the identical set again (both caches hit).
        "pipeline_cold_s": pass_time(meter, colds),
        "pipeline_warm_s": pass_time(meter, warms),
        "throughput_rps": median(rates),
        "latency_p50_ms": median(calm_lat) * 1e3,
    }
    return metrics, report


def scrape(srv):
    """The server's ``/metrics``, folded over a fleet's workers."""
    from client import Connection
    from layers import merged_metrics

    conn = Connection(srv.host, srv.port)
    try:
        status, raw = conn.request("GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return merged_metrics([json.loads(raw)["metrics"]])


def run_serve_traced(run: ServeRun, seconds: float, checks: Checks,
                     report: List[str]):
    from layers import metrics_delta, serve_composition, serve_layers
    from probes import load_dumps

    # Each half lasts the whole ``seconds``, so that even on a slow host
    # ten answers lie beyond the untraced half's p99.
    srv = run.server()
    try:
        run.boot(srv)
        run.warm_up(srv)
        untraced = run.send(srv, run.requests, seconds=seconds)
    finally:
        run.stop(srv, checks)
    trace_dir = os.path.join(run.work, "trace")
    srv = run.server(trace_dir=trace_dir)
    try:
        run.boot(srv)
        run.warm_up(srv)
        before = scrape(srv)
        lo = time.perf_counter_ns()
        timed = run.send(srv, run.requests, seconds=seconds)
        hi = time.perf_counter_ns()
        counters = metrics_delta(before, scrape(srv))
    finally:
        run.stop(srv, checks)
    run.verify(checks)
    dumps = load_dumps(trace_dir)
    report.append(f"trace dumps: {sorted(d['role'] for d in dumps)}")
    n = len(timed.samples)
    metrics = serve_layers(dumps, (lo, hi), counters, latencies(timed),
                           latencies(untraced))
    metrics["latency_p99_ms"] = p99(latencies(untraced)) * 1e3
    measured_ms = statistics.fmean(latencies(timed)) * 1e3
    report.append(
        f"blocking path: layers compose to "
        f"{measured_ms * (1 - metrics['unattributed_share']):.4f} ms of the "
        f"measured {measured_ms:.4f} ms mean request"
    )
    report.append(f"composition of a request (mean self time, {n} timed "
                  f"requests):")
    for span_name, ms in serve_composition(dumps, (lo, hi), n)[:16]:
        report.append(f"  {span_name:28s} {ms:9.4f} ms")
    return metrics, report


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("pipeline", "serve_repeat", "serve_unique"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from layers import PER_LAYER
    from workloads import WORKLOADS

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    # The oracle runs in this process; keep any cache it opens in the
    # work directory too.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "oracle-cache")
    checks = Checks()
    trace = bool(args.trace)
    values: Dict[str, float] = {}
    report: List[str] = []
    run = run_pipeline if args.workload == "pipeline" else functools.partial(
        run_serve, args.workload)
    meter = StealMeter()
    try:
        with meter:
            values, report = run(work, args.seed, args.seconds, trace,
                                 checks, meter)
    except Exception:  # noqa: BLE001 - reported as a failed run below
        checks.note(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only if no other run uses it
        except OSError:
            pass

    workload = WORKLOADS[args.workload]
    host = host_block()
    host["cpu_steal_share"] = round(meter.whole(), 4)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {workload.name}: {workload.why}")
    for line in report:
        print(f"  {line}")
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:34s} {values[name]:14.6f} {unit}")
    for problem in checks.problems:
        print(f"  FAILED: {problem}")
    correct = checks.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
