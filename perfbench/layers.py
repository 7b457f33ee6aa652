"""Per-layer metrics of the traced run, and the composition gap.

A layer's *self time* is the duration of its spans minus the part their
direct child spans cover (parents come from :mod:`probes`).  Following
the paper's additive composition (and Treibig & Hager's), the self times
of the layers on a result's blocking path should add up to its measured
end-to-end time; the remainder is reported as ``unattributed_share``,
and a large one means a layer is missing.

Every per-layer metric is reported on every workload; a layer the
workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

from probes import span_table

#: Benchmark families inside ``characterize`` (span ``bench.<family>``).
BENCH_FAMILIES = ("latency", "bandwidth", "multiline", "contention",
                  "congestion", "memory_latency", "stream", "sweeps")

#: The 15 registered experiments.
EXPERIMENTS = ("ext", "fig1", "fig10", "fig4", "fig5", "fig6", "fig7",
               "fig8", "fig9", "modes", "parts", "speedups", "stencil",
               "table1", "table2")


def _units() -> List[Tuple[str, str]]:
    out = [
        ("runtime.warmup_s", "s"),
        ("runtime.bundles", "count"),
        ("runtime.result_cache.hit_share", "share"),
        ("cache.char.hit_share", "share"),
        ("cache.char.get_s", "s"),
        ("cache.char.put_s", "s"),
        ("cache.result.get_s", "s"),
        ("cache.result.put_s", "s"),
    ]
    for fam in BENCH_FAMILIES:
        out += [(f"bench.{fam}_s", "s"), (f"bench.{fam}.calls", "count")]
    out += [
        ("bench.samples", "count"),
        ("sim.run_s", "s"),
        ("sim.runs", "count"),
        ("model.derive_s", "s"),
        ("model.derive.calls", "count"),
        ("algorithms.tune_s", "s"),
        ("algorithms.tune.calls", "count"),
        ("algorithms.episodes_s", "s"),
    ]
    out += [(f"experiments.{eid}_s", "s") for eid in EXPERIMENTS]
    out += [
        ("protocol.read_ms", "ms"),
        ("protocol.write_ms", "ms"),
        ("batcher.wait_ms", "ms"),
        ("batcher.batch_size", "count"),
        ("batcher.dedup_share", "share"),
        ("batcher.shed", "count"),
        ("serve.queue.wait_ms", "ms"),
        ("serve.batch.deduped", "count"),
        ("fleet.proxy_self_ms", "ms"),
        ("fleet.relay_ms", "ms"),
        ("fleet.reroutes", "count"),
        ("artifact.resolve_ms", "ms"),
        ("artifact.fit_s", "s"),
        ("serve.parse_ms", "ms"),
        ("serve.render_ms", "ms"),
        ("vector.compile_ms", "ms"),
        ("vector.evaluate_ms", "ms"),
        ("vector.fused_queries", "count"),
        ("vector.plan_cache.hit_share", "share"),
        ("vector.render_cache.hit_share", "share"),
        ("advise_ms", "ms"),
        ("latency_p99_ms", "ms"),
        ("trace_overhead", "share"),
        ("unattributed_share", "share"),
    ]
    return out


#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = _units()


class Spans:
    """Rows of one or more dumps with totals by name."""

    def __init__(self, rows: Iterable[Dict[str, Any]]) -> None:
        self.rows = list(rows)

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [r for r in self.rows if r["name"] == name]

    def self_s(self, name: str) -> float:
        return sum(r["self_ns"] for r in self.named(name)) / 1e9

    def dur_s(self, name: str) -> float:
        return sum(r["dur_ns"] for r in self.named(name)) / 1e9

    def count(self, name: str) -> int:
        return len(self.named(name))


def _tables(dumps: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    return [span_table(d) for d in dumps]


Folded = Dict[str, Dict[str, float]]


def _slot() -> Dict[str, float]:
    return {"value": 0.0, "count": 0.0, "sum": 0.0}


def merged_metrics(snapshots: Iterable[Dict[str, Any]]) -> Folded:
    """Counters summed and histograms pooled (count, sum) over metrics
    snapshots; a fleet's ``name{worker="w0"}`` keys fold into ``name``."""
    out: Folded = defaultdict(_slot)
    for snapshot in snapshots:
        for key, m in snapshot.items():
            slot = out[key.split("{", 1)[0]]
            if m.get("type") == "histogram":
                slot["count"] += m.get("count") or 0
                slot["sum"] += m.get("sum") or 0.0
            else:
                slot["value"] += m.get("value") or 0
    return out


def metrics_delta(before: Folded, after: Folded) -> Folded:
    """What the counters and histograms gained between two readings."""
    out: Folded = defaultdict(_slot)
    for name, slot in after.items():
        prev = before.get(name, _slot())
        out[name] = {k: v - prev[k] for k, v in slot.items()}
    return out


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _bench_and_model(spans: Spans, per: float) -> Dict[str, float]:
    """The characterize/derive/sim/tune layers, totals divided by ``per``."""
    out: Dict[str, float] = {}
    family_self: Dict[str, float] = defaultdict(float)
    family_calls: Dict[str, int] = defaultdict(int)
    for row in spans.rows:
        if not row["name"].startswith("bench."):
            continue
        # Attribute to the outermost microbenchmark family on the path:
        # the call ``characterize`` (or an experiment) made.  Sample
        # collections and helper families it calls in turn (a stream
        # best-of runs thread sweeps) count toward it.
        family = None if row["name"] == "bench.collect" else row["name"]
        node = row["up"]
        while node is not None:
            if node["name"].startswith("bench.") and \
                    node["name"] != "bench.collect":
                family = node["name"]
            node = node["up"]
        if family is None:
            continue
        family_self[family] += row["self_ns"]
        if family == row["name"]:
            family_calls[family] += 1
    for fam in BENCH_FAMILIES:
        name = f"bench.{fam}"
        out[f"{name}_s"] = family_self[name] / 1e9 / per
        out[f"{name}.calls"] = family_calls[name] / per
    out["sim.run_s"] = spans.self_s("sim.run") / per
    out["sim.runs"] = spans.count("sim.run") / per
    out["model.derive_s"] = spans.self_s("model.derive") / per
    out["model.derive.calls"] = spans.count("model.derive") / per
    out["algorithms.tune_s"] = spans.self_s("algorithms.tune") / per
    out["algorithms.tune.calls"] = spans.count("algorithms.tune") / per
    out["algorithms.episodes_s"] = spans.self_s("algorithms.episodes") / per
    return out


def pipeline_layers(cold_dump: Dict[str, Any], warm_dump: Dict[str, Any],
                    n_cold: int, n_warm: int) -> Dict[str, float]:
    """Per-layer metrics of the traced pipeline cycle, from the dumps of
    its cold and its warm process.

    Cold-run layers are totals per cold run; ``cache.result.get_s`` is
    per full-plan warm rerun (the only layer a warm rerun exercises).
    """

    def root(row: Dict[str, Any]) -> Dict[str, Any]:
        while row["up"] is not None:
            row = row["up"]
        return row

    cold = Spans(span_table(cold_dump))
    warm = Spans(r for r in span_table(warm_dump)
                 if root(r)["name"] == "pipeline.execute")

    def outcome_share(spans: Spans, name: str) -> float:
        gets = spans.named(name)
        hits = sum(1 for r in gets if r["attrs"].get("outcome") == "hit")
        return _share(hits, len(gets))

    out = {name: 0.0 for name, _u in PER_LAYER}
    out["runtime.warmup_s"] = cold.dur_s("runtime.warmup") / n_cold
    out["runtime.bundles"] = sum(
        r["attrs"].get("bundles", 0) for r in cold.named("runtime.warmup")
    ) / n_cold
    out["runtime.result_cache.hit_share"] = outcome_share(
        warm, "cache.result.get")
    out["cache.char.hit_share"] = outcome_share(cold, "cache.char.get")
    out["cache.char.get_s"] = cold.self_s("cache.char.get") / n_cold
    out["cache.char.put_s"] = cold.self_s("cache.char.put") / n_cold
    out["cache.result.put_s"] = cold.self_s("cache.result.put") / n_cold
    out["cache.result.get_s"] = warm.self_s("cache.result.get") / n_warm
    out.update(_bench_and_model(cold, n_cold))
    samples = merged_metrics([cold_dump["metrics"]]).get("bench.samples")
    out["bench.samples"] = (samples["value"] if samples else 0.0) / n_cold
    for eid in EXPERIMENTS:
        out[f"experiments.{eid}_s"] = cold.self_s(f"task:{eid}") / n_cold
    cold_exec = cold.named("pipeline.execute")
    out["unattributed_share"] = _share(
        sum(r["self_ns"] for r in cold_exec),
        sum(r["dur_ns"] for r in cold_exec),
    )
    return out


#: Root spans of the process that accepts the client's connection which
#: together cover a request's blocking path: the protocol read, the
#: request inside the app (batcher window plus its batch) or the fleet
#: front end's proxying (whose ``fleet.relay`` child covers the worker's
#: own read, request and write), and the protocol write.  Each tree's
#: duration is the sum of the self times in it.  The client, the kernel
#: and the event-loop hand-offs before the read are what stays
#: unattributed.
BLOCKING_PATH = ("protocol.read", "protocol.write", "serve.request",
                 "serve.fleet.request")


def serve_layers(dumps: List[Dict[str, Any]], window: Tuple[int, int],
                 timed_counters: Folded,
                 timed_latencies_s: List[float],
                 untraced_latencies_s: List[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced serve run.

    Per-request figures (``*_ms`` except ``advise_ms`` and
    ``artifact.resolve_ms``, which are per call) use the spans that start
    inside the timed ``window`` (monotonic ns) and divide by the requests
    the client completed in it; set-up layers (fits) use every span.
    Counters, hit shares and the queue wait come from
    ``timed_counters``, what the server's ``/metrics`` gained over the
    timed phase, so the boot and warm-up passes do not count.
    """
    tables = _tables(dumps)
    every = Spans(r for rows in tables for r in rows)
    lo, hi = window
    timed = Spans(r for r in every.rows if lo <= r["start_ns"] <= hi)

    def timed_in(workers: bool) -> Spans:
        return Spans(
            r for doc, rows in zip(dumps, tables)
            if (doc["role"] == "worker") == workers
            for r in rows if lo <= r["start_ns"] <= hi
        )

    entry, worker = timed_in(False), timed_in(True)
    n = max(1, len(timed_latencies_s))
    per_req_ms = 1e3 / n

    def counter(name: str) -> float:
        m = timed_counters.get(name)
        return m["value"] if m else 0.0

    def hist_mean(name: str) -> float:
        m = timed_counters.get(name)
        return _share(m["sum"], m["count"]) if m else 0.0

    out = {name: 0.0 for name, _u in PER_LAYER}
    out.update(_bench_and_model(every, 1.0))
    # The timed window has no fits; tune calls there are requests.
    out["algorithms.tune_s"] = timed.self_s("algorithms.tune")
    out["algorithms.tune.calls"] = timed.count("algorithms.tune")
    # Set-up work: the samples of every fit over the server's life.
    samples = merged_metrics(d["metrics"] for d in dumps).get("bench.samples")
    out["bench.samples"] = samples["value"] if samples else 0.0
    out["protocol.read_ms"] = timed.self_s("protocol.read") * per_req_ms
    out["protocol.write_ms"] = timed.self_s("protocol.write") * per_req_ms
    batches = timed.named("serve.batch.evaluate")
    sizes = [r["attrs"].get("size", 1) for r in batches]
    batch_experienced_s = _share(
        sum(r["dur_ns"] * s for r, s in zip(batches, sizes)) / 1e9, sum(sizes)
    )
    request_s = _share(timed.self_s("serve.request"),
                       timed.count("serve.request"))
    out["batcher.wait_ms"] = max(0.0, request_s - batch_experienced_s) * 1e3
    out["batcher.batch_size"] = _share(sum(sizes), len(sizes))
    out["batcher.dedup_share"] = _share(counter("serve.batch.deduped"),
                                        counter("serve.batch.requests"))
    out["batcher.shed"] = counter("serve.shed")
    out["serve.queue.wait_ms"] = hist_mean("serve.queue.wait_ms")
    out["serve.batch.deduped"] = counter("serve.batch.deduped")
    out["fleet.proxy_self_ms"] = (
        timed.self_s("serve.fleet.request") * per_req_ms
    )
    # The relay hop alone: the front end's wait on a worker minus the
    # worker's own handling of the request.
    out["fleet.relay_ms"] = max(0.0, timed.self_s("fleet.relay") - sum(
        worker.dur_s(name) for name in BLOCKING_PATH
    )) * per_req_ms
    out["fleet.reroutes"] = counter("serve.fleet.reroutes")
    out["artifact.resolve_ms"] = 1e3 * _share(
        timed.self_s("artifact.resolve"), timed.count("artifact.resolve"))
    out["artifact.fit_s"] = every.dur_s("serve.artifact.fit")
    out["serve.parse_ms"] = timed.self_s("serve.batch.assemble") * per_req_ms
    out["serve.render_ms"] = timed.self_s("serve.batch.evaluate") * per_req_ms
    out["vector.compile_ms"] = timed.self_s("vector.compile") * per_req_ms
    out["vector.evaluate_ms"] = (
        timed.self_s("serve.vector.evaluate") * per_req_ms
    )
    fused = [r["attrs"].get("queries", 0)
             for r in timed.named("serve.vector.evaluate")]
    out["vector.fused_queries"] = _share(sum(fused), len(fused))
    plan_hits = counter("serve.vector.plan_cache.hits")
    out["vector.plan_cache.hit_share"] = _share(
        plan_hits, plan_hits + counter("serve.vector.plan_cache.misses"))
    render_hits = counter("serve.vector.render_cache.hits")
    out["vector.render_cache.hit_share"] = _share(
        render_hits, render_hits + counter("serve.vector.plans"))
    out["advise_ms"] = 1e3 * _share(timed.self_s("advisor.advise"),
                                    timed.count("advisor.advise"))
    composed_s = sum(entry.dur_s(name) for name in BLOCKING_PATH) / n
    measured_s = _share(sum(timed_latencies_s), len(timed_latencies_s))
    out["unattributed_share"] = 1.0 - _share(composed_s, measured_s)
    out["trace_overhead"] = _share(
        measured_s, _share(sum(untraced_latencies_s),
                           len(untraced_latencies_s))) - 1.0
    return out


def serve_composition(dumps: List[Dict[str, Any]], window: Tuple[int, int],
                      n_requests: int) -> List[Tuple[str, float]]:
    """Mean self time per request [ms] of every span name in the timed
    window, largest first (the human-readable composition table)."""
    lo, hi = window
    totals: Dict[str, float] = defaultdict(float)
    for rows in _tables(dumps):
        for r in rows:
            if lo <= r["start_ns"] <= hi:
                totals[r["name"]] += r["self_ns"]
    n = max(1, n_requests)
    return sorted(((k, v / 1e6 / n) for k, v in totals.items()),
                  key=lambda kv: -kv[1])
