"""Span probes for the traced run, installed from outside the program.

The traced run turns the program's own :mod:`repro.obs` tracer on and
adds spans around the public functions of each layer, from this file
only: nothing under ``src/`` changes.  Three pieces:

* :func:`install` wraps the layer entry points (see :data:`FUNCTION_PROBES`
  and :data:`METHOD_PROBES`) in ``repro.obs.span`` calls.  A wrapper
  replaces *every* module-level binding of the original function, so
  ``from x import f`` copies are covered as well as ``x.f`` look-ups.
* Parent tracking: ``repro.obs`` spans carry no parent, and the serving
  path interleaves many requests on one event loop, so nesting by time
  would be wrong.  :func:`install` patches ``Tracer.span`` to record the
  enclosing span from a :mod:`contextvars` stack, which asyncio tasks and
  ``asyncio.to_thread`` carry along.  A batch evaluation runs in a task
  that inherits the context of whichever request opened the window, so
  ``serve.batch.evaluate`` is made a root instead.
* :func:`dump` writes this process's spans (name, duration, parent) and
  its metrics snapshot as JSON; the benchmark's analysis reads them back.

The probes change timing (a few microseconds per span); the benchmark
reports that cost as ``trace_overhead``.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import os
import sys
from typing import Any, Callable, Dict, List, Tuple

#: Spans that start a new tree rather than nesting under the context's
#: current span (see the module docstring).
ROOT_SPANS = frozenset({"serve.batch.evaluate"})

#: Span attributes worth keeping in a dump (sizes and counts).
KEPT_ATTRS = ("size", "bundles", "queries", "outcome")

#: (module, attribute, span name): public functions of each layer.
FUNCTION_PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.bench.latency_bench", "latency_summary", "bench.latency"),
    ("repro.bench.bandwidth_bench", "bandwidth_summary", "bench.bandwidth"),
    ("repro.bench.bandwidth_bench", "bandwidth_curve", "bench.multiline"),
    ("repro.bench.contention_bench", "contention_sweep", "bench.contention"),
    ("repro.bench.congestion_bench", "congestion_experiment",
     "bench.congestion"),
    ("repro.bench.stream_bench", "memory_latency_bench",
     "bench.memory_latency"),
    ("repro.bench.stream_bench", "best_median", "bench.stream"),
    ("repro.bench.stream_bench", "thread_sweep", "bench.sweeps"),
    ("repro.model.derive", "derive_capability_model", "model.derive"),
    ("repro.algorithms.barrier", "tune_barrier", "algorithms.tune"),
    ("repro.algorithms.tree_opt", "tune_tree", "algorithms.tune"),
    ("repro.algorithms.execute", "run_episodes", "algorithms.episodes"),
    ("repro.model.vector", "compile_queries", "vector.compile"),
    ("repro.model.advisor", "recommend_placement", "advisor.advise"),
    ("repro.serve.protocol", "write_response", "protocol.write"),
)

#: (module, class, method, span name).
METHOD_PROBES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Engine", "run", "sim.run"),
    ("repro.runtime.cache", "ResultCache", "put", "cache.result.put"),
    ("repro.serve.artifacts", "ArtifactRegistry", "get", "artifact.resolve"),
    ("repro.serve.artifacts", "ArtifactRegistry", "get_machine",
     "artifact.resolve"),
    ("repro.serve.router", "WorkerClient", "request_bytes", "fleet.relay"),
)

_STACK: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)


def _import_layers() -> None:
    """Import every module a probe may have to rebind, up front."""
    import importlib

    from repro.experiments import registry

    registry.all_ids()  # imports every experiment module
    for name in {m for m, _a, _s in FUNCTION_PROBES} | {
        m for m, _c, _a, _s in METHOD_PROBES
    } | {"repro.serve.app", "repro.serve.fleet", "repro.runtime.pool"}:
        importlib.import_module(name)


def _wrap(fn: Callable, name: str) -> Callable:
    from repro.obs import span

    if asyncio.iscoroutinefunction(fn):
        async def probe(*args: Any, **kwargs: Any) -> Any:
            with span(name, category="probe"):
                return await fn(*args, **kwargs)
    else:
        def probe(*args: Any, **kwargs: Any) -> Any:
            with span(name, category="probe"):
                return fn(*args, **kwargs)
    return functools.update_wrapper(probe, fn)


def _read_request_probe(fn: Callable) -> Callable:
    """``read_request`` timed from the moment request bytes are buffered.

    On a keep-alive connection the call starts by waiting for the client's
    next request; that idle time is the client's, not the protocol
    layer's, so the span opens only once data (or EOF) has arrived.
    """
    from repro.obs import span

    async def probe(reader: Any) -> Any:
        try:
            if not reader._buffer and not reader.at_eof():
                await reader._wait_for_data("read_request")
        except Exception:  # noqa: BLE001 - the real read reports it
            pass
        with span("protocol.read", category="probe"):
            return await fn(reader)

    return functools.update_wrapper(probe, fn)


def _rebind(original: Callable, replacement: Callable) -> int:
    """Point every ``repro.*`` module-level binding of ``original`` at
    ``replacement``; returns how many bindings moved."""
    moved = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                moved += 1
    return moved


def _track_parents() -> None:
    from repro.obs import tracer as tracer_mod

    original_span = tracer_mod.Tracer.span
    original_exit = tracer_mod._SpanContext.__exit__

    def span(self, name, category="default", **attrs):
        ctx = original_span(self, name, category, **attrs)
        if ctx is tracer_mod.NULL_SPAN:
            return ctx
        sp = ctx.span
        stack = () if name in ROOT_SPANS else _STACK.get()
        sp.perfbench_parent = stack[-1] if stack else None
        sp.perfbench_token = _STACK.set(stack + (sp,))
        return ctx

    def exit_(self, exc_type, exc, tb):
        original_exit(self, exc_type, exc, tb)
        token = getattr(self.span, "perfbench_token", None)
        if token is not None:
            try:
                _STACK.reset(token)
            except ValueError:
                pass  # closed from another context; stack is per-context

    tracer_mod.Tracer.span = span
    tracer_mod._SpanContext.__exit__ = exit_


def install() -> None:
    """Enable the tracer, track span parents, and wrap every layer."""
    import importlib

    from repro.obs import enable_tracing

    _import_layers()
    _track_parents()
    for mod_name, attr, name in FUNCTION_PROBES:
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)
        if _rebind(original, _wrap(original, name)) == 0:
            raise RuntimeError(f"probe {mod_name}.{attr} bound nowhere")
    protocol = importlib.import_module("repro.serve.protocol")
    original = protocol.read_request
    _rebind(original, _read_request_probe(original))
    for mod_name, cls_name, attr, name in METHOD_PROBES:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, attr, _wrap(getattr(cls, attr), name))
    enable_tracing()


def reset() -> None:
    """Forget spans and metrics recorded so far (a forked worker starts
    with a copy of its parent's)."""
    from repro.obs import get_tracer, reset_metrics

    get_tracer().clear()
    reset_metrics()


def dump(path: str, role: str) -> None:
    """Write this process's spans and metrics snapshot to ``path``."""
    from repro.obs import get_tracer, metrics_snapshot

    tracer = get_tracer()
    spans = [s for s in tracer.spans() if s.end_ns is not None]
    index = {id(s): i for i, s in enumerate(spans)}
    records: List[List[Any]] = []
    for s in spans:
        parent = getattr(s, "perfbench_parent", None)
        attrs = {k: s.attrs[k] for k in KEPT_ATTRS if k in s.attrs}
        records.append([
            s.name,
            s.duration_ns,
            index.get(id(parent), -1) if parent is not None else -1,
            attrs,
            # Start on the system-wide monotonic clock (perf_counter_ns),
            # comparable with the client's timestamps.
            tracer.epoch_ns + s.start_ns,
        ])
    doc: Dict[str, Any] = {
        "role": role,
        "pid": os.getpid(),
        "spans": records,
        "metrics": metrics_snapshot(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_dumps(directory: str) -> List[Dict[str, Any]]:
    """Every dump written into ``directory``, in file-name order."""
    docs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                docs.append(json.load(fh))
    return docs


def span_table(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Spans of one dump, each with ``up`` (its parent row or None) and
    ``self_ns`` (duration minus what its direct children cover)."""
    rows = [
        {"name": n, "dur_ns": d, "attrs": a, "start_ns": t, "self_ns": d}
        for n, d, _p, a, t in doc["spans"]
    ]
    for row, (_n, _d, parent, _a, _t) in zip(rows, doc["spans"]):
        row["up"] = rows[parent] if parent >= 0 else None
        if row["up"] is not None:
            row["up"]["self_ns"] -= row["dur_ns"]
    for row in rows:
        row["self_ns"] = max(0, row["self_ns"])
    return rows
