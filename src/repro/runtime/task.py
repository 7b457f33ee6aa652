"""Task model of the execution engine.

A *task* is one experiment invocation (``exp_id`` + keyword arguments);
a *need* is a characterization bundle the task depends on.  Both are
plain picklable dataclasses so they can cross the process boundary of
:mod:`repro.runtime.pool`, and both can be fingerprinted into stable
cache keys (see :mod:`repro.runtime.cache`).
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.experiments.common import ExperimentResult
from repro.machine.config import MachineConfig


class TaskStatus(enum.Enum):
    """Lifecycle of one experiment task inside a run."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    #: Result served from the content-addressed cache; never executed.
    CACHED = "cached"
    FAILED = "failed"
    TIMEOUT = "timeout"

    @property
    def is_terminal_ok(self) -> bool:
        return self in (TaskStatus.DONE, TaskStatus.CACHED)


@dataclass(frozen=True)
class CharacterizationNeed:
    """Declarative dependency on one :class:`~repro.bench.suite.
    Characterization` bundle.

    Experiments register these via ``@register(id, needs=...)`` so the
    scheduler can compute shared bundles once (warm-up phase) and fan
    the cached copies out to every consumer.  The fields mirror exactly
    how the experiment will build its machine and call
    :func:`repro.bench.characterize` — a mismatch is harmless (the
    experiment just misses the cache and computes inline).
    """

    config: MachineConfig
    #: Seed passed to ``KNLMachine(config, seed=...)``.
    machine_seed: Optional[int]
    #: ``iterations`` passed to ``characterize``.
    iterations: int
    #: ``seed`` passed to ``characterize`` (usually None → runner default).
    char_seed: Optional[int] = None
    thread_counts: Tuple[int, ...] = (16, 64, 128, 256)
    include_sweeps: bool = False
    #: Preset name when the machine was built from a :mod:`repro.machines`
    #: preset that overrides calibration/noise/cache tables — two machines
    #: with equal configs but different silicon must never share a bundle.
    #: ``None`` (the default) for stock KNL machines keeps keys identical
    #: to every pre-catalog cache entry.
    machine_id: Optional[str] = None


@dataclass
class TaskSpec:
    """Everything a worker process needs to run one experiment."""

    exp_id: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: 1-based attempt counter (set by the supervisor on each submit).
    attempt: int = 1
    #: Times this task's future was poisoned by a pool-wide crash.  A
    #: sibling's hard exit breaks the whole pool, so pool-broken attempts
    #: get a bounded grace allowance beyond the normal retry budget.
    broken: int = 0
    #: Fault-injection hook: raise/crash while ``attempt <= inject_failures``.
    inject_failures: int = 0
    #: ``"raise"`` (exception in the worker) or ``"crash"`` (hard exit).
    inject_kind: str = "raise"
    #: Directory of the shared characterization cache, opened read-only
    #: by every attempt (None → disabled).
    char_cache_dir: Optional[str] = None


@dataclass
class TaskOutcome:
    """Terminal state of one task, as reported to the caller/manifest."""

    exp_id: str
    status: TaskStatus
    result: Optional[ExperimentResult] = None
    attempts: int = 0
    duration_s: float = 0.0
    #: "hit" / "miss" against the result cache, or None when disabled.
    cache: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status.is_terminal_ok


def resolved_kwargs(runner, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``kwargs`` over the runner's declared defaults.

    Produces the canonical parameter set used for cache keys, so that
    ``repro fig6`` and ``repro fig6 --seed 29`` (the default seed) hash
    identically.  ``**kw`` catch-alls and parameters without defaults
    are ignored unless explicitly provided.
    """
    resolved: Dict[str, Any] = {}
    try:
        sig = inspect.signature(runner)
    except (TypeError, ValueError):
        return dict(kwargs)
    for name, param in sig.parameters.items():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            continue
        if param.default is not inspect.Parameter.empty:
            resolved[name] = param.default
    resolved.update(kwargs)
    return resolved
