"""Fault tolerance policy: timeouts, bounded retries, fault injection.

The supervisor does not run tasks itself — :mod:`repro.runtime.pool`
owns the executor — it decides *what happens next* when an attempt
fails: retry (with exponential backoff) or give up, and how long an
attempt may take.  Keeping the policy separate makes it trivially
testable; the pool's one supervision loop applies it for every
``--jobs`` value.

Fault injection is first-class because a fault-tolerance layer that
cannot be exercised is decorative: ``TaskSpec.inject_failures`` makes a
worker fail its first N attempts, either by raising
(:class:`FaultInjected`) or by hard-exiting the process (a real crash,
surfacing the ``BrokenProcessPool`` recovery path).  The CLI exposes it
via ``REPRO_RUNTIME_FAULT="fig4:1"`` or ``"fig4:2:crash"``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs import counter, histogram
from repro.runtime.task import TaskSpec

#: Environment hook: comma-separated ``exp_id:failures[:kind]`` entries.
FAULT_ENV = "REPRO_RUNTIME_FAULT"


class FaultInjected(RuntimeError):
    """Raised by a worker when fault injection trips."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff plus a per-task timeout."""

    #: Total attempts per task (1 = no retry).
    max_attempts: int = 2
    #: Sleep before retry k (1-based) is ``backoff_s * factor**(k-1)``.
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    #: Wall-clock budget per attempt in seconds (None = unlimited).
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be >= 1")
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0
        ):
            raise ReproError("timeout_s must be finite and positive")

    def should_retry(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be retried."""
        return attempt < self.max_attempts

    def backoff(self, attempt: int) -> float:
        """Backoff delay before the retry following ``attempt``."""
        return self.backoff_s * self.backoff_factor ** (attempt - 1)


def parse_fault_spec(text: str) -> Dict[str, Tuple[int, str]]:
    """Parse ``"fig4:1,fig6:2:crash"`` → ``{"fig4": (1, "raise"), ...}``."""
    faults: Dict[str, Tuple[int, str]] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        fields = part.split(":")
        if len(fields) not in (2, 3):
            raise ReproError(
                f"bad fault spec {part!r}; want exp_id:failures[:kind]"
            )
        exp_id, count = fields[0], fields[1]
        kind = fields[2] if len(fields) == 3 else "raise"
        if kind not in ("raise", "crash"):
            raise ReproError(f"fault kind must be raise|crash, got {kind!r}")
        try:
            n = int(count)
        except ValueError:
            raise ReproError(f"bad fault count {count!r} in {part!r}")
        faults[exp_id] = (n, kind)
    return faults


def note_retry(exp_id: str, attempt: int, backoff_s: float) -> None:
    """Metrics hook called by the scheduler each time a retry is queued.

    Lives here, next to :class:`RetryPolicy`, so retry accounting sits
    with the rule that decides a retry, whatever ``--jobs`` is.
    """
    counter("runtime.retries").inc()
    histogram("runtime.retry.backoff_s", unit="s").observe(backoff_s)


def faults_from_env() -> Dict[str, Tuple[int, str]]:
    text = os.environ.get(FAULT_ENV, "")
    return parse_fault_spec(text) if text else {}


def maybe_inject_fault(spec: TaskSpec) -> None:
    """Trip the fault hook inside a worker, if armed for this attempt."""
    if spec.attempt > spec.inject_failures:
        return
    counter("runtime.faults.injected").inc()
    if spec.inject_kind == "crash":
        # A real crash: bypass exception handling and atexit machinery,
        # exactly like a segfaulting worker.
        os._exit(13)
    raise FaultInjected(
        f"injected fault in {spec.exp_id!r} "
        f"(attempt {spec.attempt}/{spec.inject_failures} armed)"
    )
