"""Finding model of the static-analysis subsystem.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`~Finding.identity` is a content address through the same
:func:`repro.runtime.cache.cache_key` scheme as every other cache in
the workbench — deliberately *line-independent* (rule + file + message),
so reformatting a file does not churn the committed baseline while a
genuinely new violation in the same file still shows up.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict


class Severity(enum.Enum):
    """How bad a violation is (maps onto the SARIF ``level``)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def sarif_level(self) -> str:
        return {"error": "error", "warning": "warning", "info": "note"}[
            self.value
        ]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.WARNING
    #: The offending source line, stripped (for the text report).
    snippet: str = ""
    #: End of the offending span (1-indexed line, 1-indexed *exclusive*
    #: column, SARIF convention); 0 means unknown and is omitted from
    #: serialized regions.
    end_line: int = 0
    end_col: int = 0

    def identity(self) -> str:
        """Stable content address for baseline bookkeeping.

        Hashes ``(rule, path, message)`` — not the line number — through
        :func:`repro.runtime.cache.cache_key` with a pinned ``version``
        so a package release does not invalidate the baseline.
        """
        from repro.runtime.cache import cache_key

        return cache_key(
            scope="lint.finding",
            rule=self.rule_id,
            path=self.path,
            message=self.message,
            version="lint-1",
        )

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
            "snippet": self.snippet,
            "end_line": self.end_line,
            "end_col": self.end_col,
        }

    def to_text(self) -> str:
        return (
            f"{self.location()}: {self.rule_id} "
            f"[{self.severity.value}] {self.message}"
        )
