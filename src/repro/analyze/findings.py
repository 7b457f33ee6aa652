"""Finding model of the static-analysis subsystem.

A :class:`Finding` is one rule violation at one source location, as
``repro lint`` prints it: ``path:line:col: RULE [severity] message``
followed by the offending source line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How bad a violation is (printed in the text report)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


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

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_text(self) -> str:
        return (
            f"{self.location()}: {self.rule_id} "
            f"[{self.severity.value}] {self.message}"
        )
