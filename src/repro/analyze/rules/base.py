"""Rule base class and registry of the pluggable rule framework.

A rule is a class with an ``id`` (``DET001``), a one-line ``name``, a
``rationale`` paragraph (rendered into ``docs/LINTING.md``), a
default :class:`~repro.analyze.findings.Severity`, and a
``check(ctx)`` generator yielding raw findings.  The engine owns
suppression: rules yield every violation they see and the engine drops
the ``repro: noqa``'d ones (so ``--no-noqa`` style tooling stays
possible and suppression behaves identically across rules).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Type

from repro.errors import AnalysisError
from repro.analyze.context import FileContext
from repro.analyze.findings import Finding, Severity

_RULES: Dict[str, Type["Rule"]] = {}


class Rule:
    """One checkable contract.  Subclass and register."""

    id: str = ""
    name: str = ""
    rationale: str = ""
    severity: Severity = Severity.WARNING

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule_id=self.id,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
            snippet=ctx.snippet(line),
        )


class PassRule(Rule):
    """A rule the engine judges once per pass, not once per file.

    OBS001 (glossary sync) needs every file's metric emissions and
    SUP001 (stale suppressions) needs every file's finished noqa
    bookkeeping, so the engine drives both after the per-file rules
    have run.  ``check`` is a no-op; the registered class carries the
    id/rationale/severity for the catalog and ``--rule`` selection.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def pass_finding(
        self, path: str, line: int, message: str, col: int = 1
    ) -> Finding:
        return Finding(
            rule_id=self.id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
        )


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    if not cls.id or not cls.name:
        raise AnalysisError(f"rule {cls.__name__} needs an id and a name")
    if cls.id in _RULES:
        raise AnalysisError(f"rule id {cls.id!r} registered twice")
    _RULES[cls.id] = cls
    return cls


def all_rule_ids() -> List[str]:
    return sorted(_RULES)


def get_rule(rule_id: str) -> Rule:
    if rule_id not in _RULES:
        raise AnalysisError(
            f"unknown rule {rule_id!r}; known: {all_rule_ids()}"
        )
    return _RULES[rule_id]()


def make_rules(rule_ids=None) -> List[Rule]:
    """Instantiate the selected (default: all) rules, sorted by id."""
    ids = all_rule_ids() if rule_ids is None else list(rule_ids)
    return [get_rule(rid) for rid in sorted(ids)]
