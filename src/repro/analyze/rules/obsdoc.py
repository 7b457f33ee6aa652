"""OBS pack: the metrics glossary and the code may not drift.

``docs/OBSERVABILITY.md`` carries a glossary table mapping every
``repro.obs`` metric name to its type, unit, and meaning — the
contract dashboards and the manifest's ``metrics`` snapshot are read
against.  OBS001 checks it both ways against the scanned tree: every
``counter()``/``gauge()``/``histogram()`` emission must be documented,
and every documented name must still be emitted somewhere.

The check runs in two steps.  :func:`metric_sites` collects one file's
emissions during the engine's per-file pass; once every file is in,
:func:`glossary_drift` reconciles the collected names against the
glossary (whole-tree scans only: a partial scan cannot prove a
documented metric unemitted).

Name matching is pattern-based on both sides.  :func:`metric_sites`
records f-string emissions with ``*`` per interpolation
(``f"lint.findings.{rule}"`` → ``lint.findings.*``); the glossary
writes placeholders as ``<RULE>``/``<N>`` (normalized to ``*``) and
label blocks as ``{...}`` (stripped, both sides).  Two patterns are
compatible when either, read as a wildcard pattern, covers a literal
instance of the other.  Emissions whose name is not statically visible
at all (a variable, ``%``-formatting) are recorded as nothing and
checked as nothing — the rule never guesses.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator, List, Optional, Tuple

from repro.analyze.context import FileContext
from repro.analyze.findings import Finding, Severity
from repro.analyze.rules.base import PassRule, register_rule

#: The documentation file OBS001 reconciles against (repo-relative).
GLOSSARY_PATH = "docs/OBSERVABILITY.md"

#: Glossary rows: ``| `name` [/ `name`] | counter|gauge|histogram | ...``
_METRIC_TYPES = frozenset({"counter", "gauge", "histogram"})
_NAME_RE = re.compile(r"`([^`]+)`")


def _normalize(pattern: str) -> str:
    """Canonical wildcard form of a metric name from either side:
    drop a ``{label="..."}`` block, turn ``<placeholder>`` into ``*``."""
    pattern = pattern.split("{")[0]
    pattern = re.sub(r"<[^>]*>", "*", pattern)
    return pattern.strip()


def _compatible(a: str, b: str) -> bool:
    """Do the two wildcard patterns plausibly name the same metric?
    True when either side, read as a glob, covers a literal instance
    of the other (``lint.findings.*`` vs ``lint.findings.<RULE>``)."""
    if a == b:
        return True
    ra = re.compile(re.escape(a).replace(r"\*", ".+") + r"\Z")
    rb = re.compile(re.escape(b).replace(r"\*", ".+") + r"\Z")
    return bool(ra.match(b.replace("*", "x")) or rb.match(a.replace("*", "x")))


def glossary_patterns(text: str) -> List[Tuple[str, int]]:
    """``(normalized name pattern, line)`` for every metric the
    glossary documents: backticked spans in the first cell of table
    rows whose second cell is a metric type."""
    out: List[Tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.lstrip().startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 2 or cells[1] not in _METRIC_TYPES:
            continue
        for span in _NAME_RE.findall(cells[0]):
            name = _normalize(span)
            if name and "." in name:
                out.append((name, lineno))
    return out


def _metric_pattern(arg: ast.AST) -> Optional[str]:
    """Metric-name pattern of an emitter's first argument.

    A string literal is itself; an f-string keeps its literal parts
    with ``*`` per interpolation (``f"lint.findings.{rule}"`` →
    ``lint.findings.*``); anything else (``%``, ``.format``, a
    variable) has no statically known shape and returns None — OBS001
    records what it can check, never guesses.
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts: List[str] = []
        for value in arg.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("*")
        return "".join(parts)
    return None


def _in_package(path: str) -> bool:
    """Is the repo-relative ``path`` inside the ``repro`` package?
    The glossary covers the package, not tests."""
    parts = [p for p in path.split("/") if p]
    if parts[:1] == ["src"]:
        parts = parts[1:]
    return parts[:1] == ["repro"]


def metric_sites(ctx: FileContext) -> List[Tuple[str, str, int]]:
    """``(normalized name pattern, path, line)`` for every statically
    named ``counter``/``gauge``/``histogram`` emission in one file
    (none for files outside the package)."""
    if not _in_package(ctx.path):
        return []
    out: List[Tuple[str, str, int]] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        tail = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name)
            else ""
        )
        if tail not in _METRIC_TYPES:
            continue
        pattern = _metric_pattern(node.args[0])
        if pattern is not None:
            out.append((_normalize(pattern), ctx.path, node.lineno))
    return out


@register_rule
class MetricsGlossarySync(PassRule):
    id = "OBS001"
    name = "obs metric names must match the documented glossary"
    rationale = (
        "The glossary in docs/OBSERVABILITY.md is the contract for "
        "everything that consumes the metrics snapshot — dashboards, "
        "the manifest, the paper's figures.  An emitted-but-"
        "undocumented metric is invisible to operators until an "
        "incident; a documented-but-gone metric makes dashboards "
        "silently flatline, which reads as 'system idle' instead of "
        "'metric renamed'.  Both directions are checked on whole-tree "
        "scans (a partial scan cannot prove a documented metric "
        "unemitted, so the rule stays quiet there).  Document new "
        "metrics in the glossary table; delete rows when the emission "
        "goes."
    )
    severity = Severity.WARNING


def glossary_drift(
    emitted: List[Tuple[str, str, int]], root: str
) -> Iterator[Finding]:
    """OBS001 findings for a whole-tree pass: ``emitted`` is every
    file's :func:`metric_sites`, ``root`` the repo holding the
    glossary (no glossary, no findings)."""
    glossary_file = os.path.join(root, GLOSSARY_PATH)
    if not os.path.exists(glossary_file):
        return
    with open(glossary_file, encoding="utf-8") as fh:
        documented = glossary_patterns(fh.read())
    rule = MetricsGlossarySync()
    doc_patterns = [p for p, _ in documented]
    for pattern, path, line in emitted:
        if not any(_compatible(pattern, d) for d in doc_patterns):
            yield rule.pass_finding(
                path=path,
                line=line,
                message=(
                    f"metric '{pattern}' is emitted here but has "
                    f"no row in {GLOSSARY_PATH}'s glossary; "
                    "document its type, unit, and meaning"
                ),
            )
    code_patterns = [p for p, _, _ in emitted]
    for pattern, line in documented:
        if not any(_compatible(pattern, c) for c in code_patterns):
            yield rule.pass_finding(
                path=GLOSSARY_PATH,
                line=line,
                message=(
                    f"glossary documents metric '{pattern}' but "
                    "nothing in the scanned tree emits it; delete "
                    "the row or restore the emission"
                ),
            )
