"""Per-file analysis context shared by every rule.

One :class:`FileContext` per source file: the parsed AST with parent
links, the raw source lines, the ``repro: noqa[...]`` suppression
map, and the path classification helpers rules scope themselves with
(``subsystem()`` — which top-level ``repro`` subpackage the file lives
in).  Building this once and handing it to every rule keeps each rule a
pure ``check(ctx) -> findings`` function.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: ``repro: noqa`` / ``repro: noqa[DET001, ASY]`` comments (line-scoped)
#: and ``repro: noqa-file[...]`` (whole-file).  A bare ``noqa`` suppresses
#: every rule; ``DET`` (a family prefix) suppresses ``DET001``-``DET999``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Matches every rule (bare ``noqa``).
ALL_RULES = "*"


def _iter_comments(lines: List[str]):
    """Yield ``(line_no, col0, text)`` for every ``#`` comment.

    Tokenizes so marker-lookalike text inside *string literals* — this
    repo's own lint-test fixtures are full of them — is never treated
    as a live suppression.  Falls back to a whole-line scan if the
    tokenizer chokes (it should not: the caller already parsed the
    file), which can only over-report markers, never lose one.
    """
    import tokenize

    feed = iter(lines)

    def readline() -> str:
        try:
            return next(feed) + "\n"
        except StopIteration:
            return ""

    try:
        tokens = list(tokenize.generate_tokens(readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for i, line in enumerate(lines, start=1):
            pos = line.find("#")
            if pos != -1:
                yield i, pos, line[pos:]
        return
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.start[1], tok.string


@dataclass
class NoqaMarker:
    """One ``repro: noqa`` comment, with per-token usage tracking.

    ``used`` records which of the marker's id tokens actually
    suppressed a finding this pass — the raw material for SUP001
    (stale-suppression detection) and ``--show-suppressed``.
    """

    line: int
    col: int
    ids: Tuple[str, ...]
    file_level: bool = False
    used: Set[str] = field(default_factory=set)


class NoqaMap:
    """The suppression markers of one file.

    Outlives its :class:`FileContext`: the engine filters pass-level
    (OBS001) findings and judges stale markers (SUP001) through it
    after every file's per-file rules have run.
    """

    def __init__(self, markers: List[NoqaMarker]) -> None:
        self.markers = list(markers)

    @classmethod
    def parse(cls, lines: List[str]) -> "NoqaMap":
        markers: List[NoqaMarker] = []
        for i, col0, comment in _iter_comments(lines):
            m = _NOQA_RE.search(comment)
            if m is None:
                continue
            rules = m.group("rules")
            ids = (
                (ALL_RULES,)
                if rules is None
                else tuple(
                    sorted({r.strip() for r in rules.split(",") if r.strip()})
                )
            )
            markers.append(
                NoqaMarker(
                    line=i,
                    col=col0 + m.start() + 1,
                    ids=ids,
                    file_level=bool(m.group("file")),
                )
            )
        return cls(markers)

    def suppress(self, rule_id: str, line: int) -> List[NoqaMarker]:
        """The markers suppressing ``rule_id`` at ``line`` (empty =
        not suppressed).  Marks the matching token used on every
        covering marker — SUP001 bookkeeping."""
        matched: List[NoqaMarker] = []
        for marker in self.markers:
            if not marker.file_level and marker.line != line:
                continue
            token = _matching_token(marker.ids, rule_id)
            if token is not None:
                marker.used.add(token)
                matched.append(marker)
        return matched


def _matching_token(tokens: Tuple[str, ...], rule_id: str) -> Optional[str]:
    """The token of ``tokens`` that covers ``rule_id``, if any."""
    if rule_id in tokens:
        return rule_id
    family = rule_id.rstrip("0123456789")
    if family in tokens:
        return family
    if ALL_RULES in tokens:
        return ALL_RULES
    return None


class FileContext:
    """Everything a rule needs to know about one parsed source file."""

    def __init__(self, path: str, source: str, tree: ast.AST) -> None:
        #: Repo-relative posix path (e.g. ``src/repro/sim/engine.py``).
        self.path = path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.noqa = NoqaMap.parse(self.lines)

    # -- path classification ------------------------------------------------

    def subsystem(self) -> str:
        """Top-level subpackage under ``repro`` (``"sim"``, ``"serve"``,
        ...), or ``""`` for top-level modules like ``cli.py``."""
        parts = self.path.split("/")
        if "repro" in parts:
            rest = parts[parts.index("repro") + 1:]
        else:
            rest = parts
        return rest[0] if len(rest) > 1 else ""

    def module_name(self) -> str:
        """File name without extension (``engine`` for ``.../engine.py``)."""
        return self.path.rsplit("/", 1)[-1].rsplit(".", 1)[0]

    # -- tree navigation ----------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self._parents.get(node)
        while cur is not None:
            yield cur
            cur = self._parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.AST]:
        """Nearest enclosing (async) function definition, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def in_async_function(self, node: ast.AST) -> bool:
        """True when the *nearest* enclosing function is ``async def``.

        A synchronous closure nested inside an ``async def`` (the
        ``asyncio.to_thread`` pattern) is deliberately *not* async
        context: it runs in a worker thread where blocking is fine.
        """
        return isinstance(self.enclosing_function(node), ast.AsyncFunctionDef)

    def held_lock_names(self, node: ast.AST) -> Set[str]:
        """Names of lock-ish context managers held around ``node``.

        Any enclosing ``with``/``async with`` whose context expression
        mentions a name containing ``lock`` or ``mutex`` counts.
        """
        held: Set[str] = set()
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    for name in _names_in(item.context_expr):
                        if "lock" in name.lower() or "mutex" in name.lower():
                            held.add(name)
        return held

    # -- suppression --------------------------------------------------------

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Is ``rule_id`` noqa'd at ``line`` (1-based) or file-wide?
        Marks the matching marker token(s) used (SUP001 bookkeeping)."""
        return bool(self.noqa.suppress(rule_id, line))

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # -- dotted-name resolution ---------------------------------------------

    def dotted_name(self, node: ast.AST) -> str:
        """``a.b.c`` for a Name/Attribute chain, ``""`` otherwise."""
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
            return ".".join(reversed(parts))
        return ""

    def call_name(self, call: ast.Call) -> str:
        return self.dotted_name(call.func)


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
