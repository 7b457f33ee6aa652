"""CACHE — one cache subsystem, no bespoke copies.

The tree used to carry at least six independently written caches, and
they diverged in buggy ways (unlocked index read-modify-write, orphan
leakage after a corrupt index, O(index) rewrites on warm hits).  The
unification into :mod:`repro.cache` only stays fixed if new code stops
growing fresh ad-hoc LRUs — which is exactly the kind of drift a lint
can catch at review time.

Scope: everywhere except ``cache/`` itself (the one sanctioned home of
the OrderedDict-recency idiom) and ``tests/`` (which exercise and
simulate cache behavior on purpose).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.context import FileContext
from repro.analyze.findings import Finding, Severity
from repro.analyze.rules.base import Rule, register_rule

#: The two OrderedDict calls that, together or alone, mean "this dict
#: is an LRU": recency refresh and oldest-first eviction.
_LRU_MARKERS = frozenset({"move_to_end", "popitem"})

#: Subsystems allowed to write the idiom: the cache package itself, and
#: tests (which exercise LRU semantics deliberately).
_EXEMPT = frozenset({"cache", "tests"})


@register_rule
class AdHocLRURule(Rule):
    id = "CACHE001"
    name = "ad-hoc OrderedDict LRU outside repro.cache"
    severity = Severity.WARNING
    rationale = (
        "an OrderedDict driven by move_to_end()/popitem(last=False) is "
        "a hand-rolled LRU — the pattern repro.cache.LRUCache "
        "centralizes with thread safety, a count cap, and uniform "
        "cache.* metrics.  The bespoke copies this subsystem replaced "
        "had each grown their own eviction and locking bugs; new ones "
        "will too.  Build on repro.cache (LRUCache / DiskTier) instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.subsystem() in _EXEMPT:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr not in _LRU_MARKERS:
                continue
            if attr == "popitem" and not _is_oldest_first(node):
                continue  # plain dict.popitem() is not the LRU idiom
            yield self.finding(
                ctx, node,
                f".{attr}() drives an ad-hoc LRU here — use "
                "repro.cache.LRUCache instead of a "
                "hand-rolled OrderedDict cache",
            )


def _is_oldest_first(node: ast.Call) -> bool:
    """``popitem(last=False)`` / ``popitem(False)`` — LRU eviction."""
    for kw in node.keywords:
        if kw.arg == "last" and _is_false(kw.value):
            return True
    return bool(node.args) and _is_false(node.args[0])


def _is_false(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is False
