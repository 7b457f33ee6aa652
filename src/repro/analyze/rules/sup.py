"""SUP pack: suppressions must earn their keep.

A ``repro: noqa[...]`` marker is a standing exception to a contract; once
the code under it changes, the exception outlives its reason and
starts hiding *future* violations on that line.  The engine tracks,
per marker token, whether it suppressed anything during the pass
(:class:`~repro.analyze.context.NoqaMarker.used`); SUP001 turns the
leftover tokens into findings.

The findings are emitted by the engine (suppression bookkeeping is
engine state, not AST state), so :func:`stale_suppressions` is the
real implementation and the registered rule class carries the
id/rationale/severity for the catalog and ``--rule`` selection.  A
token is only judged when this pass could have used it:
``noqa[DET001]`` is left alone by ``repro lint --rule ASY001``, and a
bare ``noqa`` or an unknown token is only judged by a full-rule-set
run.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analyze.context import ALL_RULES, NoqaMap
from repro.analyze.findings import Finding, Severity
from repro.analyze.rules.base import PassRule, register_rule


@register_rule
class UnusedSuppression(PassRule):
    id = "SUP001"
    name = "noqa suppression suppressed nothing"
    rationale = (
        "Every 'repro: noqa' marker is a hole in the lint: it silences "
        "named rules on that line forever, including violations "
        "introduced later.  When a pass ends with a marker token that "
        "matched no finding, the exception it encoded is stale — the "
        "offending code was fixed or moved — and the marker is now "
        "pure liability.  Remove it, or narrow a bare 'noqa' to the "
        "rule ids it actually needs.  Tokens for rules outside the "
        "current --rule selection are never judged, so partial runs "
        "cannot cry wolf."
    )
    severity = Severity.WARNING


def _checkable(token: str, selected_ids: Sequence[str], full_set: bool) -> bool:
    """Could this pass have used the token?  Exact ids and family
    prefixes are judged whenever a matching rule ran; a bare ``noqa``
    (matches anything) and unknown/typo tokens (match nothing, ever)
    need the full rule set to be judged fairly."""
    if token == ALL_RULES:
        return full_set
    if token in selected_ids:
        return True
    if any(
        rid.startswith(token) and rid[len(token):].isdigit()
        for rid in selected_ids
    ):
        return True
    return full_set


def stale_suppressions(
    path: str,
    noqa: NoqaMap,
    selected_ids: Sequence[str],
    full_set: bool,
) -> List[Finding]:
    """SUP001 findings for the markers of one file after its pass.

    Suppressing SUP001 itself takes an *explicit* ``SUP001``/``SUP``
    token on the line (marked used here) — a bare ``noqa`` covering
    its own staleness report would make bare markers unflaggable.
    """
    rule = UnusedSuppression()
    out: List[Finding] = []
    for marker in noqa.markers:
        unused = [
            t
            for t in marker.ids
            if _checkable(t, selected_ids, full_set) and t not in marker.used
        ]
        if not unused:
            continue
        explicit = [
            m
            for m in noqa.markers
            if (m.file_level or m.line == marker.line)
            and ("SUP001" in m.ids or "SUP" in m.ids)
        ]
        if explicit:
            for m in explicit:
                m.used.add("SUP001" if "SUP001" in m.ids else "SUP")
            continue
        label = ", ".join(
            "bare noqa" if t == ALL_RULES else t for t in unused
        )
        out.append(
            rule.pass_finding(
                path=path,
                line=marker.line,
                col=marker.col,
                message=(
                    f"suppression never used: {label} matched no "
                    "finding this pass; remove the marker or narrow "
                    "it to the rules it still needs"
                ),
            )
        )
    return out
