"""The analysis engine: walk sources, run rules, filter suppressions.

One stage per file: parse it into a
:class:`~repro.analyze.context.FileContext` (parent links + noqa map),
run every selected rule, and drop the suppressed findings.  Two rules
then judge the pass as a whole: OBS001 reconciles the metric names
every file emits against the ``docs/OBSERVABILITY.md`` glossary
(whole-tree scans only), and SUP001 reports noqa markers that
suppressed nothing.  OBS001 findings go through the same per-file
noqa filter.

All policy lives in the rules; the text report and its exit-code gate
live in :mod:`~repro.analyze.cli`.

Observability: ``lint.files`` counts files scanned, ``lint.findings``
and ``lint.findings.<RULE>`` count surviving findings and
``lint.suppressed`` the dropped ones; the whole pass runs under a
``lint.run`` span with a ``lint.file`` span per file.
"""

from __future__ import annotations

import ast
import importlib.util
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.analyze.context import FileContext, NoqaMap
from repro.analyze.findings import Finding
from repro.analyze.rules import Rule, make_rules
from repro.analyze.rules.obsdoc import glossary_drift, metric_sites
from repro.analyze.rules.sup import stale_suppressions
from repro.obs import counter, span


@dataclass
class SuppressionHit:
    """One finding dropped by a ``repro: noqa`` marker."""

    rule_id: str
    path: str
    line: int
    marker_line: int


@dataclass
class AnalysisReport:
    """Outcome of one analysis pass over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Findings dropped by ``repro: noqa`` suppressions.
    suppressed: int = 0
    #: Every suppression, itemized (``--show-suppressed``).
    suppressed_hits: List[SuppressionHit] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self) -> dict:
        out: dict = {}
        for f in self.findings:
            out[f.rule_id] = out.get(f.rule_id, 0) + 1
        return out


def package_root() -> str:
    """Directory of the installed ``repro`` package sources."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def repo_root() -> str:
    """Best-effort repository root: the directory holding ``src/``
    (falls back to the package parent when not in a src layout)."""
    pkg = package_root()
    parent = os.path.dirname(pkg)
    if os.path.basename(parent) == "src":
        return os.path.dirname(parent)
    return parent


def default_targets() -> List[str]:
    """What ``repro lint`` scans when given no paths: its own package."""
    return [package_root()]


def iter_python_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__"
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _relative_path(path: str, root: Optional[str]) -> str:
    ap = os.path.abspath(path)
    base = os.path.abspath(root) if root else os.getcwd()
    try:
        rel = os.path.relpath(ap, base)
    except ValueError:  # different drive (windows)
        rel = ap
    if rel.startswith(".."):
        rel = ap
    return rel.replace(os.sep, "/")


def _covers_package(targets: Sequence[str]) -> bool:
    """Does the scan include the whole installed package?  Gates rules
    that need a complete view of the tree (OBS001)."""
    pkg = os.path.abspath(package_root())
    for target in targets:
        t = os.path.abspath(target)
        if t == pkg or pkg.startswith(t + os.sep):
            return True
    return False


# -- per-file stage ---------------------------------------------------------


@dataclass
class _FileResult:
    """Everything one file contributes to the pass."""

    path: str
    findings: List[Finding]
    suppressed_hits: List[SuppressionHit]
    noqa: NoqaMap
    #: OBS001 emission sites (collected on whole-tree passes only).
    metrics: List[Tuple[str, str, int]]


def _hits(finding: Finding, matched) -> List[SuppressionHit]:
    return [
        SuppressionHit(
            rule_id=finding.rule_id,
            path=finding.path,
            line=finding.line,
            marker_line=m.line,
        )
        for m in matched
    ]


def _decode(raw: bytes, path: str) -> str:
    """Source text per PEP 263 (``coding:`` cookie, BOM, else UTF-8)."""
    try:
        return importlib.util.decode_source(raw)
    except (SyntaxError, UnicodeDecodeError) as e:
        raise AnalysisError(f"cannot decode {path}: {e}") from e


def _run_file_rules(
    source: str, path: str, rules: Sequence[Rule], collect_metrics: bool
) -> _FileResult:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as e:
        raise AnalysisError(
            f"cannot parse {path}: line {e.lineno}: {e.msg}"
        ) from e
    ctx = FileContext(path, source, tree)
    findings: List[Finding] = []
    hits: List[SuppressionHit] = []
    with span("lint.file", category="lint", path=path):
        for rule in rules:
            for finding in rule.check(ctx):
                matched = ctx.noqa.suppress(finding.rule_id, finding.line)
                if matched:
                    hits.extend(_hits(finding, matched))
                else:
                    findings.append(finding)
    return _FileResult(
        path=path,
        findings=findings,
        suppressed_hits=hits,
        noqa=ctx.noqa,
        metrics=metric_sites(ctx) if collect_metrics else [],
    )


# -- whole-pass rules -------------------------------------------------------


def _run_pass_rules(
    results: List[_FileResult],
    selected_ids: List[str],
    full_set: bool,
    full_tree: bool,
    base: str,
    report: AnalysisReport,
) -> None:
    if full_tree and "OBS001" in selected_ids:
        noqa_of = {r.path: r.noqa for r in results}
        emitted = [site for r in results for site in r.metrics]
        for finding in glossary_drift(emitted, base):
            noqa = noqa_of.get(finding.path)
            matched = (
                noqa.suppress(finding.rule_id, finding.line)
                if noqa is not None
                else None
            )
            if matched:
                report.suppressed += len(matched)
                report.suppressed_hits.extend(_hits(finding, matched))
            else:
                report.findings.append(finding)
    if "SUP001" in selected_ids:
        for result in results:
            # stale_suppressions handles its own (explicit-token-only)
            # suppression — a generic noqa filter here would let a bare
            # marker silence its own staleness report.
            report.findings.extend(
                stale_suppressions(
                    result.path, result.noqa, selected_ids, full_set
                )
            )


# -- entry points -----------------------------------------------------------


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Analyze one in-memory source blob.

    ``path`` is virtual but meaningful: rules scope themselves by it
    (``src/repro/sim/x.py`` gets the DET pack, ``src/repro/serve/x.py``
    the ASY pack).  A one-file pass is never a whole-tree scan, so
    OBS001 stays quiet.  Returns surviving findings sorted by location.
    """
    rule_objs = make_rules(rules)
    result = _run_file_rules(source, path, rule_objs, collect_metrics=False)
    report = AnalysisReport(findings=list(result.findings), files_scanned=1)
    _run_pass_rules(
        [result],
        [r.id for r in rule_objs],
        full_set=rules is None,
        full_tree=False,
        base="",
        report=report,
    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return report.findings


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
) -> AnalysisReport:
    """Analyze every ``.py`` file under each path.

    Raises :class:`AnalysisError` for a missing path, a target with no
    python files, or an undecodable or unparseable file — *running*
    the lint failing is distinct from the lint *finding* something.
    """
    rule_objs = make_rules(rules)
    selected_ids = [r.id for r in rule_objs]
    full_tree = _covers_package(paths)
    collect_metrics = full_tree and "OBS001" in selected_ids
    base = root or repo_root()
    report = AnalysisReport()
    results: List[_FileResult] = []
    with span("lint.run", category="lint", targets=len(paths)):
        files: List[str] = []
        for target in paths:
            if not os.path.exists(target):
                raise AnalysisError(f"lint target does not exist: {target}")
            found = list(iter_python_files(target))
            if not found:
                raise AnalysisError(
                    f"lint target has no python files: {target}"
                )
            files.extend(found)
        for fp in files:
            with open(fp, "rb") as fh:
                raw = fh.read()
            relpath = _relative_path(fp, base)
            result = _run_file_rules(
                _decode(raw, relpath), relpath, rule_objs, collect_metrics
            )
            results.append(result)
            report.files_scanned += 1
            counter("lint.files").inc()
            report.findings.extend(result.findings)
            report.suppressed += len(result.suppressed_hits)
            report.suppressed_hits.extend(result.suppressed_hits)
        _run_pass_rules(
            results,
            selected_ids,
            full_set=rules is None,
            full_tree=full_tree,
            base=base,
            report=report,
        )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    counter("lint.findings").inc(len(report.findings))
    counter("lint.suppressed").inc(report.suppressed)
    for rule_id, n in report.by_rule().items():
        counter(f"lint.findings.{rule_id}").inc(n)
    return report
