"""repro.analyze — AST-based lint encoding this repo's own contracts.

The reproduction's credibility rests on invariants nothing used to
enforce: simulation/model/experiment code runs on virtual time and
seeded RNGs (``--jobs N`` is byte-identical to serial), the serving
layer never blocks its event loop, quantities carry the
:mod:`repro.units` conventions, and experiments declare their
characterization needs to the scheduler.  This package checks those
contracts statically, with stdlib :mod:`ast` only:

* a pluggable rule framework (:class:`Rule`, :class:`Finding`,
  :class:`Severity`, ``repro: noqa[RULE]`` line / ``noqa-file``
  module suppression);
* an engine walking a source tree with parent/scope tracking
  (:func:`analyze_paths`, :func:`analyze_source`);
* the shipped rule packs — DET (determinism), ASY (event-loop and
  shared-state discipline), UNIT (unit conventions), REG (registry and
  schema contracts);
* a text report with one gate: ``repro lint`` exits 1 on any finding,
  so every accepted exception is a ``noqa`` with a rationale.

Quickstart::

    from repro.analyze import analyze_source

    findings = analyze_source(
        "import time\\nt0 = time.time()\\n",
        path="src/repro/sim/example.py",
    )
    assert [f.rule_id for f in findings] == ["DET001"]

``repro lint`` is the CLI; ``docs/LINTING.md`` is the rule catalog.
"""

from __future__ import annotations

from repro.analyze.context import FileContext
from repro.analyze.engine import (
    AnalysisReport,
    analyze_paths,
    analyze_source,
    default_targets,
    iter_python_files,
    repo_root,
)
from repro.analyze.findings import Finding, Severity
from repro.analyze.rules import (
    Rule,
    all_rule_ids,
    get_rule,
    make_rules,
    register_rule,
)

__all__ = [
    "AnalysisReport",
    "FileContext",
    "Finding",
    "Rule",
    "Severity",
    "all_rule_ids",
    "analyze_paths",
    "analyze_source",
    "default_targets",
    "get_rule",
    "iter_python_files",
    "make_rules",
    "register_rule",
    "repo_root",
]
