"""CLI of the static-analysis subsystem: ``repro lint``.

A text report with one gate.  Exit codes follow lint convention: 0
clean, 1 findings, 2 the lint itself could not run (missing path,
syntax error, bad flags) — so CI can distinguish "code has problems"
from "tooling is broken".
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.errors import ReproError
from repro.analyze.engine import analyze_paths, default_targets
from repro.analyze.rules import make_rules


def build_lint_parser():
    import argparse

    p = argparse.ArgumentParser(
        prog="repro-knl lint",
        description=(
            "AST-based determinism/concurrency/units lint encoding this "
            "repo's correctness contracts (rule catalog: "
            "docs/LINTING.md)."
        ),
    )
    p.add_argument(
        "paths", nargs="*",
        help="files or directories to scan (default: the installed "
             "repro package sources)",
    )
    p.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help="run only this rule (repeatable); families work too "
             "via their ids, e.g. --rule DET001 --rule ASY003",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    p.add_argument(
        "--show-suppressed", action="store_true",
        help="list every finding a 'repro: noqa' marker dropped this pass",
    )
    p.add_argument("--quiet", action="store_true")
    return p


def _validate_rules(rule_ids: Optional[List[str]]) -> Optional[List[str]]:
    if rule_ids is None:
        return None
    make_rules(rule_ids)  # raises AnalysisError on unknown ids
    return rule_ids


def _print_rules() -> None:
    for rule in make_rules():
        print(f"{rule.id}  [{rule.severity.value:7s}] {rule.name}")


def main_lint(argv=None) -> int:
    """Entry point of ``repro lint``."""
    parser = build_lint_parser()
    args = parser.parse_args(argv)
    try:
        if args.list_rules:
            _print_rules()
            return 0
        rules = _validate_rules(args.rule)
        report = analyze_paths(args.paths or default_targets(), rules=rules)

        for f in report.findings:
            print(f.to_text())
            if f.snippet:
                print(f"    {f.snippet}")
        if args.show_suppressed:
            for hit in report.suppressed_hits:
                print(
                    f"{hit.path}:{hit.line}: {hit.rule_id} suppressed "
                    f"(noqa at line {hit.marker_line})"
                )
        if not args.quiet:
            print(
                f"[lint] {report.files_scanned} file(s), "
                f"{len(report.findings)} finding(s), "
                f"{report.suppressed} suppressed",
                file=sys.stderr,
            )
        return 0 if report.ok else 1
    except ReproError as e:  # AnalysisError and any other tooling fault
        print(f"[lint] error: {e}", file=sys.stderr)
        return 2
