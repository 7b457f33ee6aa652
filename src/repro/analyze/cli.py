"""CLI of the static-analysis subsystem: ``repro lint``.

Exit codes follow lint convention: 0 clean (or nothing new vs the
baseline), 1 findings, 2 the lint itself could not run (missing path,
syntax error, bad flags) — so CI can distinguish "code has problems"
from "tooling is broken".
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from repro.errors import AnalysisError, ReproError
from repro.analyze.baseline import Baseline, default_baseline_path
from repro.analyze.engine import analyze_paths, default_targets
from repro.analyze.rules import make_rules
from repro.analyze.sarif import to_sarif


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
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text)",
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
    gate = p.add_argument_group("CI gating")
    gate.add_argument(
        "--baseline", action="store_true",
        help="compare against the committed baseline and fail only on "
             "new findings",
    )
    gate.add_argument(
        "--baseline-file", default=None, metavar="PATH",
        help="baseline location (default: lint-baseline.json at the "
             "repo root)",
    )
    gate.add_argument(
        "--update-baseline", action="store_true",
        help="write the current findings as the new baseline and exit 0",
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

        baseline_path = args.baseline_file or default_baseline_path()
        if args.update_baseline:
            Baseline.from_findings(report.findings).write(baseline_path)
            if not args.quiet:
                print(
                    f"[lint] baseline written: {baseline_path} "
                    f"({len(report.findings)} finding(s))",
                    file=sys.stderr,
                )
            return 0

        gated = report.findings
        stale = 0
        if args.baseline:
            diff = Baseline.load(baseline_path).diff(report.findings)
            gated = diff.new
            stale = len(diff.stale)

        _emit(args, report, gated)
        if args.show_suppressed and args.format == "text":
            for hit in report.suppressed_hits:
                print(
                    f"{hit.path}:{hit.line}: {hit.rule_id} suppressed "
                    f"(noqa at line {hit.marker_line})"
                )
        if not args.quiet and args.format == "text":
            vs = " new vs baseline" if args.baseline else ""
            print(
                f"[lint] {report.files_scanned} file(s), "
                f"{len(gated)} finding(s){vs}, "
                f"{report.suppressed} suppressed"
                + (f", {stale} stale baseline entr(ies)" if stale else ""),
                file=sys.stderr,
            )
        return 1 if gated else 0
    except AnalysisError as e:
        print(f"[lint] error: {e}", file=sys.stderr)
        return 2
    except ReproError as e:
        print(f"[lint] error: {e}", file=sys.stderr)
        return 2


def _emit(args, report, gated) -> None:
    if args.format == "sarif":
        sarif_report = type(report)(
            findings=gated,
            files_scanned=report.files_scanned,
            suppressed=report.suppressed,
        )
        print(json.dumps(to_sarif(sarif_report, args.rule), indent=2))
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "files": report.files_scanned,
                    "suppressed": report.suppressed,
                    "findings": [f.to_dict() for f in gated],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for f in gated:
            print(f.to_text())
            if f.snippet:
                print(f"    {f.snippet}")
