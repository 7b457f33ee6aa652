"""Engine mechanics: suppression grammar, baseline gating, SARIF shape."""

import json
import textwrap

import pytest

from repro.analyze import (
    BASELINE_SCHEMA_VERSION,
    Baseline,
    SARIF_VERSION,
    all_rule_ids,
    analyze_paths,
    analyze_source,
    to_sarif,
)
from repro.analyze.cli import main_lint
from repro.analyze.engine import AnalysisReport
from repro.errors import AnalysisError

DIRTY = textwrap.dedent(
    """
    import time

    def step():
        return time.time()
    """
)

SIM_PATH = "src/repro/sim/mod.py"


def lint(source, path=SIM_PATH, rules=None):
    return analyze_source(textwrap.dedent(source), path=path, rules=rules)


class TestNoqa:
    def test_bare_noqa_suppresses_everything_on_the_line(self):
        found = lint(
            """
            import time

            def step():
                return time.time()  # repro: noqa
            """
        )
        assert found == []

    def test_rule_specific_noqa_suppresses_only_that_rule(self):
        found = lint(
            """
            import time
            import random

            def step():
                return time.time() + random.random()  # repro: noqa[DET001]
            """
        )
        assert [f.rule_id for f in found] == ["DET002"]

    def test_family_prefix_covers_every_member(self):
        found = lint(
            """
            import time
            import random

            def step():
                return time.time() + random.random()  # repro: noqa[DET]
            """
        )
        assert found == []

    def test_unrelated_rule_noqa_does_not_suppress(self):
        found = lint(
            """
            import time

            def step():
                return time.time()  # repro: noqa[ASY001]
            """
        )
        # The DET001 still fires, and the ASY001 token — which
        # suppressed nothing — is itself flagged stale by SUP001.
        assert [f.rule_id for f in found] == ["DET001", "SUP001"]

    def test_file_level_noqa_covers_the_whole_module(self):
        found = lint(
            """
            # repro: noqa-file[DET001] — telemetry module
            import time

            def a():
                return time.time()

            def b():
                return time.time()
            """
        )
        assert found == []

    def test_multiple_rules_in_one_marker(self):
        found = lint(
            """
            import time
            import random

            def step():
                return time.time() + random.random()  # repro: noqa[DET001, DET002]
            """
        )
        assert found == []


class TestAnalyzePaths:
    def test_scans_a_tree_and_reports(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text(DIRTY)
        (pkg / "clean.py").write_text("X = 1\n")
        report = analyze_paths([str(tmp_path)], root=str(tmp_path))
        assert report.files_scanned == 2
        assert [f.rule_id for f in report.findings] == ["DET001"]
        assert report.findings[0].path == "src/repro/sim/dirty.py"
        assert not report.ok
        assert report.by_rule() == {"DET001": 1}

    def test_suppressed_findings_are_counted(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(
            "import time\nT = time.time()  # repro: noqa[DET001]\n"
        )
        report = analyze_paths([str(tmp_path)], root=str(tmp_path))
        assert report.ok
        assert report.suppressed == 1

    def test_missing_target_raises(self):
        with pytest.raises(AnalysisError, match="does not exist"):
            analyze_paths(["/nonexistent/lint/target"])

    def test_target_without_python_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello\n")
        with pytest.raises(AnalysisError, match="no python files"):
            analyze_paths([str(tmp_path)])

    def test_syntax_error_raises_with_location(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n    pass\n")
        with pytest.raises(AnalysisError, match="cannot parse"):
            analyze_paths([str(bad)])

    def test_pep263_source_is_decoded_by_its_cookie(self, tmp_path):
        mod = tmp_path / "latin.py"
        mod.write_bytes(b"# -*- coding: latin-1 -*-\nx = \"\xe9\"\n")
        report = analyze_paths([str(mod)], root=str(tmp_path))
        assert report.files_scanned == 1 and report.ok

    def test_undecodable_source_raises(self, tmp_path):
        mod = tmp_path / "binary.py"
        mod.write_bytes(b"x = 1\ny = \"\xff\xfe\"\n")
        with pytest.raises(AnalysisError, match="cannot decode"):
            analyze_paths([str(mod)], root=str(tmp_path))
        assert main_lint([str(mod), "--quiet"]) == 2

    def test_emits_obs_counters(self, tmp_path):
        from repro.obs import metrics_snapshot, reset_metrics

        reset_metrics()
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text(DIRTY)
        analyze_paths([str(tmp_path)], root=str(tmp_path))
        snap = metrics_snapshot()
        assert snap["lint.files"]["value"] == 1
        assert snap["lint.findings"]["value"] == 1
        assert snap["lint.findings.DET001"]["value"] == 1


class TestBaseline:
    def test_diff_splits_new_known_stale(self):
        old = lint(DIRTY)
        baseline = Baseline.from_findings(old)
        # Same findings again: all known, nothing new or stale.
        diff = baseline.diff(lint(DIRTY))
        assert diff.new == [] and len(diff.known) == 1 and diff.stale == []
        # A different finding is new; the old identity becomes stale.
        fresh = lint(
            """
            import random

            def step():
                return random.random()
            """
        )
        diff = baseline.diff(fresh)
        assert [f.rule_id for f in diff.new] == ["DET002"]
        assert len(diff.stale) == 1

    def test_identity_is_line_independent(self):
        moved = lint("\n\n\n" + DIRTY)  # same code, shifted down
        baseline = Baseline.from_findings(lint(DIRTY))
        diff = baseline.diff(moved)
        assert diff.new == [] and len(diff.known) == 1

    def test_count_overflow_counts_as_new(self):
        baseline = Baseline.from_findings(lint(DIRTY))
        doubled = lint(
            """
            import time

            def step():
                return time.time()

            def step2():
                return time.time()
            """
        )
        # Messages are identical (same rule/path/message), so the two
        # occurrences share an identity; the baseline accepted one.
        diff = baseline.diff(doubled)
        assert len(diff.known) == 1 and len(diff.new) == 1

    def test_write_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "lint-baseline.json")
        baseline = Baseline.from_findings(lint(DIRTY))
        baseline.write(path)
        doc = json.load(open(path))
        assert doc["schema_version"] == BASELINE_SCHEMA_VERSION
        (entry,) = doc["entries"].values()
        assert entry["rule"] == "DET001" and entry["count"] == 1
        assert entry["path"] == SIM_PATH
        loaded = Baseline.load(path)
        assert loaded.counts == baseline.counts

    def test_load_errors_are_analysis_errors(self, tmp_path):
        with pytest.raises(AnalysisError, match="not found"):
            Baseline.load(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(AnalysisError, match="not valid JSON"):
            Baseline.load(str(bad))
        future = tmp_path / "future.json"
        future.write_text(
            json.dumps({"schema_version": 999, "entries": {}})  # repro: noqa[REG002] — fixture: a deliberately foreign version
        )
        with pytest.raises(AnalysisError, match="schema_version"):
            Baseline.load(str(future))

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {
                "schema_version": BASELINE_SCHEMA_VERSION,
                "entries": {"k": "oops"},
            },
            {
                "schema_version": BASELINE_SCHEMA_VERSION,
                "entries": {"k": {"count": "x"}},
            },
        ],
        ids=["not-an-object", "entry-not-an-object", "count-not-an-int"],
    )
    def test_malformed_baseline_is_a_tooling_error(self, doc, tmp_path):
        bl = tmp_path / "lint-baseline.json"
        bl.write_text(json.dumps(doc))
        with pytest.raises(AnalysisError):
            Baseline.load(str(bl))
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        argv = [str(clean), "--baseline", "--baseline-file", str(bl)]
        assert main_lint(argv + ["--quiet"]) == 2


class TestSarif:
    def report(self):
        findings = lint(DIRTY)
        return AnalysisReport(findings=findings, files_scanned=1)

    def test_document_shape(self):
        doc = to_sarif(self.report())
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {r["id"] for r in driver["rules"]} == set(all_rule_ids())
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note",
            )

    def test_results_reference_the_rule_table(self):
        doc = to_sarif(self.report())
        (run,) = doc["runs"]
        rules = run["tool"]["driver"]["rules"]
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        assert rules[result["ruleIndex"]]["id"] == "DET001"
        assert result["level"] == "error"
        assert result["message"]["text"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == SIM_PATH
        assert loc["region"]["startLine"] == 5
        assert loc["region"]["startColumn"] >= 1

    def test_rules_carry_help_uris_into_the_catalog(self):
        doc = to_sarif(self.report())
        for rule in doc["runs"][0]["tool"]["driver"]["rules"]:
            uri = rule["helpUri"]
            assert uri == f"docs/LINTING.md#{rule['id'].lower()}"

    def test_region_carries_end_line_and_column(self):
        doc = to_sarif(self.report())
        (result,) = doc["runs"][0]["results"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["endLine"] >= region["startLine"]
        # SARIF endColumn is exclusive: one past the last character.
        assert region["endColumn"] > region["startColumn"]

    def test_region_omits_end_fields_when_unknown(self):
        # A finding without span info must not emit endLine/endColumn:
        # SARIF forbids zero values there, absence is the wire format.
        from repro.analyze.findings import Finding

        report = AnalysisReport(
            findings=[
                Finding(
                    rule_id="DET001",
                    path=SIM_PATH,
                    line=3,
                    col=5,
                    message="spanless",
                )
            ],
            files_scanned=1,
        )
        region = to_sarif(report)["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]
        assert region == {"startLine": 3, "startColumn": 5}

    def test_sarif_is_json_serializable(self):
        json.dumps(to_sarif(self.report()))
