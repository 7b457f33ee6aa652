"""Engine mechanics: suppression grammar and path walking."""

import textwrap

import pytest

from repro.analyze import analyze_paths, analyze_source
from repro.analyze.cli import main_lint
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
