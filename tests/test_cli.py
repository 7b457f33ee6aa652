"""CLI entry point."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment is None
        assert not args.list

    def test_experiment_and_flags(self):
        args = build_parser().parse_args(["fig4", "--iterations", "7", "--seed", "3"])
        assert args.experiment == "fig4"
        assert args.iterations == 7
        assert args.seed == 3

    def test_runtime_flags(self):
        args = build_parser().parse_args(
            ["all", "--jobs", "8", "--no-cache", "--refresh",
             "--timeout", "30", "--retries", "2", "--quiet"]
        )
        assert args.jobs == 8
        assert args.no_cache and args.refresh and args.quiet
        assert args.timeout == 30.0
        assert args.retries == 2

    def test_runtime_flag_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.jobs == 1
        assert not args.no_cache and not args.refresh
        assert args.timeout is None and args.retries == 1

    @pytest.mark.parametrize("flag,value", [
        ("--timeout", "0"), ("--timeout", "-1"), ("--timeout", "nan"),
        ("--timeout", "inf"), ("--timeout", "soon"),
        ("--jobs", "0"), ("--jobs", "-2"), ("--jobs", "1.5"),
        ("--retries", "-1"), ("--retries", "x"),
    ])
    def test_bad_runtime_flags_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig4", flag, value, "--no-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower() and flag in err

    def test_runtime_flag_boundaries_accepted(self):
        args = build_parser().parse_args(
            ["fig4", "--jobs", "1", "--retries", "0", "--timeout", "0.5"])
        assert (args.jobs, args.retries, args.timeout) == (1, 0, 0.5)

    def test_obs_flags(self):
        args = build_parser().parse_args(
            ["run", "fig4", "fig9", "--trace", "t.json"]
        )
        assert args.experiment == "run"
        assert args.targets == ["fig4", "fig9"]
        assert args.trace == "t.json"
        assert args.format == "summary"
        args = build_parser().parse_args(["trace", "t.json", "--format", "text"])
        assert args.experiment == "trace" and args.targets == ["t.json"]
        assert args.format == "text"


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig10" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig6" in capsys.readouterr().out

    def test_runs_experiment(self, capsys):
        assert main(["fig4", "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "paper" in out.lower() or "remote" in out.lower()

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'; known: [" in err
        assert "'fig4'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["loadgen"],
            ["loadgen", "--self-host", "--concurrency", "64"],
            ["cache", "stress"],
        ],
        ids="-".join,
    )
    def test_removed_subcommand_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: repro-knl" in capsys.readouterr().err

    def test_runs_with_jobs_and_save_dir(self, tmp_path, capsys):
        save = tmp_path / "archive"
        code = main(
            ["fig4", "--iterations", "8", "--jobs", "2", "--quiet",
             "--cache-dir", str(tmp_path / "cache"),
             "--save-dir", str(save)]
        )
        assert code == 0
        assert (save / "fig4.json").exists()
        manifest = (save / "manifest.json").read_text()
        assert '"jobs": 2' in manifest and '"status": "done"' in manifest

    def test_cached_rerun_identical_json(self, tmp_path, capsys):
        argv = ["fig4", "--iterations", "8", "--json", "--quiet",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_no_cache_leaves_no_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(
            ["fig5", "--iterations", "5", "--no-cache", "--quiet",
             "--cache-dir", str(cache)]
        ) == 0
        assert not cache.exists()


class TestTraceWorkflow:
    def test_run_requires_ids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        assert "experiment id" in capsys.readouterr().err

    def test_trace_requires_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace"])
        assert exc.value.code == 2

    def test_run_trace_then_summarize(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        assert main(
            ["run", "fig4", "--iterations", "8", "--no-cache", "--quiet",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "runtime.execute" in names and "task:fig4" in names
        assert "metrics" in doc["otherData"]

        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "runtime.execute" in out and "span" in out.lower()

        assert main(["trace", str(trace), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0
        assert any(s["name"] == "task:fig4" for s in summary["spans"])

        assert main(["trace", str(trace), "--format", "text"]) == 0
        assert "task:fig4" in capsys.readouterr().out

    def test_suite_alias_parses(self):
        args = build_parser().parse_args(["suite", "--jobs", "2"])
        assert args.experiment == "suite" and args.jobs == 2

    def test_tracer_disabled_after_untraced_run(self, capsys):
        from repro.obs import tracing_enabled

        assert main(["fig4", "--iterations", "8", "--quiet",
                     "--no-cache"]) == 0
        capsys.readouterr()
        assert not tracing_enabled()


class TestReportErrors:
    def test_report_without_save_dir_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--save-dir" in err and "usage" in err.lower()

    def test_report_with_save_dir_renders(self, tmp_path, capsys):
        save = tmp_path / "archive"
        main(["fig5", "--iterations", "5", "--quiet", "--no-cache",
              "--save-dir", str(save)])
        capsys.readouterr()
        assert main(["report", "--save-dir", str(save)]) == 0
        assert "fig5" in capsys.readouterr().out


class TestRunManifestSchema:
    """``tests/fixtures/run_manifest/manifest.json`` is a v2 manifest
    written by ``repro fig4 --iterations 2 --no-cache --save-dir`` and
    committed as-is.  A run today must write the same keys, top level
    and per task, with the same value types."""

    FIXTURE = (pathlib.Path(__file__).resolve().parent / "fixtures"
               / "run_manifest" / "manifest.json")

    @staticmethod
    def _shape(doc):
        return (
            {k: type(v) for k, v in doc.items()},
            [{k: type(v) for k, v in t.items()} for t in doc["tasks"]],
        )

    def test_current_run_matches_committed_layout(self, tmp_path, capsys):
        save = tmp_path / "archive"
        assert main(["fig4", "--iterations", "2", "--no-cache", "--quiet",
                     "--save-dir", str(save)]) == 0
        capsys.readouterr()
        committed = json.loads(self.FIXTURE.read_text())
        current = json.loads((save / "manifest.json").read_text())
        assert committed["schema_version"] == 2
        assert current["schema_version"] == 2
        assert self._shape(current) == self._shape(committed)


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        from repro._version import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-knl {__version__}"

    def test_version_subcommand(self, capsys):
        from repro._version import __version__

        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == f"repro-knl {__version__}"


class TestServeDispatch:
    """`repro serve` owns its flag namespace."""

    def test_serve_help_reaches_the_serve_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--window-ms" in out and "--queue-limit" in out

    def test_serve_rejects_unknown_flags_with_its_own_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--jobs", "4"])
        assert exc.value.code == 2
        assert "serve" in capsys.readouterr().err


class TestLintDispatch:
    """`repro lint` — exit codes 0/1/2 and robust error paths."""

    def test_lint_help_reaches_the_lint_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--rule" in out and "--show-suppressed" in out
        assert "--baseline" not in out and "--format" not in out

    def test_list_rules_prints_the_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "ASY003", "UNIT001", "REG002"):
            assert rule_id in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        mod = tmp_path / "clean.py"
        mod.write_text("X = 1\n")
        assert main(["lint", str(mod)]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        mod = pkg / "dirty.py"
        mod.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "dirty.py:5" in out

    def test_nonexistent_path_exits_two_with_message(self, capsys):
        assert main(["lint", "/nonexistent/lint/target"]) == 2
        err = capsys.readouterr().err
        assert "[lint] error:" in err and "does not exist" in err
        assert "Traceback" not in err

    def test_directory_without_python_exits_two(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("hello\n")
        assert main(["lint", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no python files" in err and "Traceback" not in err

    def test_syntax_error_exits_two_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n    pass\n")
        assert main(["lint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err and "line 1" in err
        assert "Traceback" not in err

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "NOPE99"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--baseline"],
            ["--update-baseline"],
            ["--baseline-file", "x"],
            ["--format", "text"],
            ["--format", "json"],
            ["--format", "sarif"],
        ],
        ids=[
            "baseline", "update-baseline", "baseline-file",
            "format-text", "format-json", "format-sarif",
        ],
    )
    def test_deleted_gate_and_format_are_usage_errors(self, argv, capsys):
        # A deleted option must fail loudly, never be silently ignored.
        with pytest.raises(SystemExit) as exc:
            main(["lint", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLintIncrementalFlags:
    """--show-suppressed itemizes noqa'd findings; the incremental-lint
    flags (--cache-dir, --changed), deleted with the whole-program
    stage, are argparse usage errors."""

    def tree(self, tmp_path, body):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(body)
        return str(pkg / "mod.py")

    def test_show_suppressed_lists_each_dropped_finding(
        self, tmp_path, capsys
    ):
        mod = self.tree(
            tmp_path,
            "import time\nT = time.time()  # repro: noqa[DET001]\n",
        )
        assert main(["lint", mod, "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "DET001 suppressed (noqa at line 2)" in out

    @pytest.mark.parametrize(
        "argv",
        [["--changed"], ["--changed", "main"], ["--cache-dir", "lc"]],
        ids=["changed", "changed-ref", "cache-dir"],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
