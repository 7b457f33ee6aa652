"""Fixture tests for every lint rule: ≥1 true positive + ≥1 true negative.

Each case feeds :func:`repro.analyze.analyze_source` an in-memory
snippet under a *virtual* path — rules scope themselves by the path, so
``src/repro/sim/x.py`` exercises the DET pack and ``src/repro/serve/x.py``
the ASY pack without touching the real tree.
"""

import textwrap

from repro.analyze import all_rule_ids, analyze_source


def lint(source, path="src/repro/sim/mod.py", rules=None):
    return analyze_source(textwrap.dedent(source), path=path, rules=rules)


def ids(findings):
    return [f.rule_id for f in findings]


class TestDET001WallClock:
    def test_flags_wall_clock_in_sim(self):
        found = lint(
            """
            import time

            def step():
                return time.time()
            """,
            path="src/repro/sim/engine.py",
        )
        assert ids(found) == ["DET001"]
        assert found[0].line == 5
        assert "time.time" in found[0].message

    def test_flags_datetime_now_in_model(self):
        found = lint(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            path="src/repro/model/capability.py",
            rules=["DET001"],
        )
        assert ids(found) == ["DET001"]

    def test_bench_and_obs_are_exempt(self):
        src = """
        import time

        def measure():
            return time.perf_counter()
        """
        assert lint(src, path="src/repro/bench/timers.py") == []
        assert lint(src, path="src/repro/obs/tracing.py") == []

    def test_virtual_clock_is_clean(self):
        found = lint(
            """
            def step(clock):
                return clock.now_ns()
            """,
            path="src/repro/sim/engine.py",
        )
        assert found == []


class TestDET002UnseededRandom:
    def test_flags_stdlib_random_even_aliased(self):
        found = lint(
            """
            import random as rnd

            def jitter():
                return rnd.random()
            """,
            rules=["DET002"],
        )
        assert ids(found) == ["DET002"]

    def test_flags_numpy_global_rng(self):
        found = lint(
            """
            import numpy as np

            def shuffle(xs):
                np.random.shuffle(xs)
                np.random.seed(0)
            """,
            rules=["DET002"],
        )
        assert ids(found) == ["DET002", "DET002"]

    def test_flags_unseeded_default_rng(self):
        found = lint(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            rules=["DET002"],
        )
        assert ids(found) == ["DET002"]

    def test_seeded_generator_is_clean(self):
        found = lint(
            """
            import numpy as np

            def make(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()
            """,
            rules=["DET002"],
        )
        assert found == []


class TestDET003SetOrder:
    def test_flags_set_materialized_into_list(self):
        found = lint(
            """
            def keys(items):
                return list({i.key for i in items})
            """,
            rules=["DET003"],
        )
        assert ids(found) == ["DET003"]

    def test_flags_dict_view_into_cache_key(self):
        found = lint(
            """
            def address(cfg, cache_key):
                return cache_key(cfg.keys())
            """,
            rules=["DET003"],
        )
        assert ids(found) == ["DET003"]

    def test_flags_iterating_a_set(self):
        found = lint(
            """
            def walk(s):
                for x in set(s):
                    yield x
            """,
            rules=["DET003"],
        )
        assert ids(found) == ["DET003"]

    def test_sorted_set_is_clean(self):
        found = lint(
            """
            def keys(items):
                return sorted({i.key for i in items})

            def walk(s):
                for x in sorted(set(s)):
                    yield x
            """,
            rules=["DET003"],
        )
        assert found == []


class TestDET004EnvRead:
    def test_flags_env_read_in_plain_function(self):
        found = lint(
            """
            import os

            def load():
                return os.environ.get("REPRO_SEED")
            """,
            path="src/repro/runtime/pool.py",
            rules=["DET004"],
        )
        assert ids(found) == ["DET004"]
        assert "load()" in found[0].message

    def test_flags_module_level_getenv(self):
        found = lint(
            """
            import os

            SEED = os.getenv("REPRO_SEED")
            """,
            rules=["DET004"],
        )
        assert ids(found) == ["DET004"]
        assert "module level" in found[0].message

    def test_config_entry_points_are_sanctioned(self):
        found = lint(
            """
            import os

            def default_cache_dir():
                return os.environ.get("REPRO_CACHE_DIR")

            def faults_from_env():
                return os.environ["REPRO_FAULTS"]
            """,
            path="src/repro/runtime/cache.py",
            rules=["DET004"],
        )
        assert found == []


class TestASY001BlockingInAsync:
    def test_flags_time_sleep_in_async_def(self):
        found = lint(
            """
            import time

            async def handler():
                time.sleep(0.1)
            """,
            path="src/repro/serve/app.py",
            rules=["ASY001"],
        )
        assert ids(found) == ["ASY001"]

    def test_flags_sync_file_io_in_async_def(self):
        found = lint(
            """
            async def dump(path, doc):
                path.write_text(doc)
            """,
            path="src/repro/serve/artifacts.py",
            rules=["ASY001"],
        )
        assert ids(found) == ["ASY001"]

    def test_asyncio_sleep_is_clean(self):
        found = lint(
            """
            import asyncio

            async def handler():
                await asyncio.sleep(0.1)
            """,
            path="src/repro/serve/app.py",
            rules=["ASY001"],
        )
        assert found == []

    def test_sync_closure_inside_async_is_exempt(self):
        # The to_thread pattern: the blocking call runs off-loop.
        found = lint(
            """
            import asyncio
            import time

            async def handler():
                def work():
                    time.sleep(0.1)
                await asyncio.to_thread(work)
            """,
            path="src/repro/serve/app.py",
            rules=["ASY001"],
        )
        assert found == []

    def test_out_of_scope_subsystem_is_exempt(self):
        found = lint(
            """
            import time

            async def handler():
                time.sleep(0.1)
            """,
            path="src/repro/bench/runner.py",
            rules=["ASY001"],
        )
        assert found == []


class TestASY002UnlockedSharedState:
    def test_flags_unlocked_mutation_of_module_dict(self):
        found = lint(
            """
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value
            """,
            path="src/repro/serve/app.py",
            rules=["ASY002"],
        )
        assert ids(found) == ["ASY002"]
        assert "_CACHE" in found[0].message

    def test_locked_mutation_is_clean(self):
        found = lint(
            """
            import threading

            _CACHE = {}
            _LOCK = threading.Lock()

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value
            """,
            path="src/repro/serve/app.py",
            rules=["ASY002"],
        )
        assert found == []

    def test_module_init_population_is_clean(self):
        found = lint(
            """
            _DEFAULTS = {}
            _DEFAULTS["port"] = 8080
            """,
            path="src/repro/serve/app.py",
            rules=["ASY002"],
        )
        assert found == []


class TestASY003DanglingTask:
    def test_flags_discarded_create_task(self):
        found = lint(
            """
            import asyncio

            async def kick(coro):
                asyncio.create_task(coro)
            """,
            path="src/repro/serve/batcher.py",
            rules=["ASY003"],
        )
        assert ids(found) == ["ASY003"]

    def test_flags_loop_chain_create_task(self):
        # The form the lint actually caught in serve/batcher.py.
        found = lint(
            """
            import asyncio

            def kick(coro):
                asyncio.get_running_loop().create_task(coro)
            """,
            path="src/repro/serve/batcher.py",
            rules=["ASY003"],
        )
        assert ids(found) == ["ASY003"]

    def test_kept_or_awaited_task_is_clean(self):
        found = lint(
            """
            import asyncio

            async def kick(tasks, coro):
                task = asyncio.create_task(coro)
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                await asyncio.create_task(coro)
            """,
            path="src/repro/serve/batcher.py",
            rules=["ASY003"],
        )
        assert found == []


class TestUNIT001SuspiciousMagnitude:
    def test_flags_ns_count_passed_as_seconds(self):
        found = lint(
            """
            def go(configure):
                configure(window_s=2_000_000_000)
            """,
            rules=["UNIT001"],
        )
        assert ids(found) == ["UNIT001"]
        assert "window_s" in found[0].message

    def test_flags_fractional_bytes(self):
        found = lint(
            """
            def go(alloc):
                alloc(payload_bytes=0.5)
            """,
            rules=["UNIT001"],
        )
        assert ids(found) == ["UNIT001"]

    def test_plausible_literals_are_clean(self):
        found = lint(
            """
            def go(configure, alloc):
                configure(window_s=0.002)
                configure(skew_sigma_ns=120.0)
                configure(timeout_s=0)
                alloc(payload_bytes=4096)
            """,
            rules=["UNIT001"],
        )
        assert found == []


class TestUNIT002MixedUnitConstants:
    def test_flags_bytes_plus_time(self):
        found = lint(
            """
            from repro.units import GIB, NS_PER_S

            TOTAL = GIB + NS_PER_S
            """,
            rules=["UNIT002"],
        )
        assert ids(found) == ["UNIT002"]
        assert "bytes" in found[0].message and "ns/s" in found[0].message

    def test_same_dimension_and_ratios_are_clean(self):
        found = lint(
            """
            from repro.units import CYCLE_NS, GIB, MIB

            SIZE = GIB + MIB
            RATE = GIB / CYCLE_NS
            """,
            rules=["UNIT002"],
        )
        assert found == []


class TestREG001UndeclaredNeeds:
    def test_flags_register_without_needs(self):
        found = lint(
            """
            from repro.experiments.registry import register

            @register("fig4")
            def run(machine):
                bundle = characterize(machine)
                return bundle
            """,
            path="src/repro/experiments/fig4.py",
            rules=["REG001"],
        )
        assert ids(found) == ["REG001"]

    def test_declared_needs_is_clean(self):
        found = lint(
            """
            from repro.experiments.registry import register

            @register("fig4", needs=("bandwidth",))
            def run(machine):
                return characterize(machine)
            """,
            path="src/repro/experiments/fig4.py",
            rules=["REG001"],
        )
        assert found == []

    def test_helper_modules_and_other_subsystems_exempt(self):
        src = """
        from repro.experiments.registry import register

        @register("fig4")
        def run(machine):
            return characterize(machine)
        """
        assert lint(src, path="src/repro/experiments/_helpers.py",
                    rules=["REG001"]) == []
        assert lint(src, path="src/repro/model/fit.py",
                    rules=["REG001"]) == []


class TestREG002SchemaVersionLiteral:
    def test_flags_dict_literal_version(self):
        found = lint(
            """
            def manifest():
                return {"schema_version": 2}
            """,
            path="src/repro/runtime/progress.py",
            rules=["REG002"],
        )
        assert ids(found) == ["REG002"]

    def test_flags_keyword_literal_version(self):
        found = lint(
            """
            def save(write):
                write(schema_version=3)
            """,
            path="src/repro/serve/artifacts.py",
            rules=["REG002"],
        )
        assert ids(found) == ["REG002"]

    def test_flags_subscript_assignment(self):
        """The store-manifest shape of the mistake: a writer patching a
        loaded document in place."""
        found = lint(
            """
            def migrate(doc):
                doc["schema_version"] = 3
                return doc
            """,
            path="src/repro/store/store.py",
            rules=["REG002"],
        )
        assert ids(found) == ["REG002"]
        assert "subscript" in found[0].message

    def test_constant_reference_is_clean(self):
        found = lint(
            """
            MANIFEST_SCHEMA_VERSION = 2

            def manifest(write):
                write(schema_version=MANIFEST_SCHEMA_VERSION)
                doc = {"schema_version": MANIFEST_SCHEMA_VERSION}
                doc["schema_version"] = MANIFEST_SCHEMA_VERSION
                doc["other_key"] = 3
                return doc
            """,
            path="src/repro/runtime/progress.py",
            rules=["REG002"],
        )
        assert found == []


class TestCACHE001AdHocLRU:
    def test_flags_move_to_end_outside_cache(self):
        found = lint(
            """
            def refresh(entries, key):
                entries.move_to_end(key)
                return entries[key]
            """,
            path="src/repro/serve/plans.py",
            rules=["CACHE001"],
        )
        assert ids(found) == ["CACHE001"]
        assert "move_to_end" in found[0].message
        assert "repro.cache" in found[0].message

    def test_flags_oldest_first_popitem(self):
        # Both spellings of LRU eviction: keyword and positional.
        found = lint(
            """
            def evict(entries):
                entries.popitem(last=False)
                entries.popitem(False)
            """,
            path="src/repro/runtime/pool.py",
            rules=["CACHE001"],
        )
        assert ids(found) == ["CACHE001", "CACHE001"]

    def test_plain_popitem_is_clean(self):
        # Newest-first popitem is a stack pop, not the LRU idiom.
        found = lint(
            """
            def pop_any(d):
                return d.popitem()
            """,
            path="src/repro/serve/plans.py",
            rules=["CACHE001"],
        )
        assert found == []

    def test_cache_package_and_tests_are_exempt(self):
        src = """
        def evict(entries):
            entries.move_to_end("k")
            entries.popitem(last=False)
        """
        assert lint(src, path="src/repro/cache/lru.py",
                    rules=["CACHE001"]) == []
        assert lint(src, path="tests/test_cache.py",
                    rules=["CACHE001"]) == []


class TestOBS001GlossarySync:
    """OBS001 judges whole-tree scans only: collect one file's emissions
    with ``metric_sites`` and reconcile them by hand, or point the
    engine's package root at a temp tree."""

    GLOSSARY = textwrap.dedent(
        """
        | name | type | unit | meaning |
        |---|---|---|---|
        | `demo.hits` | counter | lookups | documented and emitted |
        | `demo.gone` | counter | calls | documented but never emitted |
        """
    )

    def write_glossary(self, tmp_path, glossary=None):
        docs = tmp_path / "docs"
        docs.mkdir(exist_ok=True)
        (docs / "OBSERVABILITY.md").write_text(glossary or self.GLOSSARY)

    def drift(self, source, tmp_path, glossary=None):
        import ast

        from repro.analyze.context import FileContext
        from repro.analyze.rules.obsdoc import glossary_drift, metric_sites

        self.write_glossary(tmp_path, glossary)
        source = textwrap.dedent(source)
        ctx = FileContext("src/repro/demo/mod.py", source, ast.parse(source))
        return list(glossary_drift(metric_sites(ctx), str(tmp_path)))

    def package(self, source, tmp_path):
        pkg = tmp_path / "src" / "repro"
        (pkg / "demo").mkdir(parents=True)
        (pkg / "demo" / "mod.py").write_text(textwrap.dedent(source))
        self.write_glossary(tmp_path)
        return pkg

    def test_both_drift_directions_are_flagged(self, tmp_path):
        found = self.drift(
            """
            from repro.obs import counter

            def touch():
                counter("demo.hits").inc()
                counter("demo.undocumented").inc()
            """,
            tmp_path,
        )
        assert [f.rule_id for f in found] == ["OBS001", "OBS001"]
        undocumented, unemitted = found
        assert "demo.undocumented" in undocumented.message
        assert undocumented.path == "src/repro/demo/mod.py"
        assert "demo.gone" in unemitted.message
        assert unemitted.path == "docs/OBSERVABILITY.md"

    def test_fstring_emission_matches_placeholder_row(self, tmp_path):
        glossary = self.GLOSSARY.replace(
            "`demo.gone` | counter | calls | documented but never emitted",
            "`demo.by.<KIND>` | counter | calls | per-kind breakdown",
        )
        found = self.drift(
            """
            from repro.obs import counter

            def touch(kind):
                counter("demo.hits").inc()
                counter(f"demo.by.{kind}").inc()
            """,
            tmp_path,
            glossary,
        )
        assert found == []

    def test_whole_tree_pass_reconciles_through_noqa(
        self, tmp_path, monkeypatch
    ):
        from repro.analyze import analyze_paths
        from repro.analyze import engine

        pkg = self.package(
            """
            from repro.obs import counter

            def touch():
                counter("demo.hits").inc()
                counter("demo.quiet").inc()  # repro: noqa[OBS001] — fixture
                counter("demo.loud").inc()
            """,
            tmp_path,
        )
        monkeypatch.setattr(engine, "package_root", lambda: str(pkg))
        report = analyze_paths(
            [str(pkg)], rules=["OBS001", "SUP001"], root=str(tmp_path)
        )
        messages = [f.message for f in report.findings]
        assert [f.rule_id for f in report.findings] == ["OBS001", "OBS001"]
        assert "demo.gone" in messages[0] and "demo.loud" in messages[1]
        assert report.suppressed == 1

    def test_partial_scans_stay_quiet(self, tmp_path):
        from repro.analyze import analyze_paths

        pkg = self.package(
            """
            from repro.obs import counter

            def touch():
                counter("demo.undocumented").inc()
            """,
            tmp_path,
        )
        report = analyze_paths(
            [str(pkg)], rules=["OBS001"], root=str(tmp_path)
        )
        assert report.findings == []


class TestSUP001StaleSuppression:
    def test_flags_marker_that_suppressed_nothing(self):
        found = lint(
            """
            import os

            def f():
                return os.getpid()  # repro: noqa[DET001]
            """,
            path="src/repro/sim/mod.py",
        )
        assert ids(found) == ["SUP001"]
        assert "DET001" in found[0].message
        assert found[0].line == 5

    def test_used_marker_is_clean(self):
        found = lint(
            """
            import time

            def f():
                return time.time()  # repro: noqa[DET001]
            """,
            path="src/repro/sim/mod.py",
        )
        assert found == []

    def test_partial_runs_never_judge_foreign_tokens(self):
        # Only ASY001 ran; the DET001 token could not have matched, so
        # it is not judged (and SUP001 is not even selected).
        found = lint(
            """
            import os

            def f():
                return os.getpid()  # repro: noqa[DET001]
            """,
            path="src/repro/sim/mod.py",
            rules=["ASY001", "SUP001"],
        )
        assert found == []

    def test_explicit_sup_token_quiets_the_report(self):
        found = lint(
            """
            import os

            def f():
                return os.getpid()  # repro: noqa[DET001, SUP001]
            """,
            path="src/repro/sim/mod.py",
        )
        assert found == []

    def test_bare_noqa_cannot_hide_its_own_staleness(self):
        found = lint(
            """
            import os

            def f():
                return os.getpid()  # repro: noqa
            """,
            path="src/repro/sim/mod.py",
        )
        assert ids(found) == ["SUP001"]
        assert "bare noqa" in found[0].message


class TestCatalog:
    def test_every_registered_rule_has_a_fixture_class_here(self):
        import sys

        import re

        here = sys.modules[__name__]
        # Class names embed the rule id right after "Test".
        covered = {
            m.group(1)
            for name in dir(here)
            for m in [re.match(r"Test([A-Z]+\d+)", name)]
            if m
        }
        for rule_id in all_rule_ids():
            assert rule_id in covered, f"no fixture tests for {rule_id}"
