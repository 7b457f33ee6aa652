"""Collective sweep points are order-independent.

Each of a point's episode runs draws from its own noise stream, seeded
by the machine seed and the run's label, so a point's row is the same
whichever points ran before it, alone or inside a whole sweep, and
whichever process ran it.  That is what lets ``speedups`` reuse the
points Figs. 6-8 computed in the same run.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import _collectives, all_ids, run
from repro.experiments._collectives import (
    CollectiveSetup,
    collective_sweep,
    shared_points,
)
from repro.machine import KNLMachine
from repro.runtime import TaskStatus, execute, plan_run

SEED = 1234
ITERATIONS = 3
SCHEDULES = ("fill_tiles", "scatter")
THREADS = (2, 4, 8, 16)
POINTS = [(s, n) for s in SCHEDULES for n in THREADS]
COLLECTIVES = ("barrier", "broadcast", "reduce")


def _setup(config, capability, seed=SEED) -> CollectiveSetup:
    return CollectiveSetup(KNLMachine(config, seed=seed), capability)


def _sweep(setup, collective, schedules=SCHEDULES, threads=THREADS):
    return collective_sweep(
        collective, exp_id="t", title="", iterations=ITERATIONS,
        thread_counts=threads, schedules=schedules, setup=setup,
    ).rows


def _by_point(rows):
    return {(r["schedule"], r["threads"]): r for r in rows}


@pytest.fixture(scope="module")
def reference(snc4_flat_config, capability):
    """Each collective's whole sweep, in the default point order."""
    return {
        c: _by_point(_sweep(_setup(snc4_flat_config, capability), c))
        for c in COLLECTIVES
    }


class TestOrderIndependence:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(collective=st.sampled_from(COLLECTIVES),
           order=st.permutations(POINTS))
    def test_rows_equal_under_any_point_order(
        self, snc4_flat_config, capability, reference, collective, order
    ):
        setup = _setup(snc4_flat_config, capability)
        got = {}
        for schedule, n in order:
            (row,) = _sweep(setup, collective, (schedule,), (n,))
            got[(schedule, n)] = row
        assert got == reference[collective]

    @pytest.mark.parametrize("collective", COLLECTIVES)
    def test_reordered_sweep_gives_the_same_rows(
        self, snc4_flat_config, capability, reference, collective
    ):
        setup = _setup(snc4_flat_config, capability)
        rows = _sweep(setup, collective, SCHEDULES[::-1], THREADS[::-1])
        assert [(r["schedule"], r["threads"]) for r in rows] == [
            (s, n) for s in SCHEDULES[::-1] for n in THREADS[::-1]
        ]
        assert _by_point(rows) == reference[collective]

    @pytest.mark.parametrize("point", [POINTS[0], POINTS[-1]])
    def test_point_alone_equals_its_row_in_the_sweep(
        self, snc4_flat_config, capability, reference, point
    ):
        schedule, n = point
        (row,) = _sweep(_setup(snc4_flat_config, capability), "barrier",
                        (schedule,), (n,))
        assert row == reference["barrier"][point]

    def test_sweep_leaves_the_machine_stream_alone(
        self, snc4_flat_config, capability
    ):
        setup = _setup(snc4_flat_config, capability)
        _sweep(setup, "reduce", ("scatter",), (8,))
        twin = KNLMachine(snc4_flat_config, seed=SEED)
        assert setup.machine.noise.rng.random() == twin.noise.rng.random()

    def test_non_int_seed_draws_from_the_machine_stream(
        self, snc4_flat_config, capability
    ):
        def machine():
            return KNLMachine(snc4_flat_config, seed=np.random.default_rng(7))

        setup = CollectiveSetup(machine(), capability)
        with shared_points():
            _sweep(setup, "barrier", ("scatter",), (4,))
            assert _collectives._points == {}  # no memo without a seed
        assert setup.machine.noise.rng.random() != machine().noise.rng.random()


class TestSharedPoints:
    def test_scope_serves_the_computed_row_and_ends(
        self, snc4_flat_config, capability, reference
    ):
        assert _collectives._points is None
        with shared_points():
            first = _sweep(_setup(snc4_flat_config, capability), "barrier",
                           ("scatter",), (8,))
            held = dict(_collectives._points)
            assert len(held) == 1
            with shared_points():  # a nested scope shares the memo
                again = _sweep(_setup(snc4_flat_config, capability),
                               "barrier", ("scatter",), (8,))
            assert _collectives._points == held
        assert _collectives._points is None
        assert first == again == [reference["barrier"][("scatter", 8)]]

    def test_other_seed_or_model_is_another_point(
        self, snc4_flat_config, capability
    ):
        with shared_points():
            _sweep(_setup(snc4_flat_config, capability), "barrier",
                   ("scatter",), (8,))
            _sweep(_setup(snc4_flat_config, capability, seed=SEED + 1),
                   "barrier", ("scatter",), (8,))
            tweaked = type(capability)(**{
                **vars(capability), "r_local": capability.r_local * 2,
            })
            _sweep(_setup(snc4_flat_config, tweaked), "barrier",
                   ("scatter",), (8,))
            assert len(_collectives._points) == 3


def _plan_digests(report):
    out = {}
    for outcome in report.outcomes:
        assert outcome.status is TaskStatus.DONE, (outcome.exp_id,
                                                   outcome.error)
        out[outcome.exp_id] = hashlib.sha256(
            outcome.result.to_json().encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def full_plan(tmp_path_factory):
    """Every experiment at iterations=1 and one shared seed, serially."""
    plan = plan_run(all_ids(), kwargs={"iterations": 1, "seed": SEED},
                    jobs=1, cache_dir=str(tmp_path_factory.mktemp("jobs1")),
                    retries=0, progress=False)
    return execute(plan)


class TestWholePlan:
    def test_speedups_alone_equals_speedups_in_the_plan(self, full_plan):
        alone = run("speedups", iterations=1, seed=SEED)
        assert alone.to_json() == full_plan.outcome("speedups").result.to_json()

    def test_two_jobs_give_the_serial_digests(self, full_plan, tmp_path):
        plan = plan_run(all_ids(), kwargs={"iterations": 1, "seed": SEED},
                        jobs=2, cache_dir=str(tmp_path / "jobs2"),
                        retries=0, progress=False)
        assert _plan_digests(execute(plan)) == _plan_digests(full_plan)

    def test_point_memo_ends_with_its_run(self, full_plan):
        assert _collectives._points is None
