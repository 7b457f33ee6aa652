"""Model-pruned empirical auto-tuning."""

import pytest

from repro.algorithms import autotune_barrier, tune_barrier
from repro.algorithms.barrier import barrier_programs
from repro.bench import pin_threads
from repro.errors import ModelError


class TestAutotuneBarrier:
    @pytest.fixture(scope="class")
    def result(self, machine, capability):
        threads = pin_threads(machine.topology, 64, "scatter")
        return autotune_barrier(machine, capability, threads, iterations=10)

    def test_pruning_happens(self, result):
        assert result.measured_fraction < 0.75

    def test_winner_measured(self, result):
        assert result.winner.measured_ns is not None

    def test_winner_agrees_with_model_shortlist(self, result, capability):
        """The empirical winner must be one of the model's near-optimal
        shapes (the model ranks correctly enough to prune safely)."""
        tb = tune_barrier(capability, 64)
        winner_m = int(result.winner.label.split("=")[1])
        assert result.winner.model_ns <= tb.model.best_ns * 1.25
        assert 1 <= winner_m <= 8

    def test_unmeasured_candidates_kept_for_reporting(self, result):
        unmeasured = [c for c in result.candidates if c.measured_ns is None]
        assert unmeasured  # the pruned ones are still listed

    def test_by_label(self, result):
        c = result.by_label(result.winner.label)
        assert c == result.winner
        with pytest.raises(ModelError):
            result.by_label("m=999")

    def test_validation(self, machine, capability):
        with pytest.raises(ModelError):
            autotune_barrier(machine, capability, [0], iterations=2)
        threads = pin_threads(machine.topology, 8, "scatter")
        with pytest.raises(ModelError):
            autotune_barrier(machine, capability, threads, margin=-1)

    def test_each_measured_shape_is_built_once(
        self, machine, capability, monkeypatch
    ):
        from repro.algorithms import autotune

        built = []

        def counting_programs(ranks, rounds, arity):
            built.append(arity)
            return barrier_programs(ranks, rounds, arity)

        monkeypatch.setattr(autotune, "barrier_programs", counting_programs)
        threads = pin_threads(machine.topology, 16, "scatter")
        res = autotune_barrier(machine, capability, threads, iterations=6)
        measured = [c.label for c in res.candidates if c.measured_ns is not None]
        assert sorted(f"m={m}" for m in built) == sorted(measured)

    def test_zero_margin_measures_only_model_best(self, machine, capability):
        threads = pin_threads(machine.topology, 16, "scatter")
        res = autotune_barrier(
            machine, capability, threads, margin=0.0, iterations=5
        )
        measured = [c for c in res.candidates if c.measured_ns is not None]
        assert len(measured) <= 2
