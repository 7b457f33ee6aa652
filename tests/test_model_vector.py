"""Golden tests for the vectorized predict kernels.

The contract under test: for every query list, the compiled-plan
evaluation (:mod:`repro.model.vector`) is **byte-identical** to the
scalar reference loop — same values bit for bit (``repr`` equality),
same defaults, same error message raised at the same first offending
query.  The dense sweep below is the ~1300-point §VII grid the compiled
plan's speedup was claimed on, so the golden test pins exactly that
workload.
"""

import json

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.vector import (
    compile_queries,
    contention_curve,
    evaluate_plan_values,
    evaluate_plans,
    latency_table,
    multiline_curve,
    predict_one,
)
from tests.closed_loop import PREDICT_GRID_BODY

#: The §VII grid *densified*: the full contention curve (n = 1..256, one
#: point per thread count) plus the multi-line transfer curve at
#: cache-line granularity (64 B steps up to 32 KiB, both fitted
#: locations) — ~1300 points, the popular-expensive query that the
#: compiled plan exists for.
DENSE_PREDICT_BODY = {
    "queries": [
        *PREDICT_GRID_BODY["queries"][:-4],  # drop the sparse curve
        *[{"metric": "contention", "n": n} for n in range(1, 257)],
        *[
            {"metric": "multiline", "location": loc, "bytes": 64 * i}
            for loc in ("tile", "remote")
            for i in range(1, 513)
        ],
    ]
}


def scalar_reference(cap, queries):
    return [predict_one(cap, q) for q in queries]


def dense_queries():
    return DENSE_PREDICT_BODY["queries"]


class TestGoldenByteIdentity:
    def test_dense_sweep_matches_scalar_bit_for_bit(self, capability):
        """The ~1300-point dense grid: every value must round-trip to
        the identical float repr (hence identical JSON bytes)."""
        queries = dense_queries()
        scalar = scalar_reference(capability, queries)
        vector = compile_queries(queries).evaluate(capability)
        assert len(vector) == len(scalar)
        for s, v in zip(scalar, vector):
            assert v == s
            assert repr(v["value"]) == repr(s["value"])
        assert json.dumps(vector, sort_keys=True) == json.dumps(
            scalar, sort_keys=True
        )

    def test_defaults_match_scalar(self, capability):
        """Omitted fields take exactly the scalar defaults."""
        queries = [
            {"metric": "latency"},  # location=memory, kind=ddr
            {"metric": "latency", "location": "tile"},  # state=M
            {"metric": "bandwidth"},  # op=copy, kind=ddr
            {"metric": "multiline", "bytes": 640},  # location=remote
        ]
        scalar = scalar_reference(capability, queries)
        vector = compile_queries(queries).evaluate(capability)
        assert vector == scalar

    def test_duplicate_queries_gather_from_one_table_entry(self, capability):
        queries = [{"metric": "latency", "location": "local"}] * 5 + [
            {"metric": "contention", "n": 3}
        ] * 3
        plan = compile_queries(queries)
        assert len(plan.latency.keys) == 1
        vector = plan.evaluate(capability)
        assert vector == scalar_reference(capability, queries)


class TestErrorParity:
    COMPILE_ERRORS = [
        None,
        [],
        "nope",
        [{"metric": "latency"}, "not-a-dict"],
        [{"metric": "frobnicate"}],
        [{"metric": "latency", "location": "mars"}],
        [{"metric": "contention", "n": 0}],
        [{"metric": "contention", "n": "many"}],
        [{"metric": "multiline", "bytes": -64}],
        [{"metric": "contention", "n": float("inf")}],  # JSON Infinity
    ]

    @pytest.mark.parametrize("queries", COMPILE_ERRORS)
    def test_compile_raises_the_scalar_message(self, capability, queries):
        if isinstance(queries, list) and queries:
            with pytest.raises(ModelError) as scalar_err:
                scalar_reference(capability, queries)
            with pytest.raises(ModelError) as vector_err:
                compile_queries(queries)
            assert str(vector_err.value) == str(scalar_err.value)
        else:
            with pytest.raises(
                ModelError, match="non-empty 'queries' list"
            ):
                compile_queries(queries)

    CHECK_ERRORS = [
        [{"metric": "latency", "location": "tile", "state": "Z"}],
        [{"metric": "latency", "location": "remote", "state": "I"}],
        [{"metric": "latency", "location": "memory", "kind": "optane"}],
        [{"metric": "bandwidth", "op": "scale", "kind": "ddr"}],
        [{"metric": "multiline", "location": "moon", "bytes": 64}],
    ]

    @pytest.mark.parametrize("queries", CHECK_ERRORS)
    def test_model_dependent_errors_match_scalar(self, capability, queries):
        """Lookups outside the fitted model raise the scalar message."""
        with pytest.raises(ModelError) as scalar_err:
            scalar_reference(capability, queries)
        plan = compile_queries(queries)
        with pytest.raises(ModelError) as vector_err:
            plan.evaluate(capability)
        assert str(vector_err.value) == str(scalar_err.value)

    def test_first_offending_query_wins(self, capability):
        """Two unanswerable queries: the error is the *earlier* one's,
        exactly as the scalar loop encounters them."""
        queries = [
            {"metric": "latency", "location": "local"},
            {"metric": "bandwidth", "op": "scale", "kind": "ddr"},
            {"metric": "latency", "location": "tile", "state": "Z"},
        ]
        with pytest.raises(ModelError) as scalar_err:
            scalar_reference(capability, queries)
        with pytest.raises(ModelError) as vector_err:
            compile_queries(queries).evaluate(capability)
        assert str(vector_err.value) == str(scalar_err.value)
        assert "scale" in str(vector_err.value)

    @pytest.mark.parametrize("query", [
        {"metric": "contention", "n": 10 ** 400},
        {"metric": "multiline", "location": "tile", "bytes": 10 ** 400},
    ])
    def test_count_beyond_float64_is_a_model_error(self, capability, query):
        """A count of hundreds of digits fits a Python int but not the
        plan's float64 arrays: a ModelError (a 400 when served), never
        an OverflowError, and the message does not print the value."""
        with pytest.raises(ModelError) as vector_err:
            compile_queries([query])
        with pytest.raises(ModelError) as scalar_err:
            predict_one(capability, query)
        message = str(vector_err.value)
        assert message == str(scalar_err.value)
        assert "must fit a float64" in message
        assert "1329 bits" in message
        assert "inf" not in message and "e+" not in message


class TestFusedEvaluation:
    def plans(self, capability):
        base = dense_queries()
        variants = [
            base,
            base + [{"metric": "contention", "n": 300}],
            [{"metric": "latency", "location": "local"}],
            [{"metric": "multiline", "location": "tile", "bytes": 4096}],
        ]
        return variants, [compile_queries(q) for q in variants]

    def test_fused_equals_per_plan(self, capability):
        variants, plans = self.plans(capability)
        fused = evaluate_plans(capability, plans)
        for queries, plan, results in zip(variants, plans, fused):
            assert results == plan.evaluate(capability)
            assert results == scalar_reference(capability, queries)

    def test_fused_values_bitwise_equal_solo(self, capability):
        _variants, plans = self.plans(capability)
        fused = evaluate_plan_values(capability, plans)
        for plan, vals in zip(plans, fused):
            solo = evaluate_plan_values(capability, [plan])[0]
            assert vals.shape == (plan.n_queries,)
            assert np.array_equal(vals, solo)

    def test_empty_and_singleton(self, capability):
        assert evaluate_plan_values(capability, []) == []
        plan = compile_queries([{"metric": "contention", "n": 2}])
        (vals,) = evaluate_plan_values(capability, [plan])
        assert vals.tolist() == [predict_one(
            capability, {"metric": "contention", "n": 2}
        )["value"]]


class TestSweepKernels:
    def test_contention_curve_matches_pointwise(self, capability):
        counts = list(range(1, 65))
        curve = contention_curve(capability, counts)
        point = [
            predict_one(capability, {"metric": "contention", "n": n})["value"]
            for n in counts
        ]
        assert curve.tolist() == point

    def test_contention_curve_zero_and_negative(self, capability):
        assert contention_curve(capability, [0]).tolist() == [0.0]
        with pytest.raises(ModelError, match="non-negative"):
            contention_curve(capability, [-1])

    def test_multiline_curve_matches_pointwise(self, capability):
        sizes = [64 * i for i in range(1, 33)]
        curve = multiline_curve(capability, "remote", sizes)
        point = [
            predict_one(
                capability,
                {"metric": "multiline", "location": "remote", "bytes": b},
            )["value"]
            for b in sizes
        ]
        assert curve.tolist() == point

    def test_multiline_curve_unknown_location(self, capability):
        with pytest.raises(ModelError, match="no multiline fit"):
            multiline_curve(capability, "moon", [64])

    def test_latency_table_covers_the_gather_keys(self, capability):
        table = latency_table(capability)
        assert table["local"] == capability.RL
        for st, v in capability.r_tile.items():
            assert table[f"tile/{st}"] == v
        for kind, v in capability.r_memory.items():
            assert table[f"memory/{kind}"] == v
