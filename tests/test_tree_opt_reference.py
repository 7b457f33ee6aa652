"""The Eq. (1) tuner against its per-pair reference loop.

``tune_tree`` prices each tree level once per call and walks the
worst case with ``LevelCost.worst`` memoized by degree.  The reference
below is the straightforward form it replaced: ``LevelCost.best(k)``
re-priced for every ``(size, k)`` pair, the float ``math.ceil`` split,
and ``LevelCost.worst`` priced at every node of the built tree.  Hypothesis checks
that both give the same degrees and bit-equal ``best_ns``/``worst_ns``,
on the fitted model and on hand-built models with small integer costs
and a flat contention curve, where many degrees tie and the first
minimum must win.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.tree import Tree, TreeNode
from repro.algorithms.tree_opt import (
    LevelCost,
    _balanced_parts,
    evaluate_tree,
    tune_tree,
)
from repro.errors import ModelError
from repro.model.parameters import CapabilityModel, LinearCost


def _reference_tune(
    capability: CapabilityModel,
    n: int,
    payload_bytes: int,
    is_reduce: bool,
    max_degree: Optional[int],
) -> Tuple[List[int], float, float, Tree]:
    """``(best_k, best_ns, worst_ns, tree)`` from the per-pair loop."""
    level = LevelCost(capability, payload_bytes, is_reduce)
    kmax = max_degree or (n - 1)
    best_cost = [math.inf] * (n + 1)
    best_k = [0] * (n + 1)
    best_cost[1] = 0.0
    for size in range(2, n + 1):
        for k in range(1, min(kmax, size - 1) + 1):
            largest = math.ceil((size - 1) / k)
            c = level.best(k) + best_cost[largest]
            if c < best_cost[size]:
                best_cost[size] = c
                best_k[size] = k

    def build(size: int, ranks: List[int]) -> TreeNode:
        root = TreeNode(ranks[0])
        if size == 1:
            return root
        cursor = 1
        for p in _balanced_parts(size - 1, best_k[size]):
            if p == 0:
                continue
            root.children.append(build(p, ranks[cursor: cursor + p]))
            cursor += p
        return root

    tree = Tree(build(n, list(range(n))))
    worst = evaluate_tree(capability, tree, payload_bytes, is_reduce).worst_ns
    return best_k, best_cost[n], worst, tree


@st.composite
def tune_args(draw):
    n = draw(st.integers(1, 96))
    return (
        n,
        64 * draw(st.integers(0, 64)),
        draw(st.booleans()),
        draw(st.one_of(st.none(), st.integers(1, n))),
    )


def integer_model(rl, rr, ri, alpha, beta, compute) -> CapabilityModel:
    """A model whose level costs are small integers; with a flat
    contention curve (slope 0) many degrees cost the same."""
    return CapabilityModel(
        config_label="integer",
        r_local=float(rl),
        r_tile={"M": float(rr)},
        r_remote={"M": float(rr)},
        r_memory={"ddr": float(ri)},
        contention=LinearCost(float(alpha), 0.0),
        multiline={"remote": LinearCost(0.0, float(beta))},
        stream={},
        compute_ns_per_line=float(compute),
    )


small = st.integers(0, 4)
integer_models = st.builds(integer_model, small, small, small, small, small, small)


def _assert_matches_reference(capability, args) -> None:
    n, payload_bytes, is_reduce, max_degree = args
    tuned = tune_tree(capability, n, payload_bytes, is_reduce, max_degree)
    best_k, best_ns, worst_ns, tree = _reference_tune(
        capability, n, payload_bytes, is_reduce, max_degree
    )
    assert tuned.degree_of_size == {s: best_k[s] for s in range(2, n + 1)}
    assert tuned.model.best_ns.hex() == best_ns.hex()
    assert tuned.model.worst_ns.hex() == worst_ns.hex()
    assert tuned.tree.levels() == tree.levels()
    assert tuned.tree.degrees() == tree.degrees()


class TestAgainstReferenceLoop:
    @given(args=tune_args())
    @settings(max_examples=60, deadline=None)
    def test_fitted_model(self, capability, args):
        _assert_matches_reference(capability, args)

    @given(model=integer_models, args=tune_args())
    @settings(max_examples=120, deadline=None)
    def test_integer_costs_with_ties(self, model, args):
        _assert_matches_reference(model, args)

    def test_a_tie_goes_to_the_smaller_degree(self):
        """With T_lev(k) = k, three ranks cost 1 + 1 as a chain (k = 1)
        and 2 + 0 as a star (k = 2): the first minimum, k = 1, wins."""
        model = integer_model(0, 1, 0, 0, 0, 0)
        tuned = tune_tree(model, 3)
        assert tuned.degree_of_size == {2: 1, 3: 1}
        assert tuned.model.best_ns == 2.0
        _assert_matches_reference(model, (3, 64, False, None))


class TestLevelPricing:
    @pytest.mark.parametrize(
        "n, max_degree", [(1, None), (2, None), (64, None), (96, 5), (40, 200)]
    )
    def test_each_level_is_priced_once(self, capability, monkeypatch, n, max_degree):
        calls = {"best": 0, "worst": 0}
        best, worst = LevelCost.best, LevelCost.worst

        def counted_best(self, k):
            calls["best"] += 1
            return best(self, k)

        def counted_worst(self, k):
            calls["worst"] += 1
            return worst(self, k)

        monkeypatch.setattr(LevelCost, "best", counted_best)
        monkeypatch.setattr(LevelCost, "worst", counted_worst)
        tuned = tune_tree(capability, n, 512, True, max_degree)
        kmax = n - 1 if max_degree is None else max_degree
        assert calls["best"] <= min(kmax, n - 1)
        assert calls["worst"] <= len(set(tuned.degree_of_size.values()))

    @pytest.mark.parametrize("max_degree", [0, -1])
    def test_max_degree_below_one_is_refused(self, capability, max_degree):
        with pytest.raises(ModelError, match="max_degree"):
            tune_tree(capability, 8, max_degree=max_degree)
