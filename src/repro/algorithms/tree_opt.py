"""Model-tuning of broadcast/reduce trees — the Eq. (1) optimizer.

The cost of an inter-tile broadcast tree of n tiles is

    T_bc(n)   = T_lev(k0) + max_i T_bc(subtree_i)
    T_lev(k)  = R_I + R_L + T_C(k) + R_I + k·R_R
    T_bc(1)   = 0,   sum k_i = n - 1

with R_I the cost of a line from memory, R_L from local cache, R_R from a
remote cache, and T_C the contention model.  Reduce adds per-child
buffering and arithmetic.  Because T_bc is nondecreasing in the subtree
size, the max over k subtrees of total size n-1 is minimized by balanced
sizes, so dynamic programming over n with balanced splits is exact.

The optimizer works on the *fitted* capability model only — this is the
"model-tune" step that produced Figure 1's non-trivial tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ModelError
from repro.model.minmax import MinMaxModel
from repro.model.parameters import CapabilityModel
from repro.algorithms.tree import Tree, TreeNode
from repro.units import lines_in


@dataclass(frozen=True)
class LevelCost:
    """Cost of one tree level with k children (best and worst case).

    Worst case follows the min-max methodology: polled lines bounce an
    extra time (contention doubles) and flags may have been evicted, so a
    poll pays a memory fetch on top of the remote read.
    """

    capability: CapabilityModel
    payload_bytes: int = 64
    is_reduce: bool = False

    def best(self, k: int) -> float:
        cap = self.capability
        t = cap.RI + cap.RL + cap.T_C(k) + cap.RI + k * cap.RR
        t += self._payload_extra(k)
        if self.is_reduce:
            t += k * cap.compute_ns_per_line * lines_in(self.payload_bytes)
            t += cap.RL  # extra buffering for the collected values
        return t

    def worst(self, k: int) -> float:
        cap = self.capability
        t = cap.RI + cap.RL + cap.T_C(2 * k) + cap.RI + k * (cap.RR + cap.RI)
        t += 2.0 * self._payload_extra(k)
        if self.is_reduce:
            t += k * cap.compute_ns_per_line * lines_in(self.payload_bytes)
            t += cap.RL
        return t

    def _payload_extra(self, k: int) -> float:
        """Cost of the payload lines beyond the first (pipelined copies
        at the remote-copy plateau; the flag line carries line one)."""
        extra_lines = lines_in(self.payload_bytes) - 1
        if extra_lines <= 0:
            return 0.0
        beta = self.capability.multiline["remote"].beta
        return extra_lines * beta


@dataclass(frozen=True)
class TunedTree:
    """Result of the tree optimizer."""

    tree: Tree
    model: MinMaxModel
    #: Optimal degree for each subtree size (the DP table, for analysis).
    degree_of_size: Dict[int, int]


def _balanced_parts(total: int, k: int) -> List[int]:
    """Split ``total`` into k parts, sizes differing by at most one."""
    base, extra = divmod(total, k)
    return [base + 1] * extra + [base] * (k - extra)


def tune_tree(
    capability: CapabilityModel,
    n: int,
    payload_bytes: int = 64,
    is_reduce: bool = False,
    max_degree: Optional[int] = None,
) -> TunedTree:
    """Find the minimum-cost tree over ``n`` ranks under Eq. (1).

    O(n²) additions over level costs priced once per degree; ties go to
    the smallest degree."""
    if n < 1:
        raise ModelError("need at least one rank")
    if max_degree is not None and max_degree < 1:
        raise ModelError(f"max_degree must be at least 1, got {max_degree}")
    level = LevelCost(capability, payload_bytes, is_reduce)
    kmax = n - 1 if max_degree is None else max_degree
    # T_lev(k) depends on k alone: price each level once, indexed by k.
    lev = [math.nan] + [level.best(k) for k in range(1, min(kmax, n - 1) + 1)]

    best_cost: List[float] = [math.inf] * (n + 1)
    best_k: List[int] = [0] * (n + 1)
    best_cost[1] = 0.0
    for size in range(2, n + 1):
        m = size - 1
        bc, bk = math.inf, 0
        for k in range(1, min(kmax, m) + 1):
            # Balanced split of m ranks into k subtrees; the largest,
            # ceil(m / k), decides the max term.  Strict < keeps the
            # first minimum.
            c = lev[k] + best_cost[-(-m // k)]
            if c < bc:
                bc, bk = c, k
        best_cost[size] = bc
        best_k[size] = bk

    def build(size: int, ranks: List[int]) -> TreeNode:
        root = TreeNode(ranks[0])
        if size == 1:
            return root
        cursor = 1
        for p in _balanced_parts(size - 1, best_k[size]):
            root.children.append(build(p, ranks[cursor: cursor + p]))
            cursor += p
        return root

    tree = Tree(build(n, list(range(n))))
    tree.validate()
    # The worst case walks the tree; its nodes share few degrees.
    worst = _tree_cost(tree.root, functools.cache(level.worst))
    return TunedTree(
        tree=tree,
        model=MinMaxModel(best_cost[n], worst),
        degree_of_size={s: best_k[s] for s in range(2, n + 1)},
    )


def _tree_cost(node: TreeNode, level_cost: Callable[[int], float]) -> float:
    if not node.children:
        return 0.0
    own = level_cost(node.degree)
    return own + max(_tree_cost(c, level_cost) for c in node.children)


def evaluate_tree(
    capability: CapabilityModel,
    tree: Tree,
    payload_bytes: int = 64,
    is_reduce: bool = False,
) -> MinMaxModel:
    """Min-max model of an arbitrary tree under Eq. (1) (used to score
    baseline shapes like binomial or flat trees)."""
    level = LevelCost(capability, payload_bytes, is_reduce)
    return MinMaxModel(
        _tree_cost(tree.root, level.best), _tree_cost(tree.root, level.worst)
    )
