"""Generic communication trees (§IV-B1).

A tree assigns every participating rank a parent; node *i* may have an
arbitrary number of children ``k_i`` — the optimizer picks the degrees.
Figure 1's model-tuned reduction tree is an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ModelError


@dataclass
class TreeNode:
    """One rank in a communication tree."""

    rank: int
    children: List["TreeNode"] = field(default_factory=list)

    @property
    def degree(self) -> int:
        return len(self.children)

    def subtree_size(self) -> int:
        return 1 + sum(c.subtree_size() for c in self.children)

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def walk(self) -> Iterator["TreeNode"]:
        """Pre-order traversal."""
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass
class Tree:
    """A rooted tree over ranks ``0..n-1``."""

    root: TreeNode

    @property
    def n(self) -> int:
        return self.root.subtree_size()

    def validate(self) -> None:
        """Every rank 0..n-1 appears exactly once."""
        seen = sorted(node.rank for node in self.root.walk())
        if seen != list(range(len(seen))):
            raise ModelError(f"tree does not cover ranks exactly once: {seen}")

    def node(self, rank: int) -> TreeNode:
        for nd in self.root.walk():
            if nd.rank == rank:
                return nd
        raise ModelError(f"rank {rank} not in tree")

    def parents(self) -> Dict[int, Optional[int]]:
        """Every rank's parent (``None`` for the root), from one walk."""
        out: Dict[int, Optional[int]] = {}
        for nd in self.root.walk():
            for c in nd.children:
                out.setdefault(c.rank, nd.rank)
        out.setdefault(self.root.rank, None)
        return out

    def parent_of(self, rank: int) -> Optional[int]:
        parents = self.parents()
        if rank not in parents:
            raise ModelError(f"rank {rank} not in tree")
        return parents[rank]

    def degrees(self) -> Dict[int, int]:
        return {nd.rank: nd.degree for nd in self.root.walk()}

    def levels(self) -> List[List[int]]:
        """Ranks grouped by depth (root first)."""
        out: List[List[int]] = []
        frontier = [self.root]
        while frontier:
            out.append([nd.rank for nd in frontier])
            frontier = [c for nd in frontier for c in nd.children]
        return out

    # -- rendering (Figure 1) -------------------------------------------------

    def to_ascii(self) -> str:
        lines: List[str] = []

        def draw(node: TreeNode, prefix: str, is_last: bool) -> None:
            connector = "`-- " if is_last else "|-- "
            lines.append(prefix + connector + str(node.rank))
            ext = "    " if is_last else "|   "
            for i, c in enumerate(node.children):
                draw(c, prefix + ext, i == len(node.children) - 1)

        lines.append(str(self.root.rank))
        for i, c in enumerate(self.root.children):
            draw(c, "", i == len(self.root.children) - 1)
        return "\n".join(lines)

    @staticmethod
    def flat(n: int, root: int = 0) -> "Tree":
        """A flat tree: root with n-1 direct children."""
        if n < 1:
            raise ModelError("tree needs at least one rank")
        ranks = [r for r in range(n) if r != root]
        return Tree(TreeNode(root, [TreeNode(r) for r in ranks]))

    @staticmethod
    def binomial(n: int, root: int = 0) -> "Tree":
        """Binomial tree over ranks 0..n-1 (the MPI-baseline shape)."""
        if n < 1:
            raise ModelError("tree needs at least one rank")
        nodes = {r: TreeNode(r) for r in range(n)}
        # Standard binomial construction on virtual ranks relative to root.
        for v in range(1, n):
            # Parent of virtual rank v clears its lowest set bit.
            pv = v & (v - 1)
            real = (v + root) % n
            preal = (pv + root) % n
            nodes[preal].children.append(nodes[real])
        # MPI sends to the largest subtree first — order children by
        # descending subtree size so the critical path stays logarithmic.
        for nd in nodes.values():
            nd.children.sort(key=lambda c: -c.subtree_size())
        return Tree(nodes[root])

    @staticmethod
    def from_child_counts(counts: Sequence[int], root: int = 0) -> "Tree":
        """Build a tree breadth-first from per-node child counts
        (counts[i] = degree of the i-th node in BFS order)."""
        n = len(counts)
        nodes = [TreeNode(r) for r in range(n)]
        order = [root] + [r for r in range(n) if r != root]
        next_child = 1
        for idx, rank in enumerate(order):
            k = counts[idx]
            for _ in range(k):
                if next_child >= n:
                    raise ModelError("child counts exceed rank count")
                nodes[rank].children.append(nodes[order[next_child]])
                next_child += 1
        if next_child != n:
            raise ModelError(
                f"child counts cover {next_child} ranks, expected {n}"
            )
        return Tree(nodes[root])
