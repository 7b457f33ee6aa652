"""Model-tuned reduce (§IV-B1, Figure 1).

Mirror image of the broadcast: contributions flow *up* an Eq.-(1)
tree whose level cost includes the extra buffering and the per-child
reduction arithmetic.  Intra-tile threads are gathered by their leader
through a flat stage before the leader enters the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.algorithms.hierarchy import TileGroup, group_by_tile, max_group_size
from repro.algorithms.tree import Tree
from repro.algorithms.tree_opt import tune_tree
from repro.errors import ModelError
from repro.machine.topology import Topology
from repro.model.minmax import MinMaxModel
from repro.model.parameters import CapabilityModel
from repro.sim.program import Program
from repro.units import lines_in


@dataclass(frozen=True)
class TunedReduce:
    """Optimizer output for one reduce configuration."""

    n_tiles: int
    max_intra: int
    payload_bytes: int
    tree: Tree
    model: MinMaxModel

    def describe(self) -> str:
        return (
            f"reduce over {self.n_tiles} tiles "
            f"(intra-tile fan <= {self.max_intra - 1}), "
            f"payload {self.payload_bytes} B, model "
            f"[{self.model.best_ns:.0f}, {self.model.worst_ns:.0f}] ns\n"
            + self.tree.to_ascii()
        )


def intra_gather_model(
    capability: CapabilityModel, group_size: int, payload_bytes: int
) -> MinMaxModel:
    """Leader pulls each member's contribution from the shared L2 and
    folds it in."""
    k = group_size - 1
    if k <= 0:
        return MinMaxModel(0.0, 0.0)
    cap = capability
    tile_rr = cap.r_tile.get("M", cap.RR)
    lines = lines_in(payload_bytes)
    per_child = tile_rr + (lines - 1) * cap.multiline["tile"].beta
    compute = k * cap.compute_ns_per_line * lines
    best = cap.RL + k * per_child + compute
    worst = cap.RL + k * (per_child + cap.RI) + compute
    return MinMaxModel(best, worst)


def tune_reduce(
    capability: CapabilityModel,
    n_tiles: int,
    max_intra: int = 1,
    payload_bytes: int = 64,
) -> TunedReduce:
    if n_tiles < 1:
        raise ModelError("need at least one tile")
    tuned = tune_tree(capability, n_tiles, payload_bytes, is_reduce=True)
    model = tuned.model + intra_gather_model(capability, max_intra, payload_bytes)
    return TunedReduce(
        n_tiles=n_tiles,
        max_intra=max_intra,
        payload_bytes=payload_bytes,
        tree=tuned.tree,
        model=model,
    )


def plan_reduce(
    capability: CapabilityModel,
    topology: Topology,
    thread_ids: Sequence[int],
    payload_bytes: int = 64,
) -> "ReducePlan":
    groups = group_by_tile(topology, list(thread_ids))
    tuned = tune_reduce(
        capability, len(groups), max_group_size(groups), payload_bytes
    )
    return ReducePlan(tuned=tuned, groups=groups)


@dataclass(frozen=True)
class ReducePlan:
    tuned: TunedReduce
    groups: Sequence[TileGroup]

    @property
    def model(self) -> MinMaxModel:
        return self.tuned.model

    def programs(self) -> List[Program]:
        """Engine programs; the root leader holds the final value."""
        tree = self.tuned.tree
        payload = self.tuned.payload_bytes
        groups = self.groups
        cap_compute = 8.0  # ns/line of reduction arithmetic at the engine level

        progs = {}
        for g in groups:
            progs[g.leader] = Program(g.leader)
            for m in g.members:
                progs[m] = Program(m)

        parents = tree.parents()
        for node in tree.root.walk():
            g = groups[node.rank]
            p = progs[g.leader]
            # Members publish their contribution; the leader gathers.
            for m in g.members:
                progs[m].compute(payload, cap_compute)
                progs[m].write_flag(f"rdi/{m}")
            p.compute(payload, cap_compute)  # leader's own contribution
            for m in g.members:
                p.poll_flag(f"rdi/{m}", payload_bytes=payload)
                p.compute(payload, cap_compute)
            # Gather from tree children (sequential polls, k·R_R).
            for child in node.children:
                p.poll_flag(f"rd/{child.rank}", payload_bytes=payload)
                p.compute(payload, cap_compute)
            if parents[node.rank] is not None:
                p.write_flag(f"rd/{node.rank}")
        return list(progs.values())
