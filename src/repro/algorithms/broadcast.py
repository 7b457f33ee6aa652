"""Model-tuned broadcast (§IV-B1).

The root's data travels down an Eq.-(1)-optimal inter-tile tree of tile
leaders; each leader then serves its own tile through a flat intra-tile
stage (cheap polling).  The min-max model adds the intra-tile level to
the tree envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.algorithms.hierarchy import TileGroup, group_by_tile, max_group_size
from repro.algorithms.tree import Tree
from repro.algorithms.tree_opt import TunedTree, tune_tree
from repro.errors import ModelError
from repro.machine.topology import Topology
from repro.model.minmax import MinMaxModel
from repro.model.parameters import CapabilityModel
from repro.sim.program import Program
from repro.units import lines_in


@dataclass(frozen=True)
class TunedBroadcast:
    """Optimizer output for one broadcast configuration."""

    n_tiles: int
    max_intra: int
    payload_bytes: int
    tree: Tree
    model: MinMaxModel

    def describe(self) -> str:
        return (
            f"broadcast over {self.n_tiles} tiles "
            f"(intra-tile fan <= {self.max_intra - 1}), "
            f"payload {self.payload_bytes} B, model "
            f"[{self.model.best_ns:.0f}, {self.model.worst_ns:.0f}] ns\n"
            + self.tree.to_ascii()
        )


def intra_level_model(
    capability: CapabilityModel, group_size: int, payload_bytes: int
) -> MinMaxModel:
    """Flat intra-tile stage: k = group_size - 1 same-tile pollers.

    Intra-tile polls hit the shared L2 (r_tile, M state); contention α
    shrinks proportionally with the cheaper transfer."""
    k = group_size - 1
    if k <= 0:
        return MinMaxModel(0.0, 0.0)
    cap = capability
    tile_rr = cap.r_tile.get("M", cap.RR)
    scale = tile_rr / cap.RR
    lines = lines_in(payload_bytes)
    best = cap.RL + cap.T_C(k) * scale + k * tile_rr + (lines - 1) * cap.multiline["tile"].beta
    worst = cap.RL + cap.T_C(2 * k) * scale + k * (tile_rr + cap.RI)
    worst += 2 * (lines - 1) * cap.multiline["tile"].beta
    return MinMaxModel(best, max(best, worst))


def tune_broadcast(
    capability: CapabilityModel,
    n_tiles: int,
    max_intra: int = 1,
    payload_bytes: int = 64,
) -> TunedBroadcast:
    """Model-tune a broadcast over ``n_tiles`` leaders with up to
    ``max_intra`` threads per tile."""
    if n_tiles < 1:
        raise ModelError("need at least one tile")
    tuned: TunedTree = tune_tree(capability, n_tiles, payload_bytes, is_reduce=False)
    model = tuned.model + intra_level_model(capability, max_intra, payload_bytes)
    return TunedBroadcast(
        n_tiles=n_tiles,
        max_intra=max_intra,
        payload_bytes=payload_bytes,
        tree=tuned.tree,
        model=model,
    )


def plan_broadcast(
    capability: CapabilityModel,
    topology: Topology,
    thread_ids: Sequence[int],
    payload_bytes: int = 64,
) -> "BroadcastPlan":
    """Tune for the actual participant set and build executable programs."""
    groups = group_by_tile(topology, list(thread_ids))
    tuned = tune_broadcast(
        capability, len(groups), max_group_size(groups), payload_bytes
    )
    return BroadcastPlan(tuned=tuned, groups=groups)


@dataclass(frozen=True)
class BroadcastPlan:
    tuned: TunedBroadcast
    groups: Sequence[TileGroup]

    @property
    def model(self) -> MinMaxModel:
        return self.tuned.model

    def programs(self) -> List[Program]:
        """Engine programs: tree node i ↔ groups[i]."""
        tree = self.tuned.tree
        payload = self.tuned.payload_bytes
        groups = self.groups
        progs = {g.leader: Program(g.leader) for g in groups}
        for g in groups:
            for m in g.members:
                progs[m] = Program(m)

        parents = tree.parents()
        for node in tree.root.walk():
            g = groups[node.rank]
            p = progs[g.leader]
            parent = parents[node.rank]
            if parent is None:
                p.local_copy(payload)  # stage the payload
            else:
                p.poll_flag(f"bc/{parent}", payload_bytes=payload)
                p.write_flag(f"bca/{node.rank}")
            if node.children:
                p.write_flag(f"bc/{node.rank}", n_pollers=node.degree)
            if g.members:
                p.write_flag(f"bci/{node.rank}", n_pollers=len(g.members))
                for m in g.members:
                    progs[m].poll_flag(f"bci/{node.rank}", payload_bytes=payload)
            for child in node.children:
                p.poll_flag(f"bca/{child.rank}")
        return list(progs.values())
