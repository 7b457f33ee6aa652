"""Die topology: tile grid, cores, threads, quadrants, disabled tiles.

The KNL die holds 38 physical dual-core tile slots arranged on a 6-column
grid, plus 8 MCDRAM controllers (EDCs) along the top and bottom edges and
2 DDR controllers (IMCs) at the middle of the left and right edges
(paper Figure 2b).  At least two slots are disabled on every shipping part
due to yield; the paper's 7210 has 32 active tiles (64 cores) and the
*locations* of the disabled tiles are unknown to software.  We mirror
this: the simulator picks disabled slots pseudo-randomly (seeded), and
the public query API only exposes what software on a real KNL could know
(tile/quadrant/hemisphere membership), while the machine model uses the
hidden coordinates internally.

Grid coordinates are ``(row, col)`` with row 0 = top EDC row, rows 1-7 =
tile rows, row 8 = bottom EDC row.  Tile slots per row: 4, 6, 6, 4, 6, 6, 6
(row 1 flanks the IIO block; row 4 flanks the two IMCs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.machine.config import ClusterMode, MachineConfig
from repro.rng import SeedLike, generator, spawn

#: Grid dimensions (rows include the controller rows).
GRID_ROWS = 9
GRID_COLS = 6

#: Tile slot coordinates, fixed by the die floorplan (38 slots).
TILE_SLOT_COORDS: Tuple[Tuple[int, int], ...] = tuple(
    [(1, c) for c in (1, 2, 3, 4)]
    + [(2, c) for c in range(6)]
    + [(3, c) for c in range(6)]
    + [(4, c) for c in (1, 2, 3, 4)]
    + [(5, c) for c in range(6)]
    + [(6, c) for c in range(6)]
    + [(7, c) for c in range(6)]
)

#: MCDRAM controller (EDC) coordinates: four at the top, four at the bottom.
EDC_COORDS: Tuple[Tuple[int, int], ...] = (
    (0, 0), (0, 1), (0, 4), (0, 5),
    (8, 0), (8, 1), (8, 4), (8, 5),
)

#: DDR controller (IMC) coordinates: middle of left and right edges.
IMC_COORDS: Tuple[Tuple[int, int], ...] = ((4, 0), (4, 5))


def quadrant_of_coords(row: int, col: int) -> int:
    """Quadrant index (0=TL, 1=TR, 2=BL, 3=BR) of a grid position.

    The die splits left/right at column 3 and top/bottom between rows 4
    and 5 (so each quadrant contains two EDCs).
    """
    top = row <= 4
    left = col <= 2
    return (0 if top else 2) + (0 if left else 1)


def hemisphere_of_coords(row: int, col: int) -> int:
    """Hemisphere index (0=left, 1=right) of a grid position."""
    return 0 if col <= 2 else 1


@dataclass(frozen=True)
class Tile:
    """One active dual-core tile.

    ``tile_id`` is the dense logical index (0..n_active-1) that software
    sees; ``slot`` is the physical slot index on the die (hidden from the
    modeling layer, used only by the machine timing model).
    """

    tile_id: int
    slot: int
    row: int
    col: int
    quadrant: int
    hemisphere: int


class Topology:
    """Active-tile topology of one configured KNL part.

    Thread numbering follows the OS convention on KNL: hardware thread
    ``h`` of core ``c`` has global id ``c + h * n_cores`` (the first
    ``n_cores`` ids cover one thread per core).
    """

    def __init__(self, config: MachineConfig, seed: SeedLike = None) -> None:
        self.config = config
        rng = spawn(generator(seed), "topology")
        self._tiles = self._choose_active_tiles(config, rng)
        self._slot_to_tile: Dict[int, Tile] = {t.slot: t for t in self._tiles}
        # Sizes are fixed once the active tiles are chosen.
        self._n_tiles = len(self._tiles)
        self._n_cores = self._n_tiles * config.cores_per_tile
        self._n_threads = self._n_cores * config.threads_per_core
        #: Full pin order per schedule name, filled on first use by
        #: :func:`repro.bench.schedules.pin_threads`.
        self.pin_orders: Dict[str, Tuple[int, ...]] = {}
        # Dense lookup arrays for hot paths.
        self._tile_rows = np.array([t.row for t in self._tiles])
        self._tile_cols = np.array([t.col for t in self._tiles])
        self._tile_quadrant = np.array([t.quadrant for t in self._tiles])
        self._tile_hemisphere = np.array([t.hemisphere for t in self._tiles])
        # Memoized cluster membership (hot in directory-home lookups).
        self._cluster_cache: Dict[Tuple[int, ClusterMode], Tuple[int, ...]] = {}

    # -- construction -------------------------------------------------------

    @staticmethod
    def _choose_active_tiles(
        config: MachineConfig, rng: np.random.Generator
    ) -> List[Tile]:
        """Select which physical slots are active.

        Yield-disabled slots are unknown on real parts; we draw them
        pseudo-randomly, but constrained so the cluster domains stay
        balanced (each quadrant ends with the same active count when the
        total allows it), matching how Intel bins SNC-capable parts.
        """
        n_disable = config.n_physical_tiles - config.n_active_tiles
        slots_by_quadrant: Dict[int, List[int]] = {q: [] for q in range(4)}
        for slot, (r, c) in enumerate(TILE_SLOT_COORDS):
            slots_by_quadrant[quadrant_of_coords(r, c)].append(slot)

        # Disable from the largest quadrants first so active counts even out.
        disabled: List[int] = []
        counts = {q: len(s) for q, s in slots_by_quadrant.items()}
        for _ in range(n_disable):
            q = max(counts, key=lambda k: (counts[k], k))
            pool = [s for s in slots_by_quadrant[q] if s not in disabled]
            disabled.append(int(rng.choice(pool)))
            counts[q] -= 1

        active = [s for s in range(len(TILE_SLOT_COORDS)) if s not in disabled]
        tiles = []
        for tile_id, slot in enumerate(active):
            r, c = TILE_SLOT_COORDS[slot]
            tiles.append(
                Tile(
                    tile_id=tile_id,
                    slot=slot,
                    row=r,
                    col=c,
                    quadrant=quadrant_of_coords(r, c),
                    hemisphere=hemisphere_of_coords(r, c),
                )
            )
        return tiles

    # -- sizes --------------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return self._n_tiles

    @property
    def n_cores(self) -> int:
        return self._n_cores

    @property
    def n_threads(self) -> int:
        return self._n_threads

    @property
    def tiles(self) -> Sequence[Tile]:
        return tuple(self._tiles)

    @property
    def disabled_slots(self) -> Tuple[int, ...]:
        active = {t.slot for t in self._tiles}
        return tuple(
            s for s in range(self.config.n_physical_tiles) if s not in active
        )

    # -- id mapping ---------------------------------------------------------

    def tile(self, tile_id: int) -> Tile:
        if not 0 <= tile_id < self.n_tiles:
            raise TopologyError(f"tile_id {tile_id} out of range [0,{self.n_tiles})")
        return self._tiles[tile_id]

    def tile_of_core(self, core: int) -> Tile:
        if not 0 <= core < self.n_cores:
            raise TopologyError(f"core {core} out of range [0,{self.n_cores})")
        return self._tiles[core // self.config.cores_per_tile]

    def cores_of_tile(self, tile_id: int) -> Tuple[int, ...]:
        cpt = self.config.cores_per_tile
        self.tile(tile_id)  # range check
        return tuple(range(tile_id * cpt, (tile_id + 1) * cpt))

    def core_of_thread(self, thread: int) -> int:
        if not 0 <= thread < self.n_threads:
            raise TopologyError(
                f"thread {thread} out of range [0,{self.n_threads})"
            )
        return thread % self.n_cores

    def ht_of_thread(self, thread: int) -> int:
        """Hardware-thread slot (0..threads_per_core-1) of a global thread id."""
        self.core_of_thread(thread)  # range check
        return thread // self.n_cores

    def threads_of_core(self, core: int) -> Tuple[int, ...]:
        if not 0 <= core < self.n_cores:
            raise TopologyError(f"core {core} out of range [0,{self.n_cores})")
        return tuple(
            core + h * self.n_cores for h in range(self.config.threads_per_core)
        )

    def tile_of_thread(self, thread: int) -> Tile:
        return self.tile_of_core(self.core_of_thread(thread))

    # -- affinity queries (what software can observe) ------------------------

    def quadrant_of_tile(self, tile_id: int) -> int:
        return self.tile(tile_id).quadrant

    def hemisphere_of_tile(self, tile_id: int) -> int:
        return self.tile(tile_id).hemisphere

    def cluster_of_tile(self, tile_id: int, mode: ClusterMode = None) -> int:
        """Affinity-domain index of a tile under a cluster mode.

        A2A has a single domain; hemisphere/SNC2 use the two hemispheres;
        quadrant/SNC4 use the four quadrants.
        """
        mode = mode or self.config.cluster_mode
        n = mode.n_clusters
        if n == 1:
            return 0
        if n == 2:
            return self.hemisphere_of_tile(tile_id)
        return self.quadrant_of_tile(tile_id)

    def cluster_of_core(self, core: int, mode: ClusterMode = None) -> int:
        return self.cluster_of_tile(self.tile_of_core(core).tile_id, mode)

    def tiles_in_cluster(self, cluster: int, mode: ClusterMode = None) -> Tuple[int, ...]:
        mode = mode or self.config.cluster_mode
        key = (cluster, mode)
        cached = self._cluster_cache.get(key)
        if cached is None:
            cached = tuple(
                t.tile_id
                for t in self._tiles
                if self.cluster_of_tile(t.tile_id, mode) == cluster
            )
            self._cluster_cache[key] = cached
        return cached

    def same_tile(self, core_a: int, core_b: int) -> bool:
        return self.tile_of_core(core_a).tile_id == self.tile_of_core(core_b).tile_id

    def same_quadrant(self, core_a: int, core_b: int) -> bool:
        return self.tile_of_core(core_a).quadrant == self.tile_of_core(core_b).quadrant

    def same_hemisphere(self, core_a: int, core_b: int) -> bool:
        return (
            self.tile_of_core(core_a).hemisphere
            == self.tile_of_core(core_b).hemisphere
        )

    # -- controller placement ------------------------------------------------

    @property
    def edc_coords(self) -> Tuple[Tuple[int, int], ...]:
        return EDC_COORDS

    @property
    def imc_coords(self) -> Tuple[Tuple[int, int], ...]:
        return IMC_COORDS

    def edcs_of_quadrant(self, quadrant: int) -> Tuple[int, ...]:
        """Indices into :data:`EDC_COORDS` of the EDCs in a quadrant."""
        return tuple(
            i
            for i, (r, c) in enumerate(EDC_COORDS)
            if quadrant_of_coords(r, c) == quadrant
        )

    def imc_of_hemisphere(self, hemisphere: int) -> int:
        """Index into :data:`IMC_COORDS` of the IMC in a hemisphere."""
        for i, (r, c) in enumerate(IMC_COORDS):
            if hemisphere_of_coords(r, c) == hemisphere:
                return i
        raise TopologyError(f"no IMC in hemisphere {hemisphere}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.config.label()}, tiles={self.n_tiles}, "
            f"cores={self.n_cores}, threads={self.n_threads})"
        )
