"""Machine configuration: cluster modes, memory modes, chip parameters.

KNL exposes five *cluster modes* (how cache-line addresses map to the
distributed tag directories) and three *memory modes* (how the 16 GB of
on-package MCDRAM is used), for the paper's "fifteen configurations".
:func:`all_configurations` enumerates them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Tuple

from repro.errors import ConfigurationError
from repro.units import GIB


class ClusterMode(enum.Enum):
    """Assignment of cache lines to distributed tag directories (CHAs).

    * ``A2A`` — addresses uniformly hashed across all CHAs (KNC-like).
    * ``HEMISPHERE`` — directory in the same half as the memory serving
      the line; transparent to software.
    * ``QUADRANT`` — like hemisphere, with four quadrants.
    * ``SNC2`` — two NUMA domains exposed to the OS (non-transparent).
    * ``SNC4`` — four NUMA domains exposed to the OS, analogous to a
      4-socket Xeon.
    """

    A2A = "a2a"
    HEMISPHERE = "hemisphere"
    QUADRANT = "quadrant"
    SNC2 = "snc2"
    SNC4 = "snc4"

    @property
    def n_clusters(self) -> int:
        """Number of affinity domains the mode partitions the die into."""
        return _N_CLUSTERS[self]

    @property
    def is_sub_numa(self) -> bool:
        """True for SNC modes (NUMA domains visible to software)."""
        return self in (ClusterMode.SNC2, ClusterMode.SNC4)

    @property
    def is_experimental(self) -> bool:
        """SNC2 was experimental on early KNL steppings (higher variance)."""
        return self is ClusterMode.SNC2


_N_CLUSTERS = {
    ClusterMode.A2A: 1,
    ClusterMode.HEMISPHERE: 2,
    ClusterMode.QUADRANT: 4,
    ClusterMode.SNC2: 2,
    ClusterMode.SNC4: 4,
}


class MemoryMode(enum.Enum):
    """How the on-package MCDRAM is exposed.

    * ``FLAT`` — MCDRAM and DDR form one address space; MCDRAM appears as a
      separate NUMA node.
    * ``CACHE`` — MCDRAM is a direct-mapped memory-side cache for DDR.
    * ``HYBRID`` — part cache (4 or 8 GB), part flat.
    """

    FLAT = "flat"
    CACHE = "cache"
    HYBRID = "hybrid"


class MemoryKind(enum.Enum):
    """Physical memory technology behind an address."""

    DDR = "ddr"
    MCDRAM = "mcdram"


#: Valid MCDRAM cache fractions in hybrid mode (4 GB or 8 GB of the 16 GB).
HYBRID_CACHE_FRACTIONS: Tuple[float, ...] = (0.25, 0.5)


def _reject(knob: str, value: object, why: str) -> "ConfigurationError":
    """A :class:`ConfigurationError` naming the offending knob.

    Every validation failure in this module goes through here so the
    message always carries the knob's dotted path and the rejected
    value — callers (the serve layer, ``repro machines validate``)
    surface these verbatim.
    """
    return ConfigurationError(f"config.{knob} = {value!r}: {why}")


def _check_int(knob: str, value: object) -> int:
    """``value`` as a plain int, or :class:`ConfigurationError`.

    bool is rejected explicitly: ``True`` quacks like 1 but a config
    built with one is almost certainly a caller bug.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise _reject(knob, value, "must be an integer")
    return value


def _check_number(knob: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _reject(knob, value, "must be a number")
    return float(value)


@dataclass(frozen=True)
class MachineConfig:
    """Full configuration of a simulated KNL part.

    Defaults describe the Xeon Phi 7210 used in the paper: 64 cores at
    1.3 GHz, 32 active dual-core tiles (of 38 physical), 16 GB MCDRAM,
    96 GB DDR4-2133.
    """

    cluster_mode: ClusterMode = ClusterMode.QUADRANT
    memory_mode: MemoryMode = MemoryMode.FLAT
    #: Fraction of MCDRAM used as cache in hybrid mode (0.25 → 4 GB).
    hybrid_cache_fraction: float = 0.5
    n_active_tiles: int = 32
    cores_per_tile: int = 2
    threads_per_core: int = 4
    mcdram_bytes: int = 16 * GIB
    ddr_bytes: int = 96 * GIB
    core_ghz: float = 1.3
    #: DDR4 transfer rate in MT/s (2133 on the paper's 7210; 2400 on
    #: 7230/7250/7290 — scales the DDR bandwidth ceiling).
    ddr_mts: int = 2133
    #: Physical tile slots on the die (38 on all shipping parts).
    n_physical_tiles: int = 38

    def __post_init__(self) -> None:
        # Type checks first: every field is vetted before any comparison
        # so a mistyped knob (``core_ghz="fast"``) raises a
        # ConfigurationError naming the knob, never a bare TypeError out
        # of an ordering operator.
        if not isinstance(self.cluster_mode, ClusterMode):
            raise _reject(
                "cluster_mode", self.cluster_mode, "must be a ClusterMode"
            )
        if not isinstance(self.memory_mode, MemoryMode):
            raise _reject(
                "memory_mode", self.memory_mode, "must be a MemoryMode"
            )
        for knob in (
            "n_active_tiles",
            "cores_per_tile",
            "threads_per_core",
            "mcdram_bytes",
            "ddr_bytes",
            "ddr_mts",
            "n_physical_tiles",
        ):
            _check_int(knob, getattr(self, knob))
        _check_number("core_ghz", self.core_ghz)
        _check_number("hybrid_cache_fraction", self.hybrid_cache_fraction)

        if self.n_physical_tiles < 1:
            raise _reject(
                "n_physical_tiles", self.n_physical_tiles, "must be >= 1"
            )
        if not (1 <= self.n_active_tiles <= self.n_physical_tiles):
            raise _reject(
                "n_active_tiles",
                self.n_active_tiles,
                f"must be in [1, {self.n_physical_tiles}]",
            )
        if self.cores_per_tile != 2:
            raise _reject(
                "cores_per_tile",
                self.cores_per_tile,
                "KNL tiles hold exactly 2 cores",
            )
        if self.threads_per_core not in (1, 2, 4):
            raise _reject(
                "threads_per_core",
                self.threads_per_core,
                "must be 1, 2, or 4",
            )
        if self.memory_mode is MemoryMode.HYBRID and (
            self.hybrid_cache_fraction not in HYBRID_CACHE_FRACTIONS
        ):
            raise _reject(
                "hybrid_cache_fraction",
                self.hybrid_cache_fraction,
                f"must be one of {HYBRID_CACHE_FRACTIONS} in hybrid mode",
            )
        # Sub-NUMA modes need at least one tile per exposed domain; tile
        # counts need not divide evenly (the 68-core 7250 runs SNC4 with
        # uneven quadrants) — the topology balances them within one.
        if self.n_active_tiles < self.cluster_mode.n_clusters:
            raise _reject(
                "n_active_tiles",
                self.n_active_tiles,
                f"{self.cluster_mode.value} needs at least "
                f"{self.cluster_mode.n_clusters} active tiles",
            )
        if self.mcdram_bytes <= 0:
            raise _reject(
                "mcdram_bytes", self.mcdram_bytes, "must be positive"
            )
        if self.ddr_bytes <= 0:
            raise _reject("ddr_bytes", self.ddr_bytes, "must be positive")
        if self.core_ghz <= 0:
            raise _reject("core_ghz", self.core_ghz, "must be positive")
        if self.ddr_mts <= 0:
            raise _reject("ddr_mts", self.ddr_mts, "must be positive")

    # -- derived quantities -------------------------------------------------

    @property
    def n_cores(self) -> int:
        """Active cores on the part (64 for the paper's 7210)."""
        return self.n_active_tiles * self.cores_per_tile

    @property
    def n_threads(self) -> int:
        """Hardware threads available (256 with 4 HT per core)."""
        return self.n_cores * self.threads_per_core

    @property
    def mcdram_cache_bytes(self) -> int:
        """Bytes of MCDRAM acting as memory-side cache in this mode."""
        if self.memory_mode is MemoryMode.CACHE:
            return self.mcdram_bytes
        if self.memory_mode is MemoryMode.HYBRID:
            return int(self.mcdram_bytes * self.hybrid_cache_fraction)
        return 0

    @property
    def mcdram_flat_bytes(self) -> int:
        """Bytes of MCDRAM addressable as flat memory in this mode."""
        return self.mcdram_bytes - self.mcdram_cache_bytes

    @property
    def addressable_bytes(self) -> int:
        """Total bytes software can address (DDR + flat MCDRAM)."""
        return self.ddr_bytes + self.mcdram_flat_bytes

    def label(self) -> str:
        """Short human-readable label, e.g. ``"snc4-flat"``."""
        s = f"{self.cluster_mode.value}-{self.memory_mode.value}"
        if self.memory_mode is MemoryMode.HYBRID:
            s += f"{int(self.hybrid_cache_fraction * 16)}g"
        return s

    def with_(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def all_configurations(
    hybrid_cache_fraction: float = 0.5,
) -> Iterator[MachineConfig]:
    """Yield the paper's fifteen cluster × memory configurations.

    Hybrid mode is instantiated at a single cache fraction (default 8 GB)
    to keep the count at fifteen, matching the paper's accounting.
    """
    for cluster, memory in itertools.product(ClusterMode, MemoryMode):
        kwargs = dict(cluster_mode=cluster, memory_mode=memory)
        if memory is MemoryMode.HYBRID:
            kwargs["hybrid_cache_fraction"] = hybrid_cache_fraction
        yield MachineConfig(**kwargs)
