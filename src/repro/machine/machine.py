"""KNLMachine: the timing facade of the simulated chip.

Everything above this layer (benchmarks, the virtual-time engine, the
applications) asks the machine for the cost of concrete events:

* one cache-line transfer between two cores, given the MESIF state;
* a multi-line copy/read from another cache (latency = α + β·lines);
* an access that misses to memory (DDR / MCDRAM / MCDRAM-as-cache);
* a streaming iteration over a large buffer (bandwidth-limited);
* contended accesses by N threads to one line;
* flag writes/reads used for synchronization.

Costs are derived from the per-mode calibration tables plus the mesh
distance of the actual route (requester → home CHA → owner/controller →
requester), so placement effects (quadrant locality, Figure 4's latency
spread) arise naturally.  With ``noisy=True`` (default) every quantity is
sampled through the noise model; the noise-free value is available for
tests and for the analytic models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.cache.keys import content_key
from repro.cache.lru import LRUCache
from repro.errors import ConfigurationError, TopologyError
from repro.machine.bandwidth import BandwidthModel
from repro.machine.cache import CacheHierarchy
from repro.machine.calibration import (
    COPY_BW_NOVEC,
    FLAG_INVALIDATE_NS,
    REMOTE_READ_BW_NOVEC,
    Calibration,
    Range,
)
from repro.machine.coherence import MESIF, TagDirectory
from repro.machine.config import (
    ClusterMode,
    MachineConfig,
    MemoryKind,
    MemoryMode,
)
from repro.machine.memory import Buffer, McdramCache, MemorySystem
from repro.machine.mesh import Mesh
from repro.machine.noise import NoiseModel, NoiseParams
from repro.machine.topology import Topology
from repro.rng import SeedLike, generator, maybe_int_seed, spawn
from repro.units import CACHE_LINE_BYTES, lines_in

#: Single-thread copy plateau into the local L1/L2 (Fig. 5: local accesses
#: beat remote ones while the data fits in L1).
LOCAL_COPY_BW_L1 = 14.0
LOCAL_COPY_BW_L2 = 9.5


@dataclass(frozen=True)
class _AffineRange:
    """Maps a mesh path length onto a calibrated (lo, hi) latency range."""

    lo_ns: float
    hi_ns: float
    path_min: float
    path_max: float

    def at(self, path: float) -> float:
        if self.path_max <= self.path_min:
            return 0.5 * (self.lo_ns + self.hi_ns)
        t = (path - self.path_min) / (self.path_max - self.path_min)
        t = min(max(t, 0.0), 1.0)
        return self.lo_ns + t * (self.hi_ns - self.lo_ns)


@dataclass(frozen=True)
class _Facts:
    """What a build of one (config, int seed, calibration, caches)
    computes that never changes afterwards, shared by every machine of
    that key.  The two dicts are memos of pure functions of the key, so
    sharing them changes no value."""

    topology: Topology
    mesh: Mesh
    directory: TagDirectory
    c2c_range: Tuple[float, float]
    mem_range: Dict[MemoryKind, Tuple[float, float]]
    #: Noise-free single-line costs, see :meth:`KNLMachine.line_transfer_true_ns`.
    transfer_cache: Dict[Tuple, float]
    #: Noise-free STREAM iteration times, see :meth:`KNLMachine.stream_iteration_ns`.
    stream_base: Dict[Tuple, float]


#: Most fact sets the process memo keeps (least recently built dropped
#: first).  A cold run of all 15 experiments builds 13 distinct ones.
FACTS_MEMO_SIZE = 16

_facts_memo = LRUCache("machine.facts", max_entries=FACTS_MEMO_SIZE)


class KNLMachine:
    """One configured, bootable KNL part.

    Machines built from the same config, int seed, calibration and
    caches share one set of immutable facts (topology, mesh, directory,
    path ranges and the noise-free cost memos) through a small process
    memo; each machine still owns its noise stream, its own RNG, its
    allocator and its MCDRAM cache model.
    """

    def __init__(
        self,
        config: MachineConfig,
        seed: SeedLike = None,
        noise: bool = True,
        *,
        calibration: Optional[Calibration] = None,
        noise_params: Optional["NoiseParams"] = None,
        caches: Optional[CacheHierarchy] = None,
        machine_id: Optional[str] = None,
    ) -> None:
        """``calibration``/``noise_params``/``caches`` override the
        per-mode KNL tables — the hook :mod:`repro.machines` presets use
        to describe non-KNL hardware (a NUMA Xeon, an HBM+DRAM node) on
        the same engine.  All ``None`` (the default) reproduces the
        hardwired KNL part exactly, including RNG stream order.
        ``machine_id`` names the preset for cache fingerprinting: two
        machines with equal configs but different calibrations must
        never share a characterization-cache entry.
        """
        self.config = config
        # Recorded for cache fingerprinting (repro.runtime): a machine
        # built from (config, int seed, noise) is exactly reconstructable.
        self.seed = maybe_int_seed(seed)
        self.noisy = bool(noise)
        self.machine_id = machine_id
        root = generator(seed)
        # Drawn even when the facts come from the memo, so the root
        # stream (and the noise and machine streams after it) advance
        # exactly as for a fresh build.
        topo_rng = spawn(root, "topo")
        #: Identity of this machine's facts, or None (not memoized) for
        #: a seed that is not a plain int.
        self.facts_key = (
            None if self.seed is None
            else (config, self.seed,
                  None if calibration is None else content_key(calibration),
                  caches)
        )
        facts = None if self.facts_key is None else _facts_memo.get(self.facts_key)
        if facts is None:
            self.topology = Topology(config, topo_rng)
            self.mesh = Mesh(self.topology)
            self.directory = TagDirectory(self.topology)
        else:
            self.topology = facts.topology
            self.mesh = facts.mesh
            self.directory = facts.directory
        self.memory = MemorySystem(config, self.topology)
        self.caches = caches if caches is not None else CacheHierarchy()
        self.calibration = (
            calibration
            if calibration is not None
            else Calibration.for_mode(config.cluster_mode)
        )
        self.mcdram_cache = McdramCache(config.mcdram_cache_bytes)
        self.bandwidth = BandwidthModel(
            self.calibration,
            config.memory_mode,
            self.mcdram_cache,
            core_ghz_scale=config.core_ghz / 1.3,
            ddr_mts_scale=config.ddr_mts / 2133.0,
        )
        params = (
            noise_params
            if noise_params is not None
            else NoiseParams.for_mode(config.cluster_mode)
        )
        if not noise:
            params = NoiseParams(sigma=0.0, outlier_p=0.0, quantum_ns=0.0)
        self.noise = NoiseModel(params, spawn(root, "noise"))
        self._rng = spawn(root, "machine")
        if facts is None:
            # Noise-free transfer costs are pure functions of placement;
            # memoize them (the engine asks for the same pairs constantly).
            self._transfer_cache: Dict[Tuple, float] = {}
            self._stream_base: Dict[Tuple, float] = {}
            self._c2c_range = self._calibrate_c2c_paths()
            self._mem_range = self._calibrate_memory_paths()
            if self.facts_key is not None:
                _facts_memo.put(self.facts_key, _Facts(
                    self.topology, self.mesh, self.directory,
                    self._c2c_range, self._mem_range,
                    self._transfer_cache, self._stream_base,
                ))
        else:
            self._transfer_cache = facts.transfer_cache
            self._stream_base = facts.stream_base
            self._c2c_range = facts.c2c_range
            self._mem_range = facts.mem_range

    # ------------------------------------------------------------------
    # path calibration: map mesh routes onto the measured latency ranges
    # ------------------------------------------------------------------

    def _c2c_path_length(self, req_tile: int, owner_tile: int, addr: int) -> float:
        """Hops of an L2 miss serviced by another tile: requester → home
        CHA → owner → requester (Figure 3's steps 1-4)."""
        home = self.directory.home(
            addr, memory_cluster=self._memory_cluster_of_tile(owner_tile)
        ).tile_id
        m = self.mesh
        return (
            m.hops(m.tile_coord(req_tile), m.tile_coord(home))
            + m.hops(m.tile_coord(home), m.tile_coord(owner_tile))
            + m.hops(m.tile_coord(owner_tile), m.tile_coord(req_tile))
        )

    def _memory_cluster_of_tile(self, tile_id: int) -> Optional[int]:
        """Memory affinity domain used for directory-home lookups when a
        line was allocated locally by a thread on ``tile_id``."""
        mode = self.config.cluster_mode
        if mode is ClusterMode.A2A:
            return None
        return self.topology.cluster_of_tile(tile_id, mode)

    def _calibrate_c2c_paths(self) -> Tuple[float, float]:
        """(min, max) remote-transfer path length over placements."""
        tiles = [t.tile_id for t in self.topology.tiles]
        probe = tiles[:: max(1, len(tiles) // 12)]
        lengths = []
        for rt in probe:
            for ot in probe:
                if rt == ot:
                    continue
                for a in (0, 64 * 1037, 64 * 7919):
                    lengths.append(self._c2c_path_length(rt, ot, a))
        return (min(lengths), max(lengths))

    def _mem_path_length(self, tile_id: int, address: int) -> float:
        info = self.memory.resolve(address)
        home = self.directory.home(
            address, memory_cluster=info.cluster,
            memory_domain=info.cluster_domain,
        ).tile_id
        m = self.mesh
        tc = m.tile_coord(tile_id)
        hc = m.tile_coord(home)
        cc = info.controller_coord
        return m.hops(tc, hc) + m.hops(hc, cc) + m.hops(cc, tc)

    def _calibrate_memory_paths(self) -> Dict[MemoryKind, Tuple[float, float]]:
        out: Dict[MemoryKind, Tuple[float, float]] = {}
        tiles = [t.tile_id for t in self.topology.tiles]
        probe = tiles[:: max(1, len(tiles) // 10)]
        for kind in MemoryKind:
            try:
                addrs = self._probe_addresses(kind)
            except ConfigurationError:
                continue  # MCDRAM not addressable in cache mode
            lengths = [
                self._mem_path_length(t, a) for t in probe for a in addrs
            ]
            out[kind] = (min(lengths), max(lengths))
        return out

    def _probe_addresses(self, kind: MemoryKind) -> Tuple[int, ...]:
        if kind is MemoryKind.DDR:
            base, size = 0, self.config.ddr_bytes
        else:
            if self.config.mcdram_flat_bytes == 0:
                raise ConfigurationError("MCDRAM not addressable")
            base, size = self.config.ddr_bytes, self.config.mcdram_flat_bytes
        step = size // 7
        return tuple(base + i * step + 64 * i for i in range(7))

    # ------------------------------------------------------------------
    # single-line transfers (Table I territory)
    # ------------------------------------------------------------------

    def line_transfer_ns(
        self,
        reader_core: int,
        state: MESIF,
        owner_core: Optional[int] = None,
        address: Optional[int] = None,
        noisy: bool = True,
    ) -> float:
        """Cost of the reader loading one line currently held by
        ``owner_core``'s cache in ``state`` (or resident in memory for
        state I / ``owner_core=None``)."""
        value = self.line_transfer_true_ns(reader_core, state, owner_core, address)
        return self.noise.sample(value) if noisy else value

    def line_transfer_true_ns(
        self,
        reader_core: int,
        state: MESIF,
        owner_core: Optional[int] = None,
        address: Optional[int] = None,
    ) -> float:
        key = ("c2c", reader_core, state, owner_core, address)
        cached = self._transfer_cache.get(key)
        if cached is None:
            cached = self._line_transfer_true_ns(
                reader_core, state, owner_core, address
            )
            self._transfer_cache[key] = cached
        return cached

    def _line_transfer_true_ns(
        self,
        reader_core: int,
        state: MESIF,
        owner_core: Optional[int],
        address: Optional[int],
    ) -> float:
        cal = self.calibration
        if state is MESIF.INVALID or owner_core is None:
            return self.memory_latency_true_ns(reader_core, address)
        if owner_core == reader_core:
            return cal.l1_ns
        topo = self.topology
        if topo.same_tile(reader_core, owner_core):
            return cal.tile_ns[state]
        rt = topo.tile_of_core(reader_core).tile_id
        ot = topo.tile_of_core(owner_core).tile_id
        addr = address if address is not None else self._synth_address(ot)
        path = self._c2c_path_length(rt, ot, addr)
        lo, hi = cal.remote_ns[state]
        rng = _AffineRange(lo, hi, *self._c2c_range)
        return rng.at(path)

    def _synth_address(self, owner_tile: int) -> int:
        """Deterministic stand-in address for a line owned by a tile
        (benchmarks that don't track addresses still get a plausible
        directory home)."""
        return (owner_tile * 2654435761 % (1 << 30)) * CACHE_LINE_BYTES

    def local_hit_ns(self, level: str = "l1", noisy: bool = True) -> float:
        """Load-to-use latency of a local cache hit."""
        if level == "l1":
            value = self.calibration.l1_ns
        elif level == "l2":
            value = self.calibration.tile_ns[MESIF.SHARED]
        else:
            raise TopologyError(f"unknown cache level {level!r}")
        return self.noise.sample(value) if noisy else value

    # ------------------------------------------------------------------
    # memory latency
    # ------------------------------------------------------------------

    def memory_latency_ns(
        self,
        core: int,
        address: Optional[int] = None,
        kind: Optional[MemoryKind] = None,
        noisy: bool = True,
    ) -> float:
        value = self.memory_latency_true_ns(core, address, kind)
        return self.noise.sample(value) if noisy else value

    def memory_latency_true_ns(
        self,
        core: int,
        address: Optional[int] = None,
        kind: Optional[MemoryKind] = None,
    ) -> float:
        key = ("mem", core, address, kind)
        cached = self._transfer_cache.get(key)
        if cached is None:
            cached = self._memory_latency_true_ns(core, address, kind)
            self._transfer_cache[key] = cached
        return cached

    def _memory_latency_true_ns(
        self,
        core: int,
        address: Optional[int] = None,
        kind: Optional[MemoryKind] = None,
    ) -> float:
        """Noise-free latency of one line fetched from memory.

        In cache mode, loads are serviced through the MCDRAM cache and
        pay the tag-check-then-DDR path the paper measured (~160-180 ns)
        regardless of hit/miss at this granularity.
        """
        cal = self.calibration
        tile = self.topology.tile_of_core(core).tile_id
        mode = self.config.memory_mode
        if address is None:
            kind = kind or MemoryKind.DDR
            # Median placement for the kind.
            lo_hi = self._latency_range_for(kind)
            pmin, pmax = self._mem_range.get(kind, (0.0, 1.0))
            return _AffineRange(*lo_hi, pmin, pmax).at(0.5 * (pmin + pmax))
        info = self.memory.resolve(address)
        path = self._mem_path_length(tile, address)
        lo_hi = self._latency_range_for(info.kind, info.cacheable_in_mcdram)
        pmin, pmax = self._mem_range.get(info.kind, (path, path))
        return _AffineRange(*lo_hi, pmin, pmax).at(path)

    def _latency_range_for(
        self, kind: MemoryKind, cacheable: Optional[bool] = None
    ) -> Range:
        cal = self.calibration
        mode = self.config.memory_mode
        if cacheable is None:
            cacheable = mode in (MemoryMode.CACHE, MemoryMode.HYBRID) and (
                kind is MemoryKind.DDR
            )
        if kind is MemoryKind.DDR and cacheable:
            return cal.cache_mode_ns
        return cal.memory_ns[kind]

    # ------------------------------------------------------------------
    # multi-line transfers (latency = alpha + beta * lines)
    # ------------------------------------------------------------------

    def multiline_ns(
        self,
        reader_core: int,
        nbytes: int,
        state: MESIF = MESIF.EXCLUSIVE,
        owner_core: Optional[int] = None,
        op: str = "copy",
        vectorized: bool = True,
        noisy: bool = True,
    ) -> float:
        """Cost of one thread copying/reading an ``nbytes`` message that
        lies in another cache into a local buffer (``copy``) or into
        registers (``read``)."""
        value = self.multiline_true_ns(
            reader_core, nbytes, state, owner_core, op, vectorized
        )
        return self.noise.sample(value) if noisy else value

    def multiline_true_ns(
        self,
        reader_core: int,
        nbytes: int,
        state: MESIF = MESIF.EXCLUSIVE,
        owner_core: Optional[int] = None,
        op: str = "copy",
        vectorized: bool = True,
    ) -> float:
        if op not in ("copy", "read"):
            raise ConfigurationError(f"multiline op must be copy|read, got {op!r}")
        n = lines_in(nbytes)
        alpha = self.line_transfer_true_ns(reader_core, state, owner_core)
        bw = self._multiline_plateau_bw(reader_core, state, owner_core, op, vectorized)
        # The destination buffer spills from L1 to L2 past the L1 capacity
        # (copy only: reads have no destination) — Fig. 5's local dip.
        if op == "copy" and owner_core == reader_core:
            l1_lines = self.caches.l1.n_lines // 2  # src+dst share L1
            if n > l1_lines:
                t_l1 = (l1_lines * CACHE_LINE_BYTES) / LOCAL_COPY_BW_L1
                t_l2 = ((n - l1_lines) * CACHE_LINE_BYTES) / LOCAL_COPY_BW_L2
                return alpha + t_l1 + t_l2
        return alpha + (n * CACHE_LINE_BYTES) / bw

    def _multiline_plateau_bw(
        self,
        reader_core: int,
        state: MESIF,
        owner_core: Optional[int],
        op: str,
        vectorized: bool,
    ) -> float:
        cal = self.calibration
        if op == "read":
            return cal.remote_read_bw if vectorized else REMOTE_READ_BW_NOVEC
        if owner_core is None:
            # copy from memory: single-thread stream rate (~8 GB/s, §V-B)
            return 8.0
        if owner_core == reader_core:
            return LOCAL_COPY_BW_L1
        if self.topology.same_tile(reader_core, owner_core):
            key = state if state in cal.copy_bw_tile else MESIF.EXCLUSIVE
            bw = cal.copy_bw_tile[key]
        else:
            bw = cal.copy_bw_remote
        if not vectorized:
            bw = min(bw, COPY_BW_NOVEC if not self.config.cluster_mode.is_experimental else 6.7)
        return bw

    # ------------------------------------------------------------------
    # contention and congestion
    # ------------------------------------------------------------------

    def contention_ns(
        self, n_accessors: int, rank: Optional[int] = None, noisy: bool = True
    ) -> float:
        """Completion time of the ``rank``-th (0-based) of ``n_accessors``
        threads simultaneously pulling the same line (T_C(N) = α + β·N).

        Without ``rank``, returns the full-group completion T_C(N)."""
        if n_accessors < 1:
            raise ConfigurationError("need at least one accessor")
        if rank is None:
            rank = n_accessors - 1
        if not 0 <= rank < n_accessors:
            raise ConfigurationError(f"rank {rank} out of range for N={n_accessors}")
        cal = self.calibration
        value = cal.contention_alpha + cal.contention_beta * (rank + 1)
        return self.noise.sample(value) if noisy else value

    def contention_schedule(self, n_accessors: int, noisy: bool = True) -> np.ndarray:
        """Completion offsets of all N contending readers, sorted."""
        ranks = np.arange(n_accessors)
        cal = self.calibration
        values = cal.contention_alpha + cal.contention_beta * (ranks + 1)
        if not noisy:
            return values
        return np.sort(
            np.array([self.noise.sample(v) for v in values])
        )

    def congestion_factor(
        self,
        n_pairs: int,
        link_overlap: int = 0,
        per_pair_gbps: float = 7.5,
    ) -> float:
        """Latency multiplier when ``n_pairs`` P2P transfers overlap.

        With random/unknown placement (``link_overlap=0``, the paper's
        situation) the answer is "none": per-pair demand (~7.5 GB/s) is
        an order of magnitude below a ring link's ~83 GB/s.  With a
        *known* adversarial layout forcing ``link_overlap`` pairs through
        one link, the factor grows once aggregate demand exceeds the
        link — the measurement the paper could not construct."""
        if n_pairs < 1:
            raise ConfigurationError("need at least one pair")
        if link_overlap <= 0:
            return 1.0
        from repro.machine.calibration import LINK_BW_GBS

        demand = link_overlap * per_pair_gbps
        return max(1.0, demand / LINK_BW_GBS)

    # ------------------------------------------------------------------
    # streaming memory bandwidth (Table II / Fig. 9 territory)
    # ------------------------------------------------------------------

    def stream_iteration_ns(
        self,
        op: str,
        nbytes_per_thread: int,
        cores_ht: Mapping[int, int],
        kind: MemoryKind = MemoryKind.DDR,
        nt: bool = True,
        tuned: bool = False,
        working_set_bytes: Optional[int] = None,
        noisy: bool = True,
    ) -> np.ndarray:
        """Per-thread times [ns] for one iteration of a stream kernel.

        Each thread touches ``nbytes_per_thread`` (the benchmark's
        reported bytes: e.g. copy counts read+write traffic).  Returns one
        time per participating thread; the suite reports the max, as the
        paper's harness does.
        """
        if nbytes_per_thread <= 0:
            raise ConfigurationError("nbytes_per_thread must be positive")
        n_threads = sum(cores_ht.values())
        # The noise-free time depends on the first core (the start-up
        # latency) and on the threads per core in order (the summed
        # per-core rates), so those, not the whole mapping, key it.
        key = (op, nbytes_per_thread, kind, nt, tuned, working_set_bytes,
               next(iter(cores_ht), None), tuple(cores_ht.values()))
        base = self._stream_base.get(key)
        if base is None:
            agg = self.bandwidth.aggregate(
                op, kind, cores_ht, nt=nt, tuned=tuned,
                working_set_bytes=working_set_bytes,
            )
            base = nbytes_per_thread / (agg / n_threads)
            # startup: one memory latency to prime the stream
            base += self.memory_latency_true_ns(next(iter(cores_ht)), kind=kind)
            self._stream_base[key] = base
        if not noisy:
            return np.full(n_threads, base)
        # One iteration-level jitter factor shared by all threads (the
        # threads stream the same interleaved channels), plus a small
        # per-thread imbalance.  Cache mode is far noisier (random buffers
        # may or may not be MCDRAM-resident).
        scale = 3.0 if self.config.memory_mode is MemoryMode.CACHE else 1.0
        common = self.noise.jitter_only(base, scale)
        imbalance = self._rng.lognormal(0.0, 0.006, n_threads)
        return common * imbalance

    # ------------------------------------------------------------------
    # synchronization primitives (used by the virtual-time engine)
    # ------------------------------------------------------------------

    def flag_write_ns(self, n_pollers_cached: int = 0, noisy: bool = True) -> float:
        """Cost *to the writer* of storing a flag: stores retire through
        the store buffer, so the writer only pays the local store."""
        del n_pollers_cached  # visibility, not writer stall — see below
        value = self.calibration.l1_ns
        return self.noise.sample(value) if noisy else value

    def flag_visibility_ns(
        self, n_pollers_cached: int = 0, cold: bool = True, noisy: bool = True
    ) -> float:
        """Delay until a flag store becomes observable to pollers.

        A cold line (fresh buffer each iteration) needs a read-for-
        ownership from memory before the store is globally visible;
        pollers holding the line add an invalidation round.  The store
        itself does not stall the writer (see :meth:`flag_write_ns`)."""
        value = 0.0
        if cold:
            value += self.memory_latency_true_ns(0, kind=MemoryKind.DDR)
        if n_pollers_cached > 0:
            value += FLAG_INVALIDATE_NS
        if value == 0.0:
            return 0.0
        return self.noise.sample(value) if noisy else value

    def flag_read_ns(
        self, reader_core: int, writer_core: int, noisy: bool = True
    ) -> float:
        """Cost of a poller observing a freshly written flag (the line is
        Modified in the writer's cache)."""
        return self.line_transfer_ns(
            reader_core, MESIF.MODIFIED, writer_core, noisy=noisy
        )

    # ------------------------------------------------------------------
    # allocation passthrough + misc
    # ------------------------------------------------------------------

    def alloc(self, nbytes: int, **kw) -> Buffer:
        return self.memory.alloc(nbytes, **kw)

    @property
    def n_cores(self) -> int:
        return self.topology.n_cores

    @property
    def n_threads(self) -> int:
        return self.topology.n_threads

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def __repr__(self) -> str:  # pragma: no cover
        return f"KNLMachine({self.config.label()}, cores={self.n_cores})"
