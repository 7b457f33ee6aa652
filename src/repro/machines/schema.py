"""Declarative hardware-description schema: the knob registry.

A machine preset is a JSON document::

    {
      "schema_version": 1,
      "name": "numa-2s",
      "description": "dual-socket NUMA Xeon",
      "knobs": {"clock": {"core_ghz": 2.1}, "memory": {...}, ...}
    }

``knobs`` is a nested object of *groups*; this module owns the registry
of every recognized dotted knob path (``group.knob``), its expected
shape, and the validation that turns a raw document into canonical
``(path, value)`` pairs, with the validators of :mod:`repro.fields`.
Validation failures are always a
:class:`~repro.errors.ConfigurationError` whose message carries the
offending knob's dotted path and the rejected value — never a bare
``KeyError``/``TypeError`` out of a dict lookup.

The two memory pools are named *near* and *far* rather than MCDRAM and
DDR: on the simulated KNL engine the near pool occupies the MCDRAM
slot and the far pool the DDR slot, but a preset may mean HBM vs DDR
(hybrid node) or local- vs remote-socket DRAM (NUMA Xeon).  Latency
and bandwidth knobs override the per-mode calibration tables; a preset
with **no** knobs describes exactly the paper's hardwired Xeon Phi
7210 part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.fields import Choice, Integer, Number, fail, ns_range

#: Bump when the preset document layout changes incompatibly.
MACHINES_SCHEMA_VERSION = 1

#: MESIF states addressable from latency override maps.
_STATES = ("M", "E", "S", "F")

#: StreamCaps fields addressable from bandwidth override maps.
_STREAM_FIELDS = (
    "copy", "read", "write", "triad", "copy_peak", "triad_peak"
)


_POSITIVE_INT = Integer(lo=1)
_POSITIVE_NUMBER = Number(positive=True)
_FRACTION = Number(lo=0, hi=1)


def _keyed_map(
    keys: Tuple[str, ...], leaf: Callable[[str, Any], Any]
) -> Callable[[str, Any], Tuple[Tuple[str, Any], ...]]:
    """A ``{key: leaf}`` object over a fixed key set, canonicalized to
    sorted ``(key, value)`` pairs (hashable, fingerprint-stable)."""

    def check(path: str, value: Any) -> Tuple[Tuple[str, Any], ...]:
        if not isinstance(value, Mapping):
            raise fail(path, value, f"must be an object with keys {keys}")
        out = []
        for key in sorted(value):
            if key not in keys:
                raise fail(
                    f"{path}.{key}", value[key],
                    f"is an unknown key; expected one of {sorted(keys)}",
                )
            out.append((key, leaf(f"{path}.{key}", value[key])))
        if not out:
            raise fail(path, value, "must not be empty")
        return tuple(out)

    return check


@dataclass(frozen=True)
class Knob:
    """One registered knob: its checker and a one-line description."""

    check: Callable[[str, Any], Any]
    description: str


#: The full registry, keyed by dotted path.  Groups:
#:
#: * ``cluster``  — directory/cluster scheme
#: * ``topology`` — tile grid and thread counts
#: * ``clock``    — core frequency
#: * ``memory``   — pool sizes, mode, controller transfer rate
#: * ``caches``   — L1/L2 geometry
#: * ``latency``  — per-level latency overrides [ns]
#: * ``bandwidth``— per-pool stream capability overrides [GB/s]
#: * ``noise``    — measurement-noise overrides
KNOBS: Dict[str, Knob] = {
    "cluster.scheme": Knob(
        Choice("a2a", "hemisphere", "quadrant", "snc2", "snc4"),
        "directory/cluster scheme (tag-directory address mapping)",
    ),
    "topology.active_tiles": Knob(
        _POSITIVE_INT, "active dual-core tiles on the die"
    ),
    "topology.physical_tiles": Knob(
        _POSITIVE_INT, "physical tile slots in the floorplan"
    ),
    "topology.cores_per_tile": Knob(
        _POSITIVE_INT, "cores per tile (the engine requires 2)"
    ),
    "topology.threads_per_core": Knob(
        _POSITIVE_INT, "hardware threads per core (1, 2, or 4)"
    ),
    "clock.core_ghz": Knob(_POSITIVE_NUMBER, "core frequency [GHz]"),
    "memory.mode": Knob(
        Choice("flat", "cache", "hybrid"),
        "near-pool exposure: flat address space, memory-side cache, "
        "or hybrid",
    ),
    "memory.hybrid_cache_fraction": Knob(
        _FRACTION, "fraction of the near pool acting as cache (hybrid)"
    ),
    "memory.near_bytes": Knob(
        _POSITIVE_INT,
        "near-pool capacity [bytes] (MCDRAM / HBM / local-socket DRAM)",
    ),
    "memory.far_bytes": Knob(
        _POSITIVE_INT,
        "far-pool capacity [bytes] (DDR / remote-socket DRAM)",
    ),
    "memory.far_mts": Knob(
        _POSITIVE_INT,
        "far-pool transfer rate [MT/s]; scales the far bandwidth "
        "ceiling (leave default when overriding bandwidth.far directly)",
    ),
    "caches.l1_kib": Knob(_POSITIVE_INT, "per-core L1D size [KiB]"),
    "caches.l1_assoc": Knob(_POSITIVE_INT, "L1D associativity"),
    "caches.l2_kib": Knob(_POSITIVE_INT, "tile-shared L2 size [KiB]"),
    "caches.l2_assoc": Knob(_POSITIVE_INT, "L2 associativity"),
    "latency.l1_ns": Knob(
        _POSITIVE_NUMBER, "local L1 load-to-use latency [ns]"
    ),
    "latency.tile_ns": Knob(
        _keyed_map(_STATES, _POSITIVE_NUMBER),
        "same-tile transfer latency [ns] per MESIF state",
    ),
    "latency.remote_ns": Knob(
        _keyed_map(_STATES, ns_range),
        "remote cache-to-cache latency range [lo, hi] ns per MESIF state",
    ),
    "latency.near_ns": Knob(
        ns_range, "near-pool idle memory latency range [lo, hi] ns"
    ),
    "latency.far_ns": Knob(
        ns_range, "far-pool idle memory latency range [lo, hi] ns"
    ),
    "latency.contention_alpha_ns": Knob(
        _POSITIVE_NUMBER, "1:N contention intercept alpha [ns]"
    ),
    "latency.contention_beta_ns": Knob(
        _POSITIVE_NUMBER, "1:N contention slope beta [ns/accessor]"
    ),
    "bandwidth.near": Knob(
        _keyed_map(_STREAM_FIELDS, _POSITIVE_NUMBER),
        "near-pool aggregate stream capabilities [GB/s] "
        "(copy/read/write/triad + *_peak)",
    ),
    "bandwidth.far": Knob(
        _keyed_map(_STREAM_FIELDS, _POSITIVE_NUMBER),
        "far-pool aggregate stream capabilities [GB/s]",
    ),
    "bandwidth.copy_tile": Knob(
        _POSITIVE_NUMBER, "single-thread same-tile copy plateau [GB/s]"
    ),
    "bandwidth.copy_remote": Knob(
        _POSITIVE_NUMBER, "single-thread remote copy plateau [GB/s]"
    ),
    "bandwidth.read_remote": Knob(
        _POSITIVE_NUMBER, "single-thread remote read plateau [GB/s]"
    ),
    "noise.sigma": Knob(
        _FRACTION, "sigma of the multiplicative lognormal jitter"
    ),
    "noise.outlier_p": Knob(
        _FRACTION, "probability of an outlier spike per sample"
    ),
}

#: Knobs that override calibration/noise/cache tables rather than map
#: onto a MachineConfig field.  A preset using none of these builds a
#: stock KNLMachine (no override objects, ``machine_id`` unset), which
#: keeps characterization-cache keys identical to direct construction.
OVERRIDE_GROUPS = ("caches", "latency", "bandwidth", "noise")


def flatten_knobs(
    knobs: Any, name: str = "<preset>"
) -> Tuple[Tuple[str, Any], ...]:
    """Validate a raw ``knobs`` object into canonical sorted pairs.

    Unknown groups and unknown paths are rejected with the dotted path
    in the message; every value passes its registered checker.
    """
    if knobs is None:
        knobs = {}
    if not isinstance(knobs, Mapping):
        raise ConfigurationError(
            f"{name}: knobs must be a JSON object, got {knobs!r}"
        )
    groups = sorted({path.split(".", 1)[0] for path in KNOBS})
    pairs = []
    for group in sorted(knobs):
        body = knobs[group]
        if group not in groups:
            raise fail(
                group, body, f"is an unknown knob group; one of {groups}"
            )
        if not isinstance(body, Mapping):
            raise fail(group, body, "must be a JSON object of knobs")
        for leaf in sorted(body):
            path = f"{group}.{leaf}"
            spec = KNOBS.get(path)
            if spec is None:
                known = sorted(
                    p.split(".", 1)[1]
                    for p in KNOBS
                    if p.startswith(group + ".")
                )
                raise fail(
                    path, body[leaf],
                    f"is an unknown knob; {group} has {known}",
                )
            pairs.append((path, spec.check(path, body[leaf])))
    return tuple(sorted(pairs))


def nest_knobs(pairs: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    """Canonical pairs back to the nested JSON ``knobs`` object."""
    out: Dict[str, Any] = {}
    for path, value in pairs:
        group, leaf = path.split(".", 1)
        if isinstance(value, tuple) and value and isinstance(value[0], tuple):
            value = {k: list(v) if isinstance(v, tuple) else v
                     for k, v in value}
        elif isinstance(value, tuple):
            value = list(value)
        out.setdefault(group, {})[leaf] = value
    return out


def check_document(obj: Any, origin: str = "<preset>") -> Dict[str, Any]:
    """Validate the outer preset document shape; returns it as a dict.

    Checks ``schema_version`` (exact match), ``name`` (non-empty
    string), optional ``description``, and rejects unknown top-level
    keys so a typoed ``"knob"`` section cannot silently no-op.
    """
    if not isinstance(obj, Mapping):
        raise ConfigurationError(
            f"{origin}: machine preset must be a JSON object, got {obj!r}"
        )
    allowed = {"schema_version", "name", "description", "knobs"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigurationError(
            f"{origin}: unknown top-level key(s) {unknown}; "
            f"expected {sorted(allowed)}"
        )
    version = obj.get("schema_version")
    if version != MACHINES_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{origin}: schema_version must be "
            f"{MACHINES_SCHEMA_VERSION}, got {version!r}"
        )
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"{origin}: preset needs a non-empty string 'name', "
            f"got {name!r}"
        )
    description = obj.get("description", "")
    if not isinstance(description, str):
        raise ConfigurationError(
            f"{origin}: description must be a string, got {description!r}"
        )
    return dict(obj)


def knob_value(
    pairs: Tuple[Tuple[str, Any], ...], path: str, default: Any = None
) -> Any:
    """Look up one canonical knob value by dotted path."""
    for p, value in pairs:
        if p == path:
            return value
    return default


def describe_knobs() -> Dict[str, str]:
    """``{dotted path: description}`` for docs and ``machines show``."""
    return {path: knob.description for path, knob in sorted(KNOBS.items())}
