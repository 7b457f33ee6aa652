"""The declarative hardware schema: golden pinning and rejection."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.machine.cache import CacheHierarchy
from repro.machine.calibration import Calibration
from repro.machine.coherence import MESIF
from repro.machine.config import MachineConfig
from repro.machine.machine import KNLMachine
from repro.machines import MACHINES_SCHEMA_VERSION, get_machine, resolve
from repro.machines.schema import KNOBS, describe_knobs, flatten_knobs
from repro.runtime.cache import fingerprint


def doc(knobs=None, name="t"):
    return {
        "schema_version": MACHINES_SCHEMA_VERSION,
        "name": name,
        "description": "test preset",
        "knobs": knobs or {},
    }


class TestGoldenDefault:
    """An empty-knobs preset IS the hardwired KNL 7210 — byte for byte."""

    def test_config_fingerprint_identical(self):
        rm = get_machine("knl-7210")
        assert fingerprint(rm.to_machine_config()) == fingerprint(
            MachineConfig()
        )

    def test_config_json_identical(self):
        rm = get_machine("knl-7210")
        a = json.dumps(fingerprint(rm.to_machine_config()), sort_keys=True)
        b = json.dumps(fingerprint(MachineConfig()), sort_keys=True)
        assert a == b

    def test_no_overrides_and_no_machine_id(self):
        rm = get_machine("knl-7210")
        assert not rm.has_overrides
        machine = rm.build(seed=7)
        assert machine.machine_id is None

    def test_machine_behavior_identical(self):
        """Same seed → byte-identical noisy samples: calibration, noise
        params, RNG stream order all untouched by the preset path."""
        built = get_machine("knl-7210").build(seed=42)
        direct = KNLMachine(MachineConfig(), seed=42)
        assert built.memory_latency_ns(0) == direct.memory_latency_ns(0)
        assert built.line_transfer_ns(
            0, MESIF.MODIFIED, 5
        ) == direct.line_transfer_ns(0, MESIF.MODIFIED, 5)
        assert built.contention_ns(16) == direct.contention_ns(16)
        assert built.calibration == direct.calibration
        assert built.noise.params == direct.noise.params

    def test_char_cache_key_identical(self):
        """The preset-built default hits the same characterization-cache
        entries as a directly built machine."""
        from repro.runtime.cache import CharacterizationCache

        built = get_machine("knl-7210").build(seed=7)
        direct = KNLMachine(MachineConfig(), seed=7)
        args = (5, None, (16, 64), False)
        assert CharacterizationCache.key_for_machine(
            built, *args
        ) == CharacterizationCache.key_for_machine(direct, *args)


class TestDocumentValidation:
    def test_minimal_document_resolves(self):
        rm = resolve(doc())
        assert rm.name == "t" and rm.knobs == ()

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve([1, 2, 3])

    def test_wrong_schema_version_rejected(self):
        bad = doc()
        bad["schema_version"] = MACHINES_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="schema_version"):
            resolve(bad)

    def test_missing_name_rejected(self):
        bad = doc()
        del bad["name"]
        with pytest.raises(ConfigurationError, match="name"):
            resolve(bad)

    def test_unknown_top_level_key_rejected(self):
        bad = doc()
        bad["knob"] = {}  # typo of "knobs" must not silently no-op
        with pytest.raises(ConfigurationError, match="knob"):
            resolve(bad)

    def test_unknown_group_rejected_with_path(self):
        with pytest.raises(ConfigurationError, match="gpu"):
            resolve(doc({"gpu": {"count": 4}}))

    def test_unknown_knob_rejected_with_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"clock\.boost_ghz"):
            resolve(doc({"clock": {"boost_ghz": 3.0}}))

    MISTYPED = [
        ({"clock": {"core_ghz": "fast"}}, r"clock\.core_ghz"),
        ({"clock": {"core_ghz": True}}, r"clock\.core_ghz"),
        ({"topology": {"active_tiles": 1.5}}, r"topology\.active_tiles"),
        ({"topology": {"active_tiles": 0}}, r"topology\.active_tiles"),
        ({"cluster": {"scheme": "octant"}}, r"cluster\.scheme"),
        ({"memory": {"mode": "paged"}}, r"memory\.mode"),
        ({"memory": {"hybrid_cache_fraction": 2.0}},
         r"memory\.hybrid_cache_fraction"),
        ({"latency": {"near_ns": [5.0]}}, r"latency\.near_ns"),
        ({"latency": {"near_ns": [9.0, 5.0]}}, r"latency\.near_ns"),
        ({"latency": {"tile_ns": {"X": 5.0}}}, r"latency\.tile_ns\.X"),
        ({"latency": {"tile_ns": {}}}, r"latency\.tile_ns"),
        ({"bandwidth": {"near": {"copy": "big"}}},
         r"bandwidth\.near\.copy"),
        ({"bandwidth": {"near": {"warp": 1.0}}}, r"bandwidth\.near\.warp"),
        ({"noise": {"sigma": -0.1}}, r"noise\.sigma"),
    ]

    @pytest.mark.parametrize("knobs,pattern", MISTYPED)
    def test_mistyped_knob_rejected_with_path(self, knobs, pattern):
        with pytest.raises(ConfigurationError, match=pattern):
            resolve(doc(knobs))

    def test_cross_knob_violations_surface_at_resolve(self):
        with pytest.raises(ConfigurationError, match="n_active_tiles"):
            resolve(doc({"topology": {"active_tiles": 39,
                                      "physical_tiles": 38}}))

    def test_every_knob_has_a_description(self):
        assert set(describe_knobs()) == set(KNOBS)
        assert all(describe_knobs().values())


class TestOverrides:
    def test_config_mapped_knobs_set_fields(self):
        rm = resolve(doc({
            "cluster": {"scheme": "snc2"},
            "clock": {"core_ghz": 2.1},
            "memory": {"near_bytes": 1 << 30, "far_mts": 2400},
        }))
        config = rm.to_machine_config()
        assert config.cluster_mode.value == "snc2"
        assert config.core_ghz == 2.1
        assert config.mcdram_bytes == 1 << 30
        assert config.ddr_mts == 2400
        assert not rm.has_overrides  # all config-mapped, no tables touched

    def test_latency_overrides_reach_the_machine(self):
        rm = resolve(doc({"latency": {"l1_ns": 1.5,
                                      "far_ns": [50.0, 60.0]}}))
        assert rm.has_overrides
        machine = rm.build(seed=3)
        assert machine.machine_id == "t"
        assert machine.calibration.l1_ns == 1.5
        lat = machine.memory_latency_true_ns(0)
        assert 50.0 <= lat <= 60.0

    def test_bandwidth_override_snaps_peaks_to_median(self):
        rm = resolve(doc({"bandwidth": {"far": {"copy": 200.0}}}))
        machine = rm.build(seed=3)
        from repro.machine.config import MemoryKind

        caps = machine.calibration.stream_flat[MemoryKind.DDR]
        assert caps.copy == 200.0
        assert caps.copy_peak == 200.0  # not KNL's tuned 77

    def test_partial_maps_merge_over_defaults(self):
        rm = resolve(doc({"latency": {"tile_ns": {"M": 99.0}}}))
        cal = rm.build(seed=3).calibration
        base = Calibration.for_mode(rm.to_machine_config().cluster_mode)
        assert cal.tile_ns[MESIF.MODIFIED] == 99.0
        assert cal.tile_ns[MESIF.SHARED] == base.tile_ns[MESIF.SHARED]

    def test_cache_knobs_build_geometry(self):
        rm = resolve(doc({"caches": {"l2_kib": 2048}}))
        machine = rm.build(seed=3)
        assert machine.caches.l2.size_bytes == 2048 * 1024
        assert machine.caches.l1.size_bytes == CacheHierarchy().l1.size_bytes

    def test_bad_cache_geometry_is_configuration_error(self):
        rm = resolve(doc({"caches": {"l1_kib": 3, "l1_assoc": 7}}))
        with pytest.raises(ConfigurationError, match="caches"):
            rm.build(seed=3)

    def test_noise_override(self):
        rm = resolve(doc({"noise": {"sigma": 0.5}}))
        assert rm.build(seed=3).noise.params.sigma == 0.5

    def test_same_config_different_tables_distinct_char_keys(self):
        """machine_id keeps a preset with overridden silicon from
        sharing characterization-cache entries with stock KNL."""
        from repro.runtime.cache import CharacterizationCache

        rm = resolve(doc({"latency": {"l1_ns": 1.0}}))
        branded = rm.build(seed=7)
        stock = KNLMachine(rm.to_machine_config(), seed=7)
        args = (5, None, (16,), False)
        assert CharacterizationCache.key_for_machine(
            branded, *args
        ) != CharacterizationCache.key_for_machine(stock, *args)


class TestFlattenKnobs:
    def test_canonical_order_is_sorted(self):
        pairs = flatten_knobs(
            {"noise": {"sigma": 0.1}, "clock": {"core_ghz": 2.0}}
        )
        assert [p for p, _ in pairs] == sorted(p for p, _ in pairs)

    def test_none_means_empty(self):
        assert flatten_knobs(None) == ()
