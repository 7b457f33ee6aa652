"""MachineConfig validation and the fifteen configurations."""

import pytest

from repro.errors import ConfigurationError
from repro.machine import (
    ClusterMode,
    MachineConfig,
    MemoryMode,
    all_configurations,
)
from repro.units import GIB


class TestClusterMode:
    def test_domain_counts(self):
        assert ClusterMode.A2A.n_clusters == 1
        assert ClusterMode.HEMISPHERE.n_clusters == 2
        assert ClusterMode.QUADRANT.n_clusters == 4
        assert ClusterMode.SNC2.n_clusters == 2
        assert ClusterMode.SNC4.n_clusters == 4

    def test_snc_flagged_sub_numa(self):
        assert ClusterMode.SNC4.is_sub_numa
        assert ClusterMode.SNC2.is_sub_numa
        assert not ClusterMode.QUADRANT.is_sub_numa
        assert not ClusterMode.A2A.is_sub_numa

    def test_snc2_experimental(self):
        assert ClusterMode.SNC2.is_experimental
        assert not ClusterMode.SNC4.is_experimental


class TestMachineConfig:
    def test_defaults_are_7210(self):
        cfg = MachineConfig()
        assert cfg.n_cores == 64
        assert cfg.n_threads == 256
        assert cfg.mcdram_bytes == 16 * GIB
        assert cfg.core_ghz == pytest.approx(1.3)

    def test_flat_mode_addressable(self):
        cfg = MachineConfig(memory_mode=MemoryMode.FLAT)
        assert cfg.mcdram_cache_bytes == 0
        assert cfg.mcdram_flat_bytes == 16 * GIB
        assert cfg.addressable_bytes == (96 + 16) * GIB

    def test_cache_mode_hides_mcdram(self):
        cfg = MachineConfig(memory_mode=MemoryMode.CACHE)
        assert cfg.mcdram_cache_bytes == 16 * GIB
        assert cfg.mcdram_flat_bytes == 0
        assert cfg.addressable_bytes == 96 * GIB

    def test_hybrid_split(self):
        cfg = MachineConfig(
            memory_mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.25
        )
        assert cfg.mcdram_cache_bytes == 4 * GIB
        assert cfg.mcdram_flat_bytes == 12 * GIB

    def test_hybrid_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(
                memory_mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.3
            )

    def test_bad_threads_per_core(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(threads_per_core=3)

    def test_bad_tile_count(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(n_active_tiles=39)

    def test_uneven_snc4_allowed(self):
        # The 68-core 7250 runs SNC4 with uneven quadrants.
        cfg = MachineConfig(cluster_mode=ClusterMode.SNC4, n_active_tiles=34)
        assert cfg.n_cores == 68

    def test_snc_needs_one_tile_per_domain(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(cluster_mode=ClusterMode.SNC4, n_active_tiles=3)

    def test_bad_ddr_rate(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(ddr_mts=0)

    def test_label(self):
        cfg = MachineConfig(
            cluster_mode=ClusterMode.SNC4, memory_mode=MemoryMode.FLAT
        )
        assert cfg.label() == "snc4-flat"

    def test_hybrid_label_includes_cache_gb(self):
        cfg = MachineConfig(
            memory_mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.5
        )
        assert "hybrid8g" in cfg.label()

    def test_with_replaces_fields(self):
        cfg = MachineConfig()
        other = cfg.with_(cluster_mode=ClusterMode.A2A)
        assert other.cluster_mode is ClusterMode.A2A
        assert cfg.cluster_mode is ClusterMode.QUADRANT  # original untouched

    def test_frozen(self):
        cfg = MachineConfig()
        with pytest.raises(Exception):
            cfg.core_ghz = 2.0


class TestAllConfigurations:
    def test_exactly_fifteen(self):
        configs = list(all_configurations())
        assert len(configs) == 15

    def test_covers_all_pairs(self):
        pairs = {
            (c.cluster_mode, c.memory_mode) for c in all_configurations()
        }
        assert len(pairs) == 15

    def test_labels_unique(self):
        labels = [c.label() for c in all_configurations()]
        assert len(set(labels)) == 15


class TestValidationAudit:
    """Satellite audit: every invalid knob raises ConfigurationError
    carrying the knob's dotted path and the rejected value — never a
    bare ValueError/TypeError/AssertionError out of a comparison."""

    MISTYPED = [
        ("cluster_mode", "quadrant"),  # string, not the enum
        ("memory_mode", "flat"),
        ("n_active_tiles", "32"),
        ("n_active_tiles", 32.0),
        ("n_active_tiles", True),
        ("cores_per_tile", None),
        ("threads_per_core", "many"),
        ("mcdram_bytes", 16.5),
        ("ddr_bytes", [96]),
        ("core_ghz", "fast"),
        ("core_ghz", True),
        ("ddr_mts", 2133.0),
        ("n_physical_tiles", object()),
        ("hybrid_cache_fraction", "half"),
    ]

    @pytest.mark.parametrize(
        "knob,value", MISTYPED, ids=[f"{k}={v!r}"[:40] for k, v in MISTYPED]
    )
    def test_mistyped_value_names_the_knob(self, knob, value):
        with pytest.raises(ConfigurationError) as err:
            MachineConfig(**{knob: value})
        assert f"config.{knob}" in str(err.value)

    OUT_OF_RANGE = [
        ("n_active_tiles", 0),
        ("n_active_tiles", 39),
        ("cores_per_tile", 4),
        ("threads_per_core", 3),
        ("mcdram_bytes", 0),
        ("ddr_bytes", -1),
        ("core_ghz", 0.0),
        ("ddr_mts", -2133),
        ("n_physical_tiles", 0),
        # The topology lays out all 38 floorplan slots, whatever this says.
        ("n_physical_tiles", 32),
        ("n_physical_tiles", 60),
        ("n_physical_tiles", 10 ** 12),
    ]

    @pytest.mark.parametrize(
        "knob,value", OUT_OF_RANGE, ids=[f"{k}={v}" for k, v in OUT_OF_RANGE]
    )
    def test_out_of_range_names_the_knob(self, knob, value):
        with pytest.raises(ConfigurationError) as err:
            MachineConfig(**{knob: value})
        message = str(err.value)
        assert f"config.{knob}" in message
        assert repr(value) in message

    @pytest.mark.parametrize("knob", ["mcdram_bytes", "ddr_bytes", "ddr_mts"])
    def test_sizes_and_rates_must_fit_a_float64(self, knob):
        """The machine scales by these as floats; one beyond the float
        range would overflow mid-build instead of naming the knob."""
        with pytest.raises(ConfigurationError) as err:
            MachineConfig(**{knob: 10 ** 400})
        assert f"config.{knob}" in str(err.value)
        assert "must fit a float64" in str(err.value)

    def test_hybrid_fraction_only_policed_in_hybrid_mode(self):
        # Flat mode ignores the fraction (it scales nothing)...
        MachineConfig(memory_mode=MemoryMode.FLAT, hybrid_cache_fraction=0.3)
        # ...hybrid mode rejects off-menu fractions, naming the knob.
        with pytest.raises(ConfigurationError) as err:
            MachineConfig(
                memory_mode=MemoryMode.HYBRID, hybrid_cache_fraction=0.3
            )
        assert "config.hybrid_cache_fraction" in str(err.value)

    def test_snc_needs_one_tile_per_domain(self):
        with pytest.raises(ConfigurationError) as err:
            MachineConfig(cluster_mode=ClusterMode.SNC4, n_active_tiles=3)
        assert "config.n_active_tiles" in str(err.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"core_ghz": "fast"},
            {"n_active_tiles": "32"},
            {"cluster_mode": "snc4"},
            {"mcdram_bytes": None},
        ],
    )
    def test_no_bare_builtin_exceptions_escape(self, kwargs):
        try:
            MachineConfig(**kwargs)
        except ConfigurationError:
            pass  # the contract
        # Any other exception type propagates and fails the test.
