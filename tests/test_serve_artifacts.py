"""Warm artifact registry: content addressing, single-flight, disk."""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError, ModelError
from repro.machine import ClusterMode, MachineConfig, MemoryMode
from repro.model.parameters import CapabilityModel
from repro.runtime.cache import cache_key
from repro.serve.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    Artifact,
    ArtifactRegistry,
    MachineRef,
    config_from_json,
)
from repro.serve.protocol import ProtocolError


def run(coro):
    return asyncio.run(coro)


class TestConfigFromJson:
    def test_none_is_the_papers_headline_part(self):
        cfg = config_from_json(None)
        assert cfg.cluster_mode is ClusterMode.SNC4
        assert cfg.memory_mode is MemoryMode.FLAT

    def test_enum_strings_are_case_insensitive(self):
        cfg = config_from_json(
            {"cluster_mode": "Quadrant", "memory_mode": "CACHE"}
        )
        assert cfg.cluster_mode is ClusterMode.QUADRANT
        assert cfg.memory_mode is MemoryMode.CACHE

    def test_unknown_mode_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="bad machine config"):
            config_from_json({"cluster_mode": "octopus"})

    def test_unknown_field_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            config_from_json({"no_such_knob": 1})

    def test_non_object_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            config_from_json([1, 2, 3])


class TestContentAddressing:
    def test_key_matches_the_shared_cache_scheme(self, snc4_flat_config):
        reg = ArtifactRegistry(iterations=7, seed=9, persist=False)
        assert reg.key_for(MachineRef(snc4_flat_config)) == cache_key(
            scope="serve.artifact",
            schema=ARTIFACT_SCHEMA_VERSION,
            config=snc4_flat_config,
            iterations=7,
            seed=9,
        )

    def test_key_varies_with_config_and_fit_parameters(self, snc4_flat_config):
        other = MachineConfig(
            cluster_mode=ClusterMode.QUADRANT, memory_mode=MemoryMode.FLAT
        )
        reg = ArtifactRegistry(iterations=7, persist=False)
        ref = MachineRef(snc4_flat_config)
        assert reg.key_for(ref) != reg.key_for(MachineRef(other))
        assert reg.key_for(ref) != ArtifactRegistry(
            iterations=8, persist=False
        ).key_for(ref)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            ArtifactRegistry(iterations=0)


class TestRegistry:
    def test_preload_then_get_is_a_warm_hit(
        self, snc4_flat_config, capability
    ):
        reg = ArtifactRegistry(persist=False)
        preloaded = reg.preload(MachineRef(snc4_flat_config), capability)
        assert len(reg) == 1
        assert reg.labels() == {preloaded.key: capability.config_label}

        got = run(reg.get(MachineRef(snc4_flat_config)))
        assert got is preloaded and got.source == "preload"

    def test_concurrent_cold_demand_fits_exactly_once(
        self, snc4_flat_config, capability, monkeypatch
    ):
        """Single-flight: 16 concurrent gets for a cold config must run
        one fit; everyone else joins its future."""
        reg = ArtifactRegistry(persist=False)
        fits = []

        def fake_load_or_fit(key, ref):
            fits.append(key)
            import time

            time.sleep(0.05)  # wide window for the others to pile in
            return Artifact(
                key=key, ref=ref, capability=capability, source="fit"
            )

        monkeypatch.setattr(reg, "_load_or_fit", fake_load_or_fit)

        async def go():
            return await asyncio.gather(
                *(reg.get(MachineRef(snc4_flat_config)) for _ in range(16))
            )

        results = run(go())
        assert len(fits) == 1
        assert len({id(a) for a in results}) == 1

    def test_machine_for_is_cached_per_artifact(
        self, snc4_flat_config, capability
    ):
        reg = ArtifactRegistry(persist=False)
        art = reg.preload(MachineRef(snc4_flat_config), capability)
        m1 = reg.machine_for(art)
        assert reg.machine_for(art) is m1
        assert m1.config == snc4_flat_config


class TestDiskPersistence:
    def test_fit_publishes_and_a_new_registry_loads_it(
        self, tmp_path, snc4_flat_config
    ):
        from repro.store import STORE_SCHEMA_VERSION

        reg = ArtifactRegistry(
            iterations=2, directory=str(tmp_path), persist=True
        )
        fitted = run(reg.get(MachineRef(snc4_flat_config)))
        assert fitted.source == "fit" and fitted.fit_seconds > 0
        assert fitted.version is not None

        # The fit published an immutable version record into the store.
        path = tmp_path / "versions" / f"{fitted.version}.json"
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == STORE_SCHEMA_VERSION
        assert payload["slot"] == fitted.key

        fresh = ArtifactRegistry(
            iterations=2, directory=str(tmp_path), persist=True
        )
        loaded = run(fresh.get(MachineRef(snc4_flat_config)))
        assert loaded.source == "store"
        assert loaded.version == fitted.version
        assert loaded.capability.RL == pytest.approx(fitted.capability.RL)
        assert loaded.capability.r_memory == pytest.approx(
            fitted.capability.r_memory
        )

    def test_legacy_flat_artifact_file_is_adopted(
        self, tmp_path, snc4_flat_config, capability
    ):
        """A pre-store `<key>.json` still serves (migrated, not refit)."""
        reg = ArtifactRegistry(
            iterations=2, directory=str(tmp_path), persist=True
        )
        key = reg.key_for(MachineRef(snc4_flat_config))
        (tmp_path / f"{key}.json").write_text(
            json.dumps(
                {
                    "schema_version": ARTIFACT_SCHEMA_VERSION,
                    "key": key,
                    "capability": capability.to_dict(),
                }
            )
        )
        loaded = run(reg.get(MachineRef(snc4_flat_config)))
        assert loaded.source == "disk"
        assert loaded.version is not None
        assert loaded.capability.RL == pytest.approx(capability.RL)

    def test_corrupt_artifact_refits_instead_of_failing(
        self, tmp_path, snc4_flat_config
    ):
        reg = ArtifactRegistry(
            iterations=2, directory=str(tmp_path), persist=True
        )
        key = reg.key_for(MachineRef(snc4_flat_config))
        (tmp_path / f"{key}.json").write_text("{ not json")
        artifact = run(reg.get(MachineRef(snc4_flat_config)))
        assert artifact.source == "fit"

    def test_stale_schema_version_refits(self, tmp_path, snc4_flat_config):
        reg = ArtifactRegistry(
            iterations=2, directory=str(tmp_path), persist=True
        )
        key = reg.key_for(MachineRef(snc4_flat_config))
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"schema_version": -1})
        )
        assert run(reg.get(MachineRef(snc4_flat_config))).source == "fit"


class TestCapabilityModelSerialization:
    def test_round_trip_preserves_every_parameter(self, capability):
        clone = CapabilityModel.from_dict(capability.to_dict())
        assert clone.config_label == capability.config_label
        assert clone.RL == pytest.approx(capability.RL)
        assert clone.r_tile == pytest.approx(capability.r_tile)
        assert clone.r_remote == pytest.approx(capability.r_remote)
        assert clone.r_memory == pytest.approx(capability.r_memory)
        for n in (1, 2, 64, 256):
            assert clone.T_C(n) == pytest.approx(capability.T_C(n))
        for op in ("copy", "triad"):
            for kind in ("ddr", "mcdram"):
                assert clone.bw(op, kind) == pytest.approx(
                    capability.bw(op, kind)
                )
        for loc in capability.multiline:
            assert clone.multiline_ns(loc, 512) == pytest.approx(
                capability.multiline_ns(loc, 512)
            )

    def test_round_trip_survives_json(self, capability):
        blob = json.dumps(capability.to_dict(), sort_keys=True)
        clone = CapabilityModel.from_dict(json.loads(blob))
        assert clone.bw("copy", "mcdram") == pytest.approx(
            capability.bw("copy", "mcdram")
        )

    def test_malformed_payload_is_a_model_error(self):
        with pytest.raises(ModelError):
            CapabilityModel.from_dict({"config_label": "x"})
        with pytest.raises(ModelError):
            CapabilityModel.from_dict("not a mapping")


#: Slot digests the served registry resolves for each wire form at
#: ``iterations=20, seed=1234`` with the package version pinned to
#: ``"vGOLDEN"``: ``(test id, ServeApp.warm kwargs, slot)``.  Every
#: published store version lives under one of these slots, so a change
#: here orphans existing stores.
SLOT_GOLDEN = [
    ("raw-default", {},
     "71a96fe5a8ee86791a0e6a384e93704ebd035769c884ba04bc151011da3dfd14"),
    ("raw-quadrant-cache",
     {"config_json": {"cluster_mode": "quadrant", "memory_mode": "cache"}},
     "cfd7b1fe6c7554790d792ba3dd8a4dd73c5153d432a2c28704452b1236ed5ca8"),
    ("hybrid-hbm", {"machine": "hybrid-hbm"},
     "5ce005d2e37f15448114151dfcd31621f996cd842223b25d0fe2c59003f0a75d"),
    ("knl-7210", {"machine": "knl-7210"},
     "ca80f79c2960d27b4a4d6239c7d0c69c1ff20b9fce8ead204a8e25be9bbf3d5e"),
    ("knl-7250", {"machine": "knl-7250"},
     "c1e3194d05cadfb59164cafcf320ecc84831d15ae5c130771a1f556e8d0168a4"),
    ("numa-2s", {"machine": "numa-2s"},
     "10dd1f32d4afc67f183b058937f86ea48a7618505a47e3172e17d6d30772b2da"),
]


class TestSlotKeyGolden:
    @pytest.mark.parametrize(
        "warm_kwargs,slot",
        [pytest.param(kw, slot, id=name) for name, kw, slot in SLOT_GOLDEN],
    )
    def test_slot_keys_are_stable(
        self, warm_kwargs, slot, capability, tmp_path, monkeypatch
    ):
        """Both wire forms resolve, through ``ServeApp.warm``, to the
        slot every existing store already holds.  The fit is stubbed:
        the key is fixed before any benchmark would run."""
        import repro.bench
        import repro.cache.keys
        import repro.model
        from repro.serve.app import ServeApp, ServeConfig

        monkeypatch.setattr(repro.cache.keys, "__version__", "vGOLDEN")
        monkeypatch.setattr(repro.bench, "characterize", lambda *a, **k: None)
        monkeypatch.setattr(
            repro.model, "derive_capability_model", lambda char: capability
        )
        app = ServeApp(
            ServeConfig(
                iterations=20,
                seed=1234,
                persist_artifacts=False,
                artifact_dir=str(tmp_path),
            )
        )
        artifact = run(app.warm(**warm_kwargs))
        assert artifact.source == "fit"
        assert artifact.key == slot
