"""``repro store``: the operator CLI over the artifact store.

Every test drives :func:`main_store` in-process against a temp store
directory — no fitting (payloads come from the session capability
fixture via ``--from-file``) and no fleet (the fleet-level hot swap is
covered by ``tests/test_serve_fleet.py::TestFleetReload``).
"""

import json

import pytest

from repro.store import ArtifactStore
from repro.store.cli import build_store_parser, main_store


@pytest.fixture()
def payload_file(tmp_path, capability):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(capability.to_dict()))
    return str(path)


@pytest.fixture()
def variant_file(tmp_path, capability):
    doc = capability.to_dict()
    doc["r_local"] = doc["r_local"] + 1.0
    path = tmp_path / "cap2.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "store")


def cli(store_dir, *argv):
    return main_store(["--dir", store_dir, *argv])


def publish(store_dir, path, *extra):
    return cli(
        store_dir, "publish", "--from-file", path, "--slot", "demo",
        "--timestamp", "1.0", *extra,
    )


class TestParser:
    def test_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_store_parser().parse_args([])

    def test_subcommands_parse(self):
        p = build_store_parser()
        assert p.parse_args(["list", "--json"]).action == "list"
        args = p.parse_args(
            ["publish", "--from-file", "x.json", "--canary", "25"]
        )
        assert args.canary == 25.0


class TestPublishAndList:
    def test_publish_then_list_round_trips(
        self, store_dir, payload_file, capsys
    ):
        assert publish(store_dir, payload_file) == 0
        out = capsys.readouterr().out
        assert "published" in out and "as latest" in out

        assert cli(store_dir, "list", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["disk"]["versions"] == 1
        (slot,) = doc["slots"]
        assert slot["slot"] == "demo"
        assert slot["latest"] is not None and slot["canary"] is None
        assert slot["history"] == [slot["latest"]]

    def test_bare_capability_needs_a_slot(
        self, store_dir, payload_file, capsys
    ):
        assert (
            cli(store_dir, "publish", "--from-file", payload_file) == 2
        )
        assert "--slot" in capsys.readouterr().out

    def test_ingested_garbage_is_refused(self, store_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"r_local": "not a model"}))
        assert (
            cli(
                store_dir, "publish", "--from-file", str(bad),
                "--slot", "demo",
            )
            == 2
        )
        assert "error" in capsys.readouterr().out

    def test_human_list_shows_routing(
        self, store_dir, payload_file, variant_file, capsys
    ):
        publish(store_dir, payload_file)
        publish(store_dir, variant_file, "--canary", "25")
        capsys.readouterr()
        assert cli(store_dir, "list") == 0
        out = capsys.readouterr().out
        assert "slot demo" in out
        assert "canary" in out and "25%" in out


class TestRoutingCommands:
    def test_canary_promote_rollback_cycle(
        self, store_dir, payload_file, variant_file, capsys
    ):
        publish(store_dir, payload_file)
        publish(store_dir, variant_file, "--canary", "25")
        out = capsys.readouterr().out
        assert "as canary at 25%" in out

        store = ArtifactStore(directory=store_dir)
        v1 = store.slot_state("demo").latest
        v2 = store.slot_state("demo").canary
        assert v1 != v2

        # Prefix resolution: "dem" is unique.
        assert cli(store_dir, "promote", "dem") == 0
        state = store.slot_state("demo")
        assert state.latest == v2 and state.canary is None

        assert cli(store_dir, "rollback", "demo") == 0
        assert store.slot_state("demo").latest == v1

    def test_promote_without_canary_exits_2(
        self, store_dir, payload_file, capsys
    ):
        publish(store_dir, payload_file)
        assert cli(store_dir, "promote", "demo") == 2
        assert "no canary" in capsys.readouterr().out

    def test_unknown_slot_exits_2(self, store_dir, capsys):
        assert cli(store_dir, "rollback", "nope") == 2
        assert "error" in capsys.readouterr().out

    def test_tag_and_untag(self, store_dir, payload_file, capsys):
        publish(store_dir, payload_file)
        vid = ArtifactStore(directory=store_dir).slot_state("demo").latest
        assert cli(store_dir, "tag", "demo", "golden", vid) == 0
        state = ArtifactStore(directory=store_dir).slot_state("demo")
        assert ("golden", vid) in state.tags
        assert cli(store_dir, "tag", "demo", "golden", "--delete") == 0
        state = ArtifactStore(directory=store_dir).slot_state("demo")
        assert state.tags == ()


class TestGc:
    def test_gc_prunes_the_rolled_back_head(
        self, store_dir, payload_file, variant_file, capsys
    ):
        publish(store_dir, payload_file)
        publish(store_dir, variant_file)
        cli(store_dir, "rollback", "demo")
        capsys.readouterr()
        assert cli(store_dir, "gc") == 0
        out = capsys.readouterr().out
        assert "removed 1 version(s)" in out
        assert ArtifactStore(directory=store_dir).disk_stats()[
            "versions"
        ] == 1
