"""``repro store``: operate the versioned artifact store.

Subcommands::

    repro store list                      # slots, versions, routing state
    repro store publish                   # fit (or ingest) + publish a version
    repro store promote <slot>            # canary graduates to latest
    repro store rollback <slot>           # clear canary / step latest back
    repro store tag <slot> <name> <vid>   # pin a version (gc-proof)
    repro store gc                        # prune unreferenced versions

``publish`` fits the default configuration (or ``--machine`` preset)
with the same parameters the server would use, so the published slot is
exactly the slot a ``repro serve`` instance resolves; ``--from-file``
ingests an offline payload instead (a ``CapabilityModel.to_dict()``
blob, a version record, or a legacy flat artifact file).  ``--canary``
publishes to the canary role at N% of ring traffic; promote/rollback
then move the manifest, and a running fleet picks the change up on its
next ``POST /v1/admin/reload``.

This module reads the wall clock (publish timestamps) — it is the CLI
edge the DET-scoped :mod:`repro.store.store` pushes its clock reads to.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.store import ArtifactStore, StoreError, record_from_dict


def build_store_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-knl store",
        description=(
            "Operate the versioned artifact store: publish, canary, "
            "promote, roll back, gc (docs/STORE.md)."
        ),
    )
    p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store directory (default: <cache root>/serve/artifacts — "
             "the same store `repro serve` uses)",
    )
    sub = p.add_subparsers(dest="action", required=True)

    lst = sub.add_parser(
        "list", help="slots with their routing state and known versions"
    )
    lst.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    pub = sub.add_parser(
        "publish",
        help="fit a model (default config or --machine preset) or ingest "
             "--from-file, then publish it as latest or --canary",
    )
    pub.add_argument(
        "--machine", default=None, metavar="NAME",
        help="fit this catalog preset instead of the default raw config",
    )
    pub.add_argument(
        "--from-file", default=None, metavar="PATH",
        help="ingest a JSON payload instead of fitting: a capability "
             "dict, a version record, or a legacy artifact file",
    )
    pub.add_argument(
        "--slot", default=None, metavar="SLOT",
        help="slot to publish into (required for a bare capability "
             "payload; fits derive their own content-addressed slot)",
    )
    pub.add_argument(
        "--canary", type=float, default=None, metavar="PCT",
        help="publish as the slot's canary at PCT%% of ring traffic "
             "instead of becoming latest",
    )
    pub.add_argument("--notes", default=None, help="free-form provenance")
    pub.add_argument(
        "--iterations", type=int, default=20, metavar="N",
        help="fit iterations (default 20, matching `repro serve`)",
    )
    pub.add_argument("--seed", type=int, default=1234)
    pub.add_argument(
        "--timestamp", type=float, default=None, metavar="UNIX",
        help="publish time (default: now; pass explicitly for "
             "reproducible store fixtures)",
    )

    for name, help_text in (
        ("promote", "graduate the slot's canary to latest"),
        ("rollback", "clear the canary, or step latest back one version"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("slot", help="slot id (unique prefix accepted)")

    tag = sub.add_parser(
        "tag", help="pin (or with --delete unpin) a version under a name"
    )
    tag.add_argument("slot", help="slot id (unique prefix accepted)")
    tag.add_argument("name", help="tag name, e.g. 'golden'")
    tag.add_argument(
        "version", nargs="?", default=None,
        help="version id to pin (omit with --delete)",
    )
    tag.add_argument("--delete", action="store_true", help="remove the tag")

    sub.add_parser(
        "gc", help="delete every version no manifest entry references"
    )

    return p


# -- plain subcommands -------------------------------------------------------


def _cmd_list(store: ArtifactStore, as_json: bool) -> int:
    slots = store.slots()
    stats = store.disk_stats()
    if as_json:
        print(
            json.dumps(
                {
                    "disk": stats,
                    "slots": [
                        {
                            "slot": s.slot,
                            "latest": s.latest,
                            "canary": s.canary,
                            "canary_percent": s.canary_percent,
                            "tags": dict(s.tags),
                            "history": list(s.history),
                        }
                        for s in slots
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if not slots:
        print(f"store at {store.directory} has no slots")
        return 0
    print(
        f"store at {store.directory} "
        f"({stats['versions']} version file(s), {stats['bytes']} bytes)"
    )
    for s in slots:
        print(f"slot {s.slot}")
        short = lambda v: v[:12] if v else "-"  # noqa: E731
        print(f"  latest   {short(s.latest)}")
        if s.canary:
            print(
                f"  canary   {short(s.canary)} "
                f"at {s.canary_percent:g}% of ring traffic"
            )
        for name, vid in s.tags:
            print(f"  tag      {name} -> {short(vid)}")
        if s.history:
            lineage = " -> ".join(v[:12] for v in s.history)
            print(f"  history  {lineage}")
    return 0


def _fit_payload(
    machine_name: Optional[str], iterations: int, seed: int
) -> Tuple[str, Dict[str, Any], Optional[str]]:
    """Fit like the server would; returns (slot, payload, preset)."""
    from repro.bench import characterize
    from repro.model import derive_capability_model
    from repro.serve.artifacts import ArtifactRegistry, config_from_json

    registry = ArtifactRegistry(
        iterations=iterations, seed=seed, persist=False
    )
    if machine_name is not None:
        from repro.machines import get_machine

        rm = get_machine(machine_name)
        slot = registry.key_for_machine(rm)
        machine = rm.build(seed=seed)
    else:
        from repro.machine.machine import KNLMachine

        config = config_from_json(None)
        slot = registry.key_for(config)
        machine = KNLMachine(config, seed=seed)
    char = characterize(machine, iterations=iterations, seed=seed)
    capability = derive_capability_model(char)
    return slot, capability.to_dict(), machine_name


def _file_payload(
    path: str, slot_arg: Optional[str]
) -> Tuple[str, Dict[str, Any], Optional[str]]:
    """Ingest a JSON file: record, legacy artifact, or bare capability."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise StoreError(f"{path} is not a JSON object")
    if "capability" in payload:
        # A version record or a legacy flat artifact file.
        record = record_from_dict(payload, slot=slot_arg)
        return record.slot, dict(record.capability), record.machine
    # A bare CapabilityModel.to_dict() payload: validate it builds.
    from repro.model.parameters import CapabilityModel

    CapabilityModel.from_dict(payload)
    if not slot_arg:
        raise StoreError(
            "a bare capability payload needs --slot (it carries no "
            "slot identity of its own)"
        )
    return slot_arg, payload, None


def _cmd_publish(store: ArtifactStore, args) -> int:
    if args.machine is not None and args.from_file is not None:
        raise StoreError("--machine and --from-file are mutually exclusive")
    t0 = time.perf_counter()  # repro: noqa[DET001] — CLI edge timing
    if args.from_file is not None:
        slot, payload, machine = _file_payload(args.from_file, args.slot)
        if args.slot and slot != args.slot:
            # An ingested record names its own slot; honor an explicit
            # --slot override only when they agree or the file had none.
            slot = args.slot
    else:
        slot, payload, machine = _fit_payload(
            args.machine, args.iterations, args.seed
        )
    fit_seconds = time.perf_counter() - t0  # repro: noqa[DET001]
    timestamp = (
        args.timestamp
        if args.timestamp is not None
        else time.time()  # repro: noqa[DET001] — publish time, CLI edge
    )
    # The timestamp is metadata, not keyed.
    record = store.publish(
        slot,
        payload,
        timestamp=timestamp,
        machine=machine,
        iterations=args.iterations if args.from_file is None else None,
        seed=args.seed if args.from_file is None else None,
        fit_seconds=fit_seconds if args.from_file is None else 0.0,
        notes=args.notes,
        canary_percent=args.canary,
    )
    role = (
        f"canary at {args.canary:g}%"
        if args.canary is not None and args.canary > 0
        else "latest"
    )
    print(f"published {record.short_id} as {role} of slot {slot[:12]}")
    print(f"  version  {record.version_id}")
    print(f"  slot     {slot}")
    if record.parent:
        print(f"  parent   {record.parent[:12]}")
    return 0


def _cmd_tag(store: ArtifactStore, args) -> int:
    slot = store.resolve_slot(args.slot)
    if args.delete:
        store.untag(slot, args.name)
        print(f"untagged {args.name} from slot {slot[:12]}")
        return 0
    if args.version is None:
        raise StoreError("tag needs a version id (or --delete)")
    store.tag(slot, args.name, args.version)
    print(f"tagged {args.name} -> {args.version[:12]} on slot {slot[:12]}")
    return 0


def _cmd_gc(store: ArtifactStore) -> int:
    result = store.gc()
    print(
        f"gc removed {len(result['removed'])} version(s), "
        f"freed {result['freed_bytes']} bytes, kept {result['kept']}"
    )
    for vid in result["removed"]:
        print(f"  removed {vid[:12]}")
    return 0


def main_store(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro store``."""
    args = build_store_parser().parse_args(argv)
    try:
        store = ArtifactStore(directory=args.dir)
        if args.action == "list":
            return _cmd_list(store, args.json)
        if args.action == "publish":
            return _cmd_publish(store, args)
        if args.action == "promote":
            state = store.promote(store.resolve_slot(args.slot))
            print(
                f"promoted {state.latest[:12]} to latest of "
                f"slot {state.slot[:12]}"
            )
            return 0
        if args.action == "rollback":
            state = store.rollback(store.resolve_slot(args.slot))
            print(
                f"slot {state.slot[:12]} now serves "
                f"{(state.latest or '-')[:12]} "
                f"(canary {'cleared' if not state.canary else state.canary[:12]})"
            )
            return 0
        if args.action == "tag":
            return _cmd_tag(store, args)
        return _cmd_gc(store)
    except ReproError as e:
        print(f"error: {e}")
        return 2
