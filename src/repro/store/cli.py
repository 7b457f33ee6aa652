"""``repro store``: operate the versioned artifact store.

Subcommands::

    repro store list                      # slots, versions, routing state
    repro store publish                   # fit (or ingest) + publish a version
    repro store promote <slot>            # canary graduates to latest
    repro store rollback <slot>           # clear canary / step latest back
    repro store tag <slot> <name> <vid>   # pin a version (gc-proof)
    repro store gc                        # prune unreferenced versions
    repro store smoke                     # fleet hot-swap drill (CI job)

``publish`` fits the default configuration (or ``--machine`` preset)
with the same parameters the server would use, so the published slot is
exactly the slot a ``repro serve`` instance resolves; ``--from-file``
ingests an offline payload instead (a ``CapabilityModel.to_dict()``
blob, a version record, or a legacy flat artifact file).  ``--canary``
publishes to the canary role at N% of ring traffic; promote/rollback
then move the manifest, and a running fleet picks the change up on its
next ``POST /v1/admin/reload``.

``smoke`` is the check behind the ``store-smoke`` CI job: it publishes
a second model version while a loadgen run hammers a 2-worker fleet,
hot-swaps via the reload broadcast with zero dropped requests and zero
5xx, verifies the 25% canary split against the
:class:`~repro.serve.router.VersionRing` allocation, promotes, and
rolls back to byte-identical responses.

This module reads the wall clock (publish timestamps) — it is the CLI
edge the DET-scoped :mod:`repro.store.store` pushes its clock reads to.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
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

    smoke = sub.add_parser(
        "smoke",
        help="fleet hot-swap drill: publish v2 under load, canary 25%%, "
             "promote, roll back byte-identically (the store-smoke CI "
             "job)",
    )
    smoke.add_argument(
        "--iterations", type=int, default=3, metavar="N",
        help="fit iterations for the drill's two versions (default 3)",
    )
    smoke.add_argument("--quiet", action="store_true")
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
    record = store.publish(  # repro: noqa[FLOW002] — timestamp is metadata, not keyed
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


# -- the store-smoke drill ---------------------------------------------------


_REQ_METRIC = re.compile(
    r'^serve\.store\.requests\{version="([0-9a-z]+)"\}\{worker="'
)


async def _version_counts(host: str, port: int) -> Dict[str, float]:
    """Per-version request counters summed across fleet workers."""
    from repro.serve.protocol import http_request

    _status, _h, doc = await http_request(host, port, "GET", "/metrics")
    totals: Dict[str, float] = {}
    for name, metric in doc["metrics"].items():
        m = _REQ_METRIC.match(name)
        if m:
            totals[m.group(1)] = totals.get(m.group(1), 0.0) + float(
                metric.get("value", 0)
            )
    return totals


async def _smoke(iterations: int, quiet: bool) -> int:
    """Publish / hot-swap / canary / promote / rollback, under load."""
    import tempfile

    from repro.bench import characterize
    from repro.machine.machine import KNLMachine
    from repro.model import derive_capability_model
    from repro.serve.app import ServeConfig
    from repro.serve.artifacts import ArtifactRegistry, config_from_json
    from repro.serve.fleet import Fleet, FleetConfig
    from repro.serve.loadgen import _distinct_bodies, run_loadgen
    from repro.serve.protocol import (
        ClientConnection,
        content_key,
        http_request,
    )
    from repro.serve.router import VersionRing

    failures: List[str] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        if not quiet or not ok:
            state = "ok" if ok else "FAIL"
            print(f"[store-smoke] {label:<32s} {state} {detail}".rstrip())
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory(prefix="repro-store-smoke-") as tmp:
        # v1: fit once through the registry — publishes latest into the
        # store exactly as a cold `repro serve` would.
        registry = ArtifactRegistry(
            iterations=iterations, seed=1234, directory=tmp, persist=True
        )
        art1 = await registry.get(config_from_json(None))
        slot, v1 = art1.key, art1.version
        check(
            "v1 fitted and published",
            v1 is not None,
            f"({str(v1)[:12]})",
        )
        if v1 is None:
            return 1  # nothing downstream can work without a version

        # v2: a genuinely different model (different benchmark seed →
        # different sampled latencies → different payload and id).
        config = config_from_json(None)
        char = characterize(
            KNLMachine(config, seed=4321), iterations=iterations, seed=4321
        )
        cap2 = derive_capability_model(char)

        fleet = Fleet(
            FleetConfig(
                workers=2,
                worker=ServeConfig(
                    port=0,
                    iterations=iterations,
                    persist_artifacts=True,
                    artifact_dir=tmp,
                ),
            ),
            warm_model=art1.capability.to_dict(),
        )
        host, port = await fleet.start()
        store = ArtifactStore(directory=tmp)
        try:
            bodies = _distinct_bodies(96)
            encoded = [json.dumps(b).encode() for b in bodies]

            # Baseline bytes on v1 — the byte-identity reference the
            # rollback check replays at the end.
            conn = ClientConnection(host, port)
            baseline: List[bytes] = []
            statuses = []
            for raw in encoded[:4]:
                status, _h, body_bytes = await conn.request_bytes(
                    "POST", "/v1/predict", raw
                )
                statuses.append(status)
                baseline.append(body_bytes)
            check(
                "baseline predict on v1",
                all(s == 200 for s in statuses),
                f"(statuses {statuses})",
            )

            # Publish v2 as a 25% canary and hot-reload the fleet WHILE
            # a distinct-body load runs against it: the swap must drop
            # nothing and 5xx nothing.
            load = asyncio.create_task(
                run_loadgen(
                    host, port,
                    endpoint="/v1/predict",
                    bodies=bodies,
                    concurrency=16,
                    requests=384,
                )
            )
            await asyncio.sleep(0.2)
            rec2 = store.publish(  # repro: noqa[FLOW002] — smoke publishes real wall-clock metadata
                slot,
                cap2.to_dict(),
                timestamp=time.time(),  # repro: noqa[DET001] — CLI edge
                canary_percent=25.0,
                notes="store-smoke canary",
            )
            v2 = rec2.version_id
            check("v2 is a distinct version", v2 != v1, f"({v2[:12]})")
            status, _h, reload_doc = await http_request(
                host, port, "POST", "/v1/admin/reload"
            )
            check(
                "reload broadcast ok",
                status == 200 and reload_doc.get("status") == "ok",
                f"(status {status}, {reload_doc.get('status')})",
            )
            result = await load
            answered = sum(result.status_counts.values())
            check(
                "no dropped requests across swap",
                answered == result.requests,
                f"({answered}/{result.requests} answered)",
            )
            check(
                "no 5xx across swap",
                result.server_errors == 0,
                f"(status counts {result.status_counts})",
            )

            # Canary split: drive a clean measured burst and compare the
            # per-version counter deltas against the ring allocation.
            before = await _version_counts(host, port)
            measured = await run_loadgen(
                host, port,
                endpoint="/v1/predict",
                bodies=bodies,
                concurrency=16,
                requests=384,
            )
            check(
                "measured burst clean",
                measured.server_errors == 0,
                f"(status counts {measured.status_counts})",
            )
            after = await _version_counts(host, port)
            delta = {
                vid: after.get(vid, 0.0) - before.get(vid, 0.0)
                for vid in after
            }
            canary_n = delta.get(v2[:12], 0.0)
            stable_n = delta.get(v1[:12], 0.0)
            total = canary_n + stable_n
            ring = VersionRing(25.0)
            # json.dumps(b) is loadgen's encoding, byte for byte.
            keys = [
                content_key("/v1/predict", json.dumps(b).encode())
                for b in bodies
            ]
            expected = sum(
                ring.version_for(k) == "canary" for k in keys
            ) / len(bodies)
            observed = canary_n / total if total else -1.0
            check(
                "canary split matches ring",
                total > 0 and abs(observed - expected) <= 0.12,
                f"(observed {observed:.3f}, ring bodies {expected:.3f}, "
                f"keyspace {ring.canary_share():.3f})",
            )

            # Republishing the identical payload dedups to the same id
            # (single-flight across processes for free).
            rec1b = store.publish(  # repro: noqa[FLOW002] — smoke publishes real wall-clock metadata
                slot,
                art1.capability.to_dict(),
                timestamp=time.time(),  # repro: noqa[DET001] — CLI edge
            )
            check(
                "identical payload dedups",
                rec1b.version_id == v1,
                f"({rec1b.short_id})",
            )

            # Promote: v2 graduates; after a reload the whole fleet
            # serves it and v1's counter stops moving.
            store.promote(slot)
            await http_request(host, port, "POST", "/v1/admin/reload")
            before = await _version_counts(host, port)
            await run_loadgen(
                host, port,
                endpoint="/v1/predict",
                bodies=bodies,
                concurrency=8,
                requests=96,
            )
            after = await _version_counts(host, port)
            v1_growth = after.get(v1[:12], 0.0) - before.get(v1[:12], 0.0)
            v2_growth = after.get(v2[:12], 0.0) - before.get(v2[:12], 0.0)
            check(
                "promote converges on v2",
                v1_growth == 0 and v2_growth > 0,
                f"(v1 +{v1_growth:g}, v2 +{v2_growth:g})",
            )

            # /v1/machines aggregates per-worker warmth (the old front
            # end answered warm=null).
            status, _h, machines_doc = await http_request(
                host, port, "GET", "/v1/machines"
            )
            aggregated = status == 200 and all(
                isinstance(m.get("warm"), bool)
                and set(m.get("workers", {})) == {"w0", "w1"}
                for m in machines_doc.get("machines", [])
            )
            check(
                "machines aggregate worker warmth",
                aggregated,
                f"({len(machines_doc.get('machines', []))} presets)",
            )

            # Rollback: latest steps back to v1; after a reload the
            # fleet's responses are byte-identical to the baseline.
            store.rollback(slot)
            await http_request(host, port, "POST", "/v1/admin/reload")
            identical = True
            for raw, expected_bytes in zip(encoded[:4], baseline):
                _s, _h, body_bytes = await conn.request_bytes(
                    "POST", "/v1/predict", raw
                )
                if body_bytes != expected_bytes:
                    identical = False
            check(
                "rollback restores v1 byte-identically",
                identical,
                f"({len(baseline)} bodies compared)",
            )
            await conn.close()
        finally:
            await fleet.stop()

    if not quiet:
        verdict = "FAILED" if failures else "passed"
        print(f"[store-smoke] {verdict} ({len(failures)} failure(s))")
    return 1 if failures else 0


def main_store(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro store``."""
    args = build_store_parser().parse_args(argv)
    try:
        if args.action == "smoke":
            return asyncio.run(_smoke(args.iterations, args.quiet))
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
