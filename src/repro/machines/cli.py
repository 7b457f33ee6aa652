"""``repro machines``: inspect and validate the hardware catalog.

Subcommands::

    repro machines list                     # catalog, one line per preset
    repro machines show numa-2s             # canonical document + derived facts
    repro machines validate --all           # validate + build every preset
    repro machines validate numa-2s         # ... or just one

``validate`` loads each preset through the full schema, builds the
machine, and boots nothing.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.errors import ReproError
from repro.machines.catalog import (
    DEFAULT_MACHINE,
    catalog_paths,
    get_machine,
    list_machines,
    load_preset_file,
)
from repro.machines.schema import describe_knobs


def build_machines_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-knl machines",
        description=(
            "Inspect and validate the declarative hardware catalog "
            "(docs/MACHINES.md)."
        ),
    )
    sub = p.add_subparsers(dest="action", required=True)

    sub.add_parser("list", help="one line per discoverable preset")

    show = sub.add_parser(
        "show", help="canonical document and derived facts of one preset"
    )
    show.add_argument("name", help="preset name (see `machines list`)")
    show.add_argument(
        "--knobs", action="store_true",
        help="also print the full knob reference (every dotted path)",
    )

    val = sub.add_parser(
        "validate",
        help="schema-validate preset(s) and build each into a machine",
    )
    val.add_argument("names", nargs="*", help="preset names (or files)")
    val.add_argument(
        "--all", action="store_true", help="validate every catalog preset"
    )

    return p


def _cmd_list() -> int:
    for rm in list_machines():
        marker = "*" if rm.name == DEFAULT_MACHINE else " "
        label = rm.to_machine_config().label()
        print(
            f"{marker} {rm.name:<12s} {label:<16s} "
            f"{len(rm.knobs):>2d} knob(s)  {rm.description}"
        )
    return 0


def _cmd_show(name: str, show_knobs: bool) -> int:
    rm = get_machine(name)
    config = rm.to_machine_config()
    print(json.dumps(rm.dump(), indent=2, sort_keys=True))
    print()
    print(f"config label:    {config.label()}")
    print(f"cores/threads:   {config.n_cores}/{config.n_threads}")
    print(f"near pool:       {config.mcdram_bytes >> 30} GiB")
    print(f"far pool:        {config.ddr_bytes >> 30} GiB")
    print(f"table overrides: {'yes' if rm.has_overrides else 'no'}")
    print(f"cache key:       {rm.cache_key}")
    if show_knobs:
        print()
        print("knob reference:")
        for path, description in describe_knobs().items():
            print(f"  {path:<32s} {description}")
    return 0


def _cmd_validate(names: List[str], validate_all: bool) -> int:
    from pathlib import Path

    if validate_all:
        names = sorted(catalog_paths())
    if not names:
        print("nothing to validate: pass preset names or --all")
        return 2
    failures = 0
    for name in names:
        try:
            if name.endswith(".json"):
                rm = load_preset_file(Path(name))
            else:
                rm = get_machine(name)
            machine = rm.build(seed=0)
            print(
                f"ok   {rm.name:<12s} "
                f"{machine.n_cores} cores, "
                f"{rm.to_machine_config().label()}, "
                f"key {rm.cache_key[:12]}"
            )
        except ReproError as e:
            failures += 1
            print(f"FAIL {name:<12s} {e}")
    return 1 if failures else 0


def main_machines(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro machines``."""
    args = build_machines_parser().parse_args(argv)
    try:
        if args.action == "list":
            return _cmd_list()
        if args.action == "show":
            return _cmd_show(args.name, args.knobs)
        return _cmd_validate(args.names, args.all)
    except ReproError as e:
        print(f"error: {e}")
        return 2
