"""The shipped rule packs.

Importing this package registers every rule: DET (determinism hazards
in the simulation/model/runtime core), ASY (event-loop and shared-state
discipline in serve/ and runtime/), UNIT (unit-convention violations
against :mod:`repro.units`), REG (experiment-registry and schema
contracts), CACHE (no ad-hoc LRUs outside :mod:`repro.cache`), and the
two packs the engine judges once per pass — OBS (metrics-glossary
sync) and SUP (stale suppressions).  ``docs/LINTING.md`` is the
human-facing catalog; a coverage test keeps the two in sync.
"""

from __future__ import annotations

from repro.analyze.rules.base import (
    Rule,
    all_rule_ids,
    get_rule,
    make_rules,
    register_rule,
)

# Importing the packs registers their rules.
from repro.analyze.rules import asy, cache, det, obsdoc, reg, sup, unit  # noqa: F401  (import-for-effect)

__all__ = [
    "Rule",
    "all_rule_ids",
    "get_rule",
    "make_rules",
    "register_rule",
]
