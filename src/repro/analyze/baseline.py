"""Baseline gating: fail CI on *new* findings only.

A committed ``lint-baseline.json`` records the accepted findings by
content address (:meth:`Finding.identity` — rule + path + message,
hashed through :func:`repro.cache.cache_key`).  ``repro lint
--baseline`` then reports only findings whose identity is absent from
the baseline (or whose count grew), so a legacy tree can adopt the lint
without a flag day while new violations still gate.  The tree here
ships self-clean — the committed baseline is empty — but the mechanism
is what makes the CI job safe to keep strict.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cache import atomic_write
from repro.errors import AnalysisError
from repro.analyze.findings import Finding

#: Bump when the baseline JSON layout changes.
BASELINE_SCHEMA_VERSION = 1

#: File name of the committed baseline, resolved against the repo root.
BASELINE_FILENAME = "lint-baseline.json"


@dataclass
class BaselineDiff:
    """Findings split against a baseline."""

    new: List[Finding] = field(default_factory=list)
    known: List[Finding] = field(default_factory=list)
    #: Baseline identities no current finding matches — fixed findings
    #: whose entries should be dropped with ``--update-baseline``.
    stale: List[str] = field(default_factory=list)


class Baseline:
    """The accepted-findings ledger."""

    def __init__(self, counts: Dict[str, int] = None,
                 entries: Dict[str, dict] = None) -> None:
        self.counts: Dict[str, int] = dict(counts or {})
        #: Human-readable echo of each entry (rule/path/message) so the
        #: committed file reviews like a report, not like hashes.
        self.entries: Dict[str, dict] = dict(entries or {})

    # -- construction -------------------------------------------------------

    @classmethod
    def from_findings(cls, findings: List[Finding]) -> "Baseline":
        b = cls()
        for f in findings:
            key = f.identity()
            b.counts[key] = b.counts.get(key, 0) + 1
            b.entries.setdefault(
                key,
                {"rule": f.rule_id, "path": f.path, "message": f.message},
            )
        return b

    @classmethod
    def load(cls, path: str) -> "Baseline":
        if not os.path.exists(path):
            raise AnalysisError(
                f"baseline file not found: {path} — create it with "
                "`repro lint --update-baseline`"
            )
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as e:
            raise AnalysisError(f"baseline {path} is not valid JSON: {e}")
        if not isinstance(doc, dict):
            raise AnalysisError(f"baseline {path} is not a JSON object")
        if doc.get("schema_version") != BASELINE_SCHEMA_VERSION:
            raise AnalysisError(
                f"baseline {path} has schema_version "
                f"{doc.get('schema_version')!r}; this build reads "
                f"{BASELINE_SCHEMA_VERSION} — regenerate with "
                "--update-baseline"
            )
        entries = doc.get("entries", {})
        if not isinstance(entries, dict) or not all(
            isinstance(v, dict) for v in entries.values()
        ):
            raise AnalysisError(
                f"baseline {path}: 'entries' must map each identity to "
                "an object — regenerate with --update-baseline"
            )
        try:
            counts = {k: int(v.get("count", 1)) for k, v in entries.items()}
        except (TypeError, ValueError) as e:
            raise AnalysisError(
                f"baseline {path} has a non-integer count: {e}"
            ) from e
        meta = {
            k: {kk: vv for kk, vv in v.items() if kk != "count"}
            for k, v in entries.items()
        }
        return cls(counts=counts, entries=meta)

    def write(self, path: str) -> None:
        doc = {
            "schema_version": BASELINE_SCHEMA_VERSION,
            "entries": {
                key: {**self.entries.get(key, {}), "count": count}
                for key, count in sorted(self.counts.items())
            },
        }
        # Atomic: a crash mid-update must not leave CI gating on a
        # torn, unparseable baseline.
        blob = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        atomic_write(path, blob.encode("utf-8"))

    # -- gating -------------------------------------------------------------

    def diff(self, findings: List[Finding]) -> BaselineDiff:
        """Split ``findings`` into new vs accepted.

        Identities are line-independent, so moved code stays accepted;
        an identity occurring more often than the baseline recorded
        means a *new* instance of an old problem — the extras count as
        new (the first ``count`` occurrences, in location order, ride
        the baseline).
        """
        out = BaselineDiff()
        seen: Dict[str, int] = {}
        for f in findings:
            key = f.identity()
            seen[key] = seen.get(key, 0) + 1
            if seen[key] <= self.counts.get(key, 0):
                out.known.append(f)
            else:
                out.new.append(f)
        out.stale = sorted(
            key for key, n in self.counts.items() if seen.get(key, 0) < n
        )
        return out


def default_baseline_path() -> str:
    from repro.analyze.engine import repo_root

    return os.path.join(repo_root(), BASELINE_FILENAME)
