"""Persistence of experiment results.

Characterizing hardware is expensive; production users archive results
and re-render/compare later.  ``ResultStore`` saves each
:class:`ExperimentResult` as JSON under a directory keyed by experiment
id, with round-trip loading.  The CLI exposes it via ``--save-dir``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List

from repro.errors import ReproError
from repro.experiments.common import ExperimentResult


@dataclass
class ResultStore:
    """Directory-backed archive of experiment results."""

    directory: str

    def __post_init__(self) -> None:
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, exp_id: str) -> str:
        if not exp_id or "/" in exp_id or exp_id.startswith("."):
            raise ReproError(f"invalid experiment id {exp_id!r}")
        return os.path.join(self.directory, f"{exp_id}.json")

    def save(self, result: ExperimentResult) -> str:
        path = self._path(result.exp_id)
        with open(path, "w") as fh:
            fh.write(result.to_json())
        return path

    def load(self, exp_id: str) -> ExperimentResult:
        path = self._path(exp_id)
        if not os.path.exists(path):
            raise ReproError(
                f"no stored result for {exp_id!r} in {self.directory}"
            )
        with open(path) as fh:
            return ExperimentResult.from_dict(json.load(fh))

    def ids(self) -> List[str]:
        return sorted(
            f[: -len(".json")]
            for f in os.listdir(self.directory)
            # manifest.json is the runtime's run summary, not a result.
            if f.endswith(".json") and f != "manifest.json"
        )

    def has(self, exp_id: str) -> bool:
        return os.path.exists(self._path(exp_id))


def diff_results(
    old: ExperimentResult,
    new: ExperimentResult,
    rel_tol: float = 0.15,
    compare_non_numeric: bool = True,
) -> List[str]:
    """Regression check between two runs of the same experiment: returns
    human-readable discrepancies in shared cells.

    Numeric cells diff by relative tolerance; everything else (strings,
    nested dicts/lists) by equality.  Pass ``compare_non_numeric=False``
    to restrict the check to numeric drift — e.g. when comparing runs
    with different seeds, where categorical columns may legitimately
    differ (the simulated topology is seed-dependent)."""
    if old.exp_id != new.exp_id:
        raise ReproError(
            f"comparing different experiments: {old.exp_id} vs {new.exp_id}"
        )
    problems: List[str] = []
    if len(old.rows) != len(new.rows):
        problems.append(
            f"row count changed: {len(old.rows)} -> {len(new.rows)}"
        )
        return problems
    for i, (a, b) in enumerate(zip(old.rows, new.rows)):
        for col in old.columns:
            va, vb = a.get(col), b.get(col)
            numeric = (
                isinstance(va, (int, float))
                and isinstance(vb, (int, float))
                and not isinstance(va, bool)
                and not isinstance(vb, bool)
            )
            if numeric:
                ref = max(abs(float(va)), abs(float(vb)))
                if ref and abs(float(va) - float(vb)) / ref > rel_tol:
                    problems.append(
                        f"row {i} col {col!r}: {va} -> {vb}"
                    )
            elif compare_non_numeric and va != vb:
                # Non-numeric payloads (strings, nested dicts/lists, or a
                # numeric→non-numeric type change) diff by equality.
                problems.append(
                    f"row {i} col {col!r}: {va!r} -> {vb!r}"
                )
    return problems
