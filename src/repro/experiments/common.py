"""Shared experiment infrastructure: result containers + text rendering.

Every experiment module exposes ``run(iterations=..., seed=...) ->
ExperimentResult`` and registers itself in :mod:`repro.experiments.
registry`.  Results carry rows of paper-vs-measured values so
EXPERIMENTS.md and the benchmark harness can assert the reproduction
bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.machine.config import ClusterMode, MachineConfig, MemoryMode


@dataclass
class ExperimentResult:
    """Outcome of regenerating one paper table/figure."""

    exp_id: str
    title: str
    #: Column names, in display order.
    columns: Sequence[str]
    #: One dict per row; values are str/float/int.
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **kw: object) -> None:
        self.rows.append(kw)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> List[object]:
        return [r.get(name) for r in self.rows]

    # -- rendering ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The JSON shape shared by ``--json``, ``--save-dir`` archives
        and the runtime result cache."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": self.rows,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`.  A malformed ``data`` raises
        KeyError or TypeError."""
        result = cls(
            exp_id=data["exp_id"],
            title=data["title"],
            columns=tuple(data["columns"]),
        )
        for row in data["rows"]:
            result.add(**row)
        for note in data.get("notes", []):
            result.note(note)
        return result

    def to_json(self) -> str:
        """Machine-readable form (for harnesses piping `--json`)."""
        import json

        return json.dumps(self.to_dict(), indent=2, default=str)

    def to_text(self) -> str:
        cols = list(self.columns)
        widths = {c: len(c) for c in cols}
        rendered: List[List[str]] = []
        for row in self.rows:
            line = []
            for c in cols:
                v = row.get(c, "")
                s = f"{v:.4g}" if isinstance(v, float) else str(v)
                widths[c] = max(widths[c], len(s))
                line.append(s)
            rendered.append(line)
        out = [f"== {self.exp_id}: {self.title} =="]
        out.append("  ".join(c.ljust(widths[c]) for c in cols))
        out.append("  ".join("-" * widths[c] for c in cols))
        for line in rendered:
            out.append(
                "  ".join(s.ljust(widths[c]) for s, c in zip(line, cols))
            )
        for n in self.notes:
            out.append(f"note: {n}")
        return "\n".join(out)


def default_config(
    cluster: ClusterMode = ClusterMode.SNC4,
    memory: MemoryMode = MemoryMode.FLAT,
) -> MachineConfig:
    """The paper's headline configuration (SNC4-flat on a 7210)."""
    return MachineConfig(cluster_mode=cluster, memory_mode=memory)


def rel_err(measured: float, reference: float) -> float:
    """Relative deviation of measured from a paper reference value."""
    if reference == 0:
        return 0.0
    return (measured - reference) / reference


def within_band(measured: float, reference: float, band: float) -> bool:
    """Whether measured is within ±band (fraction) of the reference."""
    return abs(rel_err(measured, reference)) <= band
