"""The paper pipeline's results are pinned byte for byte.

``tests/fixtures/pipeline_digests.json`` holds the SHA-256 of every
experiment's canonical result JSON, from one cold run of all 15
experiments through ``plan_run``/``execute`` at ``iterations=1`` and the
benchmark's pipeline seed for seed 1.  A performance change to the
simulator, the microbenchmarks or the collectives must leave every noise
draw in its place, so every digest must stay as recorded.

Float draws may differ between numpy releases, so the test skips when
the installed numpy's major.minor is not the one that wrote the fixture.

Regenerate (only when a result is meant to change) with::

    PYTHONPATH=src python tests/test_pipeline_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys
import tempfile

import numpy as np
import pytest

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "pipeline_digests.json"
ITERATIONS = 1


def pipeline_seed(seed: int) -> int:
    """The experiments' RNG seed for a benchmark seed (the formula of
    ``perfbench/workloads.py::pipeline_seed``)."""
    rng = random.Random(f"pipeline:{seed}")  # repro: noqa[DET002] — the benchmark's own seed formula, string-seeded
    return rng.randrange(1, 2**31)


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def run_digests(seed: int, iterations: int, cache_dir: str) -> dict:
    """``exp_id -> sha256`` of each result's canonical JSON, from one
    cold serial run of every experiment into ``cache_dir``."""
    from repro.experiments import all_ids
    from repro.runtime import TaskStatus, execute, plan_run

    plan = plan_run(all_ids(), kwargs={"iterations": iterations, "seed": seed},
                    jobs=1, cache_dir=cache_dir, retries=0, progress=False)
    report = execute(plan)
    out = {}
    for outcome in report.outcomes:
        assert outcome.status is TaskStatus.DONE, (outcome.exp_id, outcome.error)
        text = outcome.result.to_json()
        out[outcome.exp_id] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_pipeline_results_match_recorded_digests(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    if _major_minor(np.__version__) != _major_minor(doc["numpy"]):
        pytest.skip(
            f"digests were recorded with numpy {doc['numpy']}; numpy "
            f"{np.__version__} may draw different floats"
        )
    assert doc["seed"] == pipeline_seed(1)
    got = run_digests(doc["seed"], doc["iterations"], str(tmp_path / "cache"))
    assert len(got) == 15
    assert got == doc["digests"]


def _write() -> None:
    seed = pipeline_seed(1)
    with tempfile.TemporaryDirectory() as cache:
        digests = run_digests(seed, ITERATIONS, cache)
    doc = {"numpy": np.__version__, "seed": seed, "iterations": ITERATIONS,
           "digests": digests}
    FIXTURE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
