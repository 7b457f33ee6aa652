"""Served ``/v1/tune`` answers are pinned byte for byte.

``tests/fixtures/tune_answers.json`` holds, for every body below, the
status and the exact response bytes a real ``ServeApp`` sends back
over loopback.  The bodies cover perfbench's tune sizes (``n`` from 8
to 256) on two presets, the paper's ``knl-7210`` and the non-KNL
``numa-2s`` (56 threads, so most sizes exceed its thread count, as
perfbench sends them), with three targets each:

* ``tree``, a 64 B broadcast;
* ``tree``, a 512 B reduce;
* ``barrier``.

Each model is fitted the way perfbench's server fits it (20 iterations,
seed 1234).  The answers carry ``best_ns``/``worst_ns`` as ``repr``
floats, so a tuner change that picks another degree, or that sums a
level cost in another order, fails here.

The fit draws simulated noise, and float draws may differ between numpy
releases, so the test skips when the installed numpy's major.minor is
not the one that recorded the fixture.  For the same reason ``--write``
leaves a fixture recorded under another numpy major.minor alone and
says so; delete the file first to record it afresh.

Regenerate (only when an answer is meant to change) with::

    PYTHONPATH=src python tests/test_tune_golden.py --write
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import sys
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.machines import get_machine
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.artifacts import ArtifactRegistry, MachineRef
from repro.serve.protocol import ClientConnection

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "tune_answers.json"
PRESETS = ("knl-7210", "numa-2s")
#: perfbench's ``workloads.TUNE_SIZES``.
TUNE_SIZES = (8, 16, 32, 64, 96, 128, 192, 256)
#: perfbench's ``workloads.FIT_ITERATIONS`` and ``FIT_SEED``.
FIT_ITERATIONS = 20
FIT_SEED = 1234

TARGETS = {
    "tree-64B-broadcast": {"target": "tree", "payload_bytes": 64, "is_reduce": False},
    "tree-512B-reduce": {"target": "tree", "payload_bytes": 512, "is_reduce": True},
    "barrier": {"target": "barrier"},
}


def _cases() -> Dict[str, dict]:
    return {
        f"{machine}/{name}/n={n}": {"machine": machine, **fields, "n": n}
        for machine in PRESETS
        for name, fields in TARGETS.items()
        for n in TUNE_SIZES
    }


CASES = _cases()


def _answers() -> Dict[str, Tuple[int, str]]:
    """``{case: (status, response body)}`` from one served pass."""
    registry = ArtifactRegistry(persist=False)
    for machine in PRESETS:
        ref = MachineRef.of(get_machine(machine))
        capability, _built = ref.fit(FIT_ITERATIONS, FIT_SEED)
        registry.preload(ref, capability)
    app = ServeApp(ServeConfig(), registry=registry)

    async def go() -> Dict[str, Tuple[int, str]]:
        host, port = await app.start()
        conn = ClientConnection(host, port)
        try:
            out = {}
            for key, body in CASES.items():
                status, _headers, raw = await conn.request_bytes(
                    "POST", "/v1/tune", json.dumps(body).encode()
                )
                out[key] = (status, raw.decode())
            return out
        finally:
            await conn.close()
            await app.stop()

    return asyncio.run(go())


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _recorded_numpy() -> str:
    return json.loads(FIXTURE.read_text())["numpy"]


@pytest.fixture(scope="module")
def recorded() -> dict:
    doc = json.loads(FIXTURE.read_text())
    if _major_minor(np.__version__) != _major_minor(doc["numpy"]):
        pytest.skip(
            f"tune answers were recorded with numpy {doc['numpy']}; numpy "
            f"{np.__version__} may fit different models"
        )
    assert (doc["fit_iterations"], doc["fit_seed"]) == (FIT_ITERATIONS, FIT_SEED)
    assert list(doc["answers"]) == list(CASES)
    return doc["answers"]


@pytest.fixture(scope="module")
def served(recorded) -> Dict[str, Tuple[int, str]]:
    return _answers()


@pytest.mark.parametrize("key", list(CASES))
def test_served_tune_answer_matches_recording(recorded, served, key):
    status, body = served[key]
    assert {"status": status, "body": body} == recorded[key]


def test_every_recorded_answer_is_a_200(recorded):
    """The golden pins answers, not errors: each body is valid."""
    assert {a["status"] for a in recorded.values()} == {200}


def _write() -> None:
    if FIXTURE.exists() and _major_minor(np.__version__) != _major_minor(
        _recorded_numpy()
    ):
        print(
            f"left {FIXTURE} alone: it was recorded with numpy "
            f"{_recorded_numpy()}, this is numpy {np.__version__}; delete "
            "it first to record it afresh"
        )
        return
    answers = _answers()
    # One line per answer keeps the fixture small and its diffs readable.
    lines: List[str] = [
        f"  {json.dumps(key)}: "
        + json.dumps(
            {"status": status, "body": body}, separators=(",", ":")
        )
        for key, (status, body) in answers.items()
    ]
    FIXTURE.write_text(
        f'{{"numpy": {json.dumps(np.__version__)}, '
        f'"fit_iterations": {FIT_ITERATIONS}, "fit_seed": {FIT_SEED}, '
        '"answers": {\n' + ",\n".join(lines) + "\n}}\n"
    )
    print(f"wrote {len(lines)} recorded answers to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    _write()
