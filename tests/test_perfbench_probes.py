"""Every program name the benchmark's traced run binds to still exists.

``perfbench/probes.py`` wraps layer entry points by module and
attribute name, and ``perfbench/serve_traced.py`` / ``oracle.py`` call
a few more.  A rename under ``src/`` would otherwise surface only when
``python3 perfbench/run.py --trace 1`` next runs.  The probe table is
loaded from its file, read-only; nothing is installed.
"""

import importlib
import inspect
import pathlib
import types

import pytest

PROBES_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
)


def _load_probes():
    """Execute the file's source in a fresh namespace: no import-system
    side effects, no bytecode cache written next to it."""
    module = types.ModuleType("_perfbench_probes")
    code = compile(PROBES_PATH.read_text(), str(PROBES_PATH), "exec")
    exec(code, module.__dict__)
    return module


PROBES = _load_probes()


@pytest.mark.parametrize(
    "module,attr",
    [(m, a) for m, a, _span in PROBES.FUNCTION_PROBES]
    + [("repro.serve.protocol", "read_request")],
)
def test_function_probe_targets_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module,cls,attr",
    [(m, c, a) for m, c, a, _span in PROBES.METHOD_PROBES],
)
def test_method_probe_targets_resolve(module, cls, attr):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize(
    "module,attr",
    [
        ("repro.serve.fleet", "_worker_main"),
        ("repro.serve.app", "main_serve"),
        ("repro.serve.artifacts", "config_from_json"),
    ],
)
def test_benchmark_entry_points_exist(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_worker_main_keeps_its_positional_signature():
    """``serve_traced.py`` wraps it as ``(name, config, warm_model, conn)``."""
    from repro.serve.fleet import _worker_main

    assert list(inspect.signature(_worker_main).parameters) == [
        "name", "config", "warm_model", "conn",
    ]
