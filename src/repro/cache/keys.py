"""Content-address primitives shared by every cache in the workbench.

Historically these lived in :mod:`repro.runtime.cache` (which still
re-exports them, so existing imports and the golden key digests are
unchanged); they moved here when the bespoke cache layers were unified
into :mod:`repro.cache`, because the key scheme is the one thing every
tier already agreed on.

* :func:`fingerprint` — reduce arbitrary values (dataclasses, enums,
  numpy scalars) to a JSON-stable structure;
* :func:`content_key` — SHA-256 over the canonical JSON form;
* :func:`cache_key` — the public keyed form: hashes keyword parts plus
  ``repro.__version__`` (pass ``version=`` to pin or drop it);
* :func:`atomic_write` — same-directory temp file + ``os.replace`` so
  readers never observe a torn file; :func:`sweep_temps` removes the
  temp files of writers that died before their replace;
* :func:`default_cache_dir` — ``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro-knl``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from typing import Any, Optional

from repro._version import __version__


def default_cache_dir() -> str:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-knl``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-knl")


def fingerprint(value: Any) -> Any:
    """Reduce ``value`` to a JSON-stable structure for hashing.

    Handles dataclasses (``MachineConfig``), enums, tuples/sets and
    numpy scalars; anything else falls back to ``repr``.  Dict keys are
    fingerprinted and then stringified (so enum keys work); their order
    is left to :func:`content_key`'s ``sort_keys``.  Set elements are
    ordered by their canonical JSON, so a set keys the same under every
    ``PYTHONHASHSEED``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: fingerprint(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(fingerprint(k)): fingerprint(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((fingerprint(v) for v in value), key=_canonical)
    if isinstance(value, (list, tuple)):
        return [fingerprint(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return repr(value)


def _canonical(fingerprinted: Any) -> str:
    return json.dumps(fingerprinted, sort_keys=True, default=repr)


def content_key(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    blob = _canonical(fingerprint(payload))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_key(**parts: Any) -> str:
    """Public content-address used by every cache in the workbench.

    ``cache_key(exp_id=..., kwargs=...)`` hashes the keyword parts (via
    :func:`fingerprint`) together with ``repro.__version__`` — pass an
    explicit ``version=`` to pin or drop the automatic one.  Every tier
    (result cache, serve artifacts, lint caches, the artifact store)
    derives its keys through here, so the scheme stays in one place and
    the keys stay byte-stable (a golden test guards the exact digests).
    """
    payload = dict(parts)
    payload.setdefault("version", __version__)
    return content_key(payload)


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a same-directory temp file +
    ``os.replace``, so readers never observe a half-written file.

    The temp file is named ``<target>.<writer pid>.<random>.tmp``, so
    :func:`sweep_temps` can tell a dead writer's leftover from a live
    writer's file in flight.  Shared by every disk tier that hashes
    through :func:`cache_key` (result cache, characterization cache,
    :mod:`repro.store`)."""
    prefix = f"{os.path.basename(path)}.{os.getpid()}."
    fd, tmp = tempfile.mkstemp(".tmp", prefix, os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # alive, but another user's
        pass
    return True


def sweep_temps(directory: str, target: Optional[str] = None) -> None:
    """Remove the :func:`atomic_write` temp files in ``directory`` whose
    writer process is gone (killed between its write and its replace),
    only ``target``'s when given.  A live writer's temp file is never
    touched, so the sweep is safe beside writers that hold no lock."""
    for name in os.listdir(directory):
        parts = name.rsplit(".", 3)  # target, pid, random, "tmp"
        if (
            len(parts) == 4 and parts[3] == "tmp"
            and parts[1].isdigit() and target in (None, parts[0])
            and not _alive(int(parts[1]))
        ):
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(directory, name))
