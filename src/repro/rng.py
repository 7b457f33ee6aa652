"""Seeded random-number plumbing.

Every stochastic component (measurement noise, disabled-tile selection,
random buffer selection in benchmarks) draws from a :class:`numpy.random.
Generator` obtained through :func:`spawn`, so a single seed reproduces an
entire experiment while independent components stay decorrelated.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]

#: Default seed used when the caller passes ``None``.  Fixed so that the
#: package is reproducible out of the box; pass an explicit seed to vary.
DEFAULT_SEED = 0xC0FFEE


def generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an int seed, an existing generator (returned unchanged), a
    :class:`numpy.random.SeedSequence`, or ``None`` (default seed).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator from ``rng``, tagged by ``label``.

    The label participates in the derivation so that two children with
    different labels are decorrelated even if spawned in a different order.
    """
    # Combine fresh entropy from rng with the label's 64-bit fold.
    base = int(rng.integers(0, 2**63 - 1))
    return np.random.default_rng(
        np.random.SeedSequence([base, label_hash(label)])
    )


def label_hash(label: str) -> int:
    """64-bit FNV-1a fold of ``label``.

    Stable across processes, unlike the builtin ``hash`` of a ``str``
    (randomized per process by ``PYTHONHASHSEED``).
    """
    h = 1469598103934665603
    for ch in label.encode():
        h = (h ^ ch) * 1099511628211 % (1 << 64)
    return h


def maybe_int_seed(seed: SeedLike) -> Optional[int]:
    """Return ``seed`` if it is a plain int, else ``None``.

    Used by components that store the seed for reporting.
    """
    return seed if isinstance(seed, int) else None
