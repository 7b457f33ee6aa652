"""Run collectives on the virtual-time engine and gather distributions.

One *episode* is a single collective call; a benchmark runs many
episodes and records the makespan (the paper's max-per-iteration rule),
producing the boxplot distributions of Figs. 6-8.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.machine.machine import KNLMachine
from repro.machine.noise import NoiseModel
from repro.sim.engine import Engine
from repro.sim.program import Program

ProgramBuilder = Callable[[], List[Program]]


def run_episodes(
    machine: KNLMachine,
    build: ProgramBuilder,
    iterations: int = 100,
    noisy: bool = True,
    noise: Optional[NoiseModel] = None,
) -> np.ndarray:
    """Makespan samples [ns] over ``iterations`` episodes.

    ``build`` is called once and its programs compiled once; each
    episode replays them (builders draw no noise, so every build of a
    sweep point is the same program set).  Noise comes from ``noise``,
    or from the machine's own stream when it is None, so each episode
    sees fresh jitter, different poll winners, and occasional outliers
    — the spread in the paper's boxplots.  At ``iterations=0`` nothing
    is built.
    """
    engine = Engine(machine, noisy=noisy, noise=noise)
    out = np.empty(iterations)
    if iterations:
        compiled = engine.compile(build())
        for i in range(iterations):
            out[i] = engine.replay(compiled).makespan_ns
    return out


def speedup(baseline_samples: np.ndarray, tuned_samples: np.ndarray) -> float:
    """Median-over-median speedup of tuned vs baseline."""
    return float(np.median(baseline_samples) / np.median(tuned_samples))
