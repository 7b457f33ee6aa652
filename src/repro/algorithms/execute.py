"""Run collectives on the virtual-time engine and gather distributions.

One *episode* is a single collective call; a benchmark runs many
episodes and records the makespan (the paper's max-per-iteration rule),
producing the boxplot distributions of Figs. 6-8.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.machine.machine import KNLMachine
from repro.sim.engine import Engine
from repro.sim.program import Program

ProgramBuilder = Callable[[], List[Program]]


def run_episodes(
    machine: KNLMachine,
    build: ProgramBuilder,
    iterations: int = 100,
    noisy: bool = True,
) -> np.ndarray:
    """Makespan samples [ns] over ``iterations`` episodes.

    Programs are rebuilt per episode.  A build is linear in the ranks,
    but not free: at 64-256 ranks it is roughly a fifth of an episode,
    the engine run the rest.  Noise comes from the machine model, so
    each episode sees fresh jitter, different poll winners, and
    occasional outliers — the spread in the paper's boxplots.
    """
    engine = Engine(machine, noisy=noisy)
    out = np.empty(iterations)
    for i in range(iterations):
        result = engine.run(build())
        out[i] = result.makespan_ns
    return out


def speedup(baseline_samples: np.ndarray, tuned_samples: np.ndarray) -> float:
    """Median-over-median speedup of tuned vs baseline."""
    return float(np.median(baseline_samples) / np.median(tuned_samples))
