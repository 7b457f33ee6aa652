"""Measurement-noise model.

Real microbenchmark samples jitter from pipeline effects, TLB walks, the
OS tick, and mesh traffic.  The machine model injects multiplicative
lognormal jitter plus occasional outlier spikes, so the statistical
machinery the paper relies on (medians, 95% confidence intervals,
boxplots, min-max envelopes) is exercised for real.  SNC2 — experimental
on early steppings, with visibly higher variance in the paper — gets a
wider jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.machine.config import ClusterMode
from repro.machine.calibration import TSC_RESOLUTION_NS
from repro.rng import SeedLike, generator, spawn


@dataclass(frozen=True)
class NoiseParams:
    """Shape of the sampling noise."""

    #: Sigma of the multiplicative lognormal jitter.
    sigma: float = 0.025
    #: Probability that a sample is an outlier spike.
    outlier_p: float = 0.006
    #: Outlier magnitude range (multiplicative).
    outlier_lo: float = 1.5
    outlier_hi: float = 4.0
    #: Quantization floor (TSC read resolution), ns.
    quantum_ns: float = TSC_RESOLUTION_NS

    @staticmethod
    def for_mode(mode: ClusterMode) -> "NoiseParams":
        if mode.is_experimental:  # SNC2: visibly higher variance
            return NoiseParams(sigma=0.055, outlier_p=0.015)
        return NoiseParams()


class NoiseModel:
    """Draws noisy samples around noise-free model values."""

    def __init__(self, params: NoiseParams, seed: SeedLike = None) -> None:
        self.params = params
        self._rng = spawn(generator(seed), "noise")

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def sample(self, value_ns: float, scale: float = 1.0) -> float:
        """One noisy sample of a quantity whose true value is ``value_ns``.

        ``scale`` multiplies the jitter width (cache-mode bandwidth runs
        use ~3x, matching the paper's "much more variability").  Scalar
        path for one-off draws (the machine's noisy cost functions);
        the virtual-time engine draws a whole replay's samples through
        :meth:`sample_values`.
        """
        if value_ns < 0:
            raise ValueError(f"true value must be non-negative: {value_ns}")
        p = self.params
        rng = self._rng
        v = value_ns * math.exp(rng.standard_normal() * p.sigma * scale)
        if rng.random() < p.outlier_p * scale:
            v *= rng.uniform(p.outlier_lo, p.outlier_hi)
        if p.quantum_ns > 0:
            v = max(round(v / p.quantum_ns), 1.0) * p.quantum_ns
        return float(v)

    def sample_mean_of(
        self, value_ns: float, n: int, batch: int, scale: float = 1.0
    ) -> np.ndarray:
        """``n`` samples, each the mean of a timed batch of ``batch``
        back-to-back events (the BenchIT convention).

        Quantization applies to the *measured total*, not each event —
        which is how a pointer-chase loop resolves 3.8 ns L1 hits with a
        10 ns timer.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        p = self.params
        draws = value_ns * self._rng.lognormal(0.0, p.sigma * scale, (n, batch))
        spikes = self._rng.random((n, batch)) < p.outlier_p * scale
        if spikes.any():
            draws[spikes] *= self._rng.uniform(
                p.outlier_lo, p.outlier_hi, int(spikes.sum())
            )
        totals = draws.sum(axis=1)
        if p.quantum_ns > 0:
            totals = np.maximum(np.round(totals / p.quantum_ns), 1.0) * p.quantum_ns
        return totals / batch

    def sample_values(
        self, values_ns: np.ndarray, scale: float = 1.0
    ) -> np.ndarray:
        """One noisy sample per element of ``values_ns`` — the array
        twin of :meth:`sample` (one lognormal draw, one spike draw and
        one quantization for the whole vector instead of per element).
        """
        values_ns = np.asarray(values_ns, dtype=float)
        if values_ns.size and float(values_ns.min()) < 0:
            raise ValueError(
                f"true values must be non-negative: {values_ns.min()}"
            )
        p = self.params
        out = values_ns * self._rng.lognormal(
            0.0, p.sigma * scale, values_ns.shape
        )
        spikes = self._rng.random(values_ns.shape) < p.outlier_p * scale
        if spikes.any():
            out[spikes] *= self._rng.uniform(
                p.outlier_lo, p.outlier_hi, int(spikes.sum())
            )
        if p.quantum_ns > 0:
            out = np.maximum(np.round(out / p.quantum_ns), 1.0) * p.quantum_ns
        return out

    def jitter_values(
        self, values: np.ndarray, scale: float = 1.0
    ) -> np.ndarray:
        """Array twin of :meth:`jitter_only`: lognormal jitter without
        outliers or quantization, one draw for the whole vector."""
        values = np.asarray(values, dtype=float)
        sigma = self.params.sigma * scale
        return values * self._rng.lognormal(0.0, sigma, values.shape)

    def jitter_only(self, value: float, scale: float = 1.0) -> float:
        """Lognormal jitter without outliers or quantization (for
        quantities that are aggregates of many events, e.g. a whole
        multi-megabyte stream iteration)."""
        sigma = self.params.sigma * scale
        return float(value * self._rng.lognormal(0.0, sigma))
