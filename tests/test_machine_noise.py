"""Measurement-noise model."""

import numpy as np
import pytest

from repro.machine import ClusterMode, NoiseModel, NoiseParams


@pytest.fixture()
def noise():
    return NoiseModel(NoiseParams(), seed=3)


class TestSampling:
    def test_median_near_true_value(self, noise):
        vals = noise.sample_values(np.full(4000, 140.0))
        assert np.median(vals) == pytest.approx(140.0, rel=0.05)

    def test_quantized_to_tsc_resolution(self, noise):
        vals = noise.sample_values(np.full(100, 137.0))
        assert np.allclose(vals % 10.0, 0.0)

    def test_never_rounds_to_zero(self, noise):
        vals = noise.sample_values(np.full(1000, 3.8))
        assert vals.min() >= 10.0  # one quantum floor

    def test_outliers_present_but_rare(self):
        noise = NoiseModel(NoiseParams(outlier_p=0.01), seed=3)
        vals = noise.sample_values(np.full(20000, 100.0))
        frac = np.mean(vals > 140.0)
        assert 0.001 < frac < 0.05

    def test_negative_value_rejected(self, noise):
        with pytest.raises(ValueError):
            noise.sample(-1.0)

    def test_scale_widens_spread(self):
        true = np.full(2000, 1000.0)
        a = NoiseModel(NoiseParams(), seed=3).sample_values(true, scale=1.0)
        b = NoiseModel(NoiseParams(), seed=3).sample_values(true, scale=3.0)
        assert b.std() > 1.5 * a.std()


class TestBatchMean:
    def test_resolves_below_quantum(self, noise):
        # A 3.8 ns event timed in batches of 32 resolves despite the
        # 10 ns timer.
        vals = noise.sample_mean_of(3.8, 2000, 32)
        assert np.median(vals) == pytest.approx(3.8, rel=0.1)

    def test_batch_one_equals_quantized(self, noise):
        vals = noise.sample_mean_of(137.0, 50, 1)
        assert np.allclose(vals % 10.0, 0.0)

    def test_invalid_batch(self, noise):
        with pytest.raises(ValueError):
            noise.sample_mean_of(10.0, 5, 0)


class TestArrayKernels:
    """The vectorized twins: one draw for a whole value vector/grid (a
    grid is ``sample_values`` on a broadcast array)."""

    def test_sample_values_shape_and_median(self, noise):
        true = np.full(4000, 140.0)
        vals = noise.sample_values(true)
        assert vals.shape == true.shape
        assert np.median(vals) == pytest.approx(140.0, rel=0.05)
        assert np.allclose(vals % 10.0, 0.0)  # quantized like sample()

    def test_sample_values_rejects_negative(self, noise):
        with pytest.raises(ValueError):
            noise.sample_values(np.array([1.0, -2.0]))

    def test_sample_grid_rows_track_their_true_values(self, noise):
        true = np.array([100.0, 1000.0, 10000.0])
        grid = noise.sample_values(np.broadcast_to(true[:, None], (3, 2001)))
        assert grid.shape == (3, 2001)
        for row, t in zip(grid, true):
            assert np.median(row) == pytest.approx(t, rel=0.05)

    def test_sample_grid_deterministic_per_seed(self):
        grid = np.broadcast_to(np.array([[50.0], [70.0]]), (2, 40))
        a = NoiseModel(NoiseParams(), seed=5).sample_values(grid)
        b = NoiseModel(NoiseParams(), seed=5).sample_values(grid)
        assert np.array_equal(a, b)

    def test_sample_grid_rejects_negative(self, noise):
        with pytest.raises(ValueError):
            noise.sample_values(np.broadcast_to(np.array([[-1.0]]), (1, 5)))

    def test_jitter_values_no_quantization_no_outliers(self):
        noise = NoiseModel(NoiseParams(outlier_p=0.0), seed=3)
        true = np.full(500, 137.0)
        vals = noise.jitter_values(true)
        assert vals.shape == true.shape
        assert any(v % 10.0 != 0.0 for v in vals)
        # lognormal sigma=0.025: all draws stay within a few sigma
        assert (vals > 100.0).all() and (vals < 180.0).all()


class TestModeParams:
    def test_snc2_noisier(self):
        assert NoiseParams.for_mode(ClusterMode.SNC2).sigma > NoiseParams.for_mode(
            ClusterMode.SNC4
        ).sigma

    def test_jitter_only_no_quantization(self, noise):
        vals = {noise.jitter_only(137.0) for _ in range(20)}
        assert any(v % 10.0 != 0.0 for v in vals)
