"""Tests for the process-variation model."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.technology.variation import VariationModel, VariationSample


class TestVariationModel:
    def test_ideal_model_has_unity_multipliers(self):
        sample = VariationModel.ideal().sample(num_cells=16, buffers_per_cell=2)
        assert np.allclose(sample.multipliers, 1.0)

    def test_sampling_is_deterministic_for_same_seed_and_instance(self):
        model = VariationModel(seed=7)
        first = model.sample(32, 2, instance=3)
        second = model.sample(32, 2, instance=3)
        assert np.array_equal(first.multipliers, second.multipliers)

    def test_different_instances_differ(self):
        model = VariationModel(seed=7)
        first = model.sample(32, 2, instance=0)
        second = model.sample(32, 2, instance=1)
        assert not np.array_equal(first.multipliers, second.multipliers)

    def test_different_seeds_differ(self):
        first = VariationModel(seed=1).sample(32, 2)
        second = VariationModel(seed=2).sample(32, 2)
        assert not np.array_equal(first.multipliers, second.multipliers)

    def test_shape_matches_request(self):
        sample = VariationModel().sample(num_cells=64, buffers_per_cell=4)
        assert sample.multipliers.shape == (64, 4)
        assert sample.num_cells == 64
        assert sample.buffers_per_cell == 4

    def test_multipliers_are_strictly_positive(self):
        sample = VariationModel(random_sigma=0.3).sample(256, 1)
        assert np.all(sample.multipliers > 0)

    def test_mean_multiplier_is_near_unity(self):
        sample = VariationModel(random_sigma=0.04, gradient_peak=0.0).sample(512, 4)
        assert sample.multipliers.mean() == pytest.approx(1.0, abs=0.01)

    def test_gradient_only_model_is_smooth_and_bounded(self):
        model = VariationModel(random_sigma=0.0, gradient_peak=0.02)
        sample = model.sample(100, 1)
        cells = sample.cell_multipliers()
        assert np.all(np.abs(cells - 1.0) <= 0.02 + 1e-12)
        # Monotone over the half-cosine gradient.
        assert np.all(np.diff(cells) <= 1e-12)

    def test_more_buffers_per_cell_reduce_cell_spread(self):
        # The paper's explanation for better linearity at low frequency:
        # random per-buffer variation averages out within larger cells.
        model = VariationModel(random_sigma=0.05, gradient_peak=0.0, seed=11)
        narrow = model.sample(256, 1).cell_multipliers().std()
        wide = model.sample(256, 4).cell_multipliers().std()
        assert wide < narrow

    def test_cell_delays_scale_with_buffer_delay(self):
        sample = VariationModel.ideal().sample(8, 3)
        delays = sample.cell_delays_ps(buffer_delay_ps=40.0)
        assert np.allclose(delays, 120.0)

    @pytest.mark.parametrize("num_cells, buffers", [(0, 1), (4, 0), (-1, 2)])
    def test_invalid_shapes_rejected(self, num_cells, buffers):
        model = VariationModel()
        draws = (
            lambda: model.sample(num_cells, buffers),
            lambda: model.sample_batch(3, num_cells, buffers),
            lambda: model.sample_batch_tilted(3, num_cells, buffers, shift=0.5),
        )
        for draw in draws:
            with pytest.raises(ValueError, match="must be positive"):
                draw()

    def test_invalid_batch_draw_arguments_rejected(self):
        model = VariationModel()
        with pytest.raises(ValueError, match="at least one instance"):
            model.sample_batch(0, 4, 2)
        with pytest.raises(ValueError, match="at least one instance"):
            model.sample_batch_tilted(0, 4, 2, shift=0.5)
        for sigma_scale in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma_scale"):
                model.sample_tilted(4, 2, sigma_scale=sigma_scale)
            with pytest.raises(ValueError, match="sigma_scale"):
                model.sample_batch_tilted(3, 4, 2, sigma_scale=sigma_scale)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            VariationModel(random_sigma=-0.1)

    def test_negative_gradient_rejected(self):
        with pytest.raises(ValueError):
            VariationModel(gradient_peak=-0.1)


class TestVariationSample:
    def test_cell_multipliers_average_buffers(self):
        multipliers = np.array([[1.0, 3.0], [2.0, 2.0]])
        sample = VariationSample(multipliers=multipliers)
        assert np.allclose(sample.cell_multipliers(), [2.0, 2.0])

    def test_cell_delays_sum_buffers(self):
        multipliers = np.array([[1.0, 1.0], [0.5, 1.5]])
        sample = VariationSample(multipliers=multipliers)
        assert np.allclose(sample.cell_delays_ps(10.0), [20.0, 20.0])


class TestDrawStreamPins:
    """Byte pins of the silicon draw streams.

    The batch-versus-scalar tests only prove the batch draws agree with the
    scalar ones; a change to the shared draw path would move both together.
    These digests freeze the streams themselves (float64, C order).
    """

    def test_sample_batch_stream_is_pinned(self):
        batch = VariationModel(seed=19).sample_batch(16, 8, 3, first_instance=5)
        digest = hashlib.sha256(batch.multipliers.tobytes()).hexdigest()
        assert digest == (
            "2db1795e7543ea7f87d53723676a0d8d76e3791d82a33a3d17dfb987e706d1b1"
        )

    def test_sample_batch_tilted_stream_is_pinned(self):
        batch, log_lrs = VariationModel(seed=19).sample_batch_tilted(
            16, 8, 2, first_instance=5, shift=0.9, sigma_scale=1.2
        )
        digest = hashlib.sha256()
        digest.update(batch.multipliers.tobytes())
        digest.update(log_lrs.tobytes())
        assert digest.hexdigest() == (
            "f9802f31d4019d204384c121ee577f4de903a47b8f8ebf832c4b205c99df8543"
        )
