"""Sliding windows, batching and score timelines."""

import numpy as np
import pytest

from repro.data import (
    WindowDataset,
    scores_to_timeline,
    sliding_windows,
    window_starts,
)


class TestSlidingWindows:
    def test_values_match_naive(self, rng):
        series = rng.normal(size=(30, 2))
        windows = sliding_windows(series, 5, stride=3)
        starts = window_starts(30, 5, 3)
        assert windows.shape == (len(starts), 5, 2)
        for row, start in enumerate(starts):
            np.testing.assert_array_equal(windows[row], series[start:start + 5])

    def test_univariate_promoted(self, rng):
        windows = sliding_windows(rng.normal(size=20), 4)
        assert windows.shape == (17, 4, 1)

    def test_too_short_raises(self, rng):
        with pytest.raises(ValueError):
            sliding_windows(rng.normal(size=(3, 1)), 5)

    def test_bad_stride(self, rng):
        with pytest.raises(ValueError):
            sliding_windows(rng.normal(size=(30, 1)), 5, stride=0)

    def test_windows_are_copies(self, rng):
        series = rng.normal(size=(20, 1))
        windows = sliding_windows(series, 4)
        windows[0, 0, 0] = 999.0
        assert series[0, 0] != 999.0


class TestWindowDataset:
    def test_batches_partition_windows(self, rng):
        series = [rng.normal(size=(64, 2)), rng.normal(size=(48, 2))]
        dataset = WindowDataset(series, ["a", "b"], window=8, stride=2)
        seen = 0
        for batch in dataset.batches(10, rng):
            assert batch.windows.shape[1:] == (8, 2)
            assert batch.service_id in ("a", "b")
            seen += batch.windows.shape[0]
        assert seen == dataset.num_windows

    def test_batches_never_mix_services(self, rng):
        series = [np.zeros((32, 1)), np.ones((32, 1))]
        dataset = WindowDataset(series, ["zero", "one"], window=4)
        for batch in dataset.batches(100, rng):
            values = np.unique(batch.windows)
            assert values.size == 1

    def test_mismatched_ids_rejected(self, rng):
        with pytest.raises(ValueError):
            WindowDataset([rng.normal(size=(32, 1))], ["a", "b"], window=4)

    def test_deterministic_without_shuffle(self, rng):
        series = [rng.normal(size=(40, 1))]
        dataset = WindowDataset(series, ["a"], window=4)
        first = [b.windows for b in dataset.batches(8, shuffle=False)]
        second = [b.windows for b in dataset.batches(8, shuffle=False)]
        for x, y in zip(first, second):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_batches_equal_copying_dataset(self, rng, stride, shuffle):
        """The dataset keeps strided views of each series; its batches
        must be the bytes, dtype and layout of the dataset that copied
        every window up front (kept here as the reference)."""
        series = [rng.normal(size=(70, 3)), rng.normal(size=57),
                  rng.normal(size=(45, 1)).astype(np.float32)]
        ids = ["a", "b", "c"]
        dataset = WindowDataset(series, ids, window=8, stride=stride)
        reference = WindowDataset(series, ids, window=8, stride=stride)
        reference._windows = [sliding_windows(s, 8, stride) for s in series]
        got = list(dataset.batches(16, np.random.default_rng(3), shuffle))
        expected = list(reference.batches(16, np.random.default_rng(3),
                                          shuffle))
        assert len(got) == len(expected)
        assert dataset.num_windows == reference.num_windows
        for batch, want in zip(got, expected):
            assert batch.service_id == want.service_id
            assert batch.windows.dtype == want.windows.dtype
            assert batch.windows.shape == want.windows.shape
            assert batch.windows.flags.c_contiguous
            assert batch.windows.tobytes() == want.windows.tobytes()

    def test_batches_are_copies(self, rng):
        series = rng.normal(size=(20, 1))
        dataset = WindowDataset([series], ["a"], window=4)
        batch = next(dataset.batches(4, shuffle=False))
        batch.windows[0, 0, 0] = 999.0
        assert series[0, 0] != 999.0


class TestScoresToTimeline:
    def test_constant_scores_average_to_constant(self):
        timeline = scores_to_timeline(np.ones((17, 4)), 20, 4)
        np.testing.assert_allclose(timeline, 1.0)

    def test_single_window_peak_spreads(self):
        scores = np.zeros((7, 4))
        scores[3] = 1.0
        timeline = scores_to_timeline(scores, 10, 4)
        assert timeline[:3].max() < timeline[3:7].max()

    def test_stride_tail_filled(self):
        length, window, stride = 23, 4, 5
        num = len(np.arange(0, length - window + 1, stride))
        timeline = scores_to_timeline(np.ones((num, window)), length, window,
                                      stride)
        assert np.isfinite(timeline).all()
        assert timeline[-1] == 1.0  # forward-filled tail

    def test_window_count_mismatch(self):
        with pytest.raises(ValueError):
            scores_to_timeline(np.ones((3, 4)), 20, 4)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            scores_to_timeline(np.ones(10), 20, 4)
