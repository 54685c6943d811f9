"""Cross-cutting property-based tests (hypothesis).

Invariants that hold across module boundaries: windowing/timeline algebra,
normalisation round-trips, threshold monotonicity, point-adjust ordering,
and the context-aware projection's contraction property.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Normalizer, scores_to_timeline, sliding_windows, window_starts
from repro.eval import detection_metrics, point_adjust
from repro.frequency import FourierBasis, num_rfft_bins

settings.register_profile("fast", max_examples=25, deadline=None)
settings.load_profile("fast")


@given(length=st.integers(20, 120), window=st.integers(4, 16),
       stride=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_window_count_matches_starts(length, window, stride, seed):
    rng = np.random.default_rng(seed)
    series = rng.normal(size=(length, 2))
    windows = sliding_windows(series, window, stride)
    starts = window_starts(length, window, stride)
    assert windows.shape[0] == starts.size


@given(length=st.integers(20, 100), window=st.integers(4, 12),
       stride=st.integers(1, 4), value=st.floats(-5, 5))
def test_constant_window_scores_produce_constant_timeline(length, window,
                                                          stride, value):
    starts = window_starts(length, window, stride)
    scores = np.full((starts.size, window), value)
    timeline = scores_to_timeline(scores, length, window, stride)
    np.testing.assert_allclose(timeline, value, atol=1e-12)


@given(seed=st.integers(0, 10_000))
def test_timeline_bounded_by_window_scores(seed):
    rng = np.random.default_rng(seed)
    length, window = 60, 8
    starts = window_starts(length, window)
    scores = rng.random((starts.size, window))
    timeline = scores_to_timeline(scores, length, window)
    assert timeline.min() >= scores.min() - 1e-12
    assert timeline.max() <= scores.max() + 1e-12


@given(seed=st.integers(0, 10_000))
def test_normalizer_roundtrip(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(3.0, 2.5, size=(50, 3))
    normalizer = Normalizer.fit(data)
    np.testing.assert_allclose(normalizer.inverse(normalizer.transform(data)),
                               data, atol=1e-9)


@given(seed=st.integers(0, 10_000))
def test_projection_is_non_expansive(seed):
    """Orthogonal projection never increases the L2 norm of a window."""
    rng = np.random.default_rng(seed)
    window = 16
    k = int(rng.integers(1, num_rfft_bins(window)))
    indices = rng.choice(num_rfft_bins(window), size=k, replace=False)
    basis = FourierBasis(window, indices)
    x = rng.normal(size=window)
    projected = basis.inverse @ (basis.forward @ x)
    assert np.linalg.norm(projected) <= np.linalg.norm(x) + 1e-9


@given(seed=st.integers(0, 10_000))
def test_metrics_monotone_under_point_adjust(seed):
    """Point adjustment can only increase recall (never decrease it)."""
    rng = np.random.default_rng(seed)
    scores = rng.random(80)
    labels = rng.random(80) > 0.75
    if not labels.any():
        return
    raw = detection_metrics(scores, labels, 0.5, adjust=False)
    adjusted = detection_metrics(scores, labels, 0.5, adjust=True)
    assert adjusted.recall >= raw.recall - 1e-12


@given(seed=st.integers(0, 10_000))
def test_higher_threshold_never_increases_recall(seed):
    rng = np.random.default_rng(seed)
    scores = rng.random(100)
    labels = rng.random(100) > 0.8
    if not labels.any():
        return
    low = detection_metrics(scores, labels, 0.3, adjust=False)
    high = detection_metrics(scores, labels, 0.7, adjust=False)
    assert high.recall <= low.recall + 1e-12


@given(seed=st.integers(0, 10_000))
def test_point_adjust_idempotent(seed):
    rng = np.random.default_rng(seed)
    predictions = rng.random(60) > 0.7
    labels = rng.random(60) > 0.75
    once = point_adjust(predictions, labels)
    twice = point_adjust(once, labels)
    np.testing.assert_array_equal(once, twice)
