"""Spectral statistics (Tables II/III and Fig. 5a machinery)."""

import hashlib

import numpy as np
import pytest

from repro.frequency import (
    compare_anomaly_normal,
    pairwise_kde_kl,
    spectral_kl_divergence,
    spectrum_expectation,
    spectrum_variance,
)


class TestSpectrumStats:
    def test_higher_variance_signal_has_higher_spectrum_variance(self, rng):
        calm = rng.normal(0, 1, size=(40, 64))
        wild = rng.normal(0, 3, size=(40, 64))
        assert spectrum_variance(wild) > spectrum_variance(calm)

    def test_expectation_scales_with_amplitude(self, rng):
        base = rng.normal(size=(30, 64))
        assert spectrum_expectation(3 * base) > spectrum_expectation(base)

    def test_multivariate_windows_accepted(self, rng):
        windows = rng.normal(size=(10, 32, 4))
        assert spectrum_variance(windows) > 0

    def test_rejects_bad_rank(self, rng):
        with pytest.raises(ValueError):
            spectrum_variance(rng.normal(size=32))

    def test_compare_produces_table_rows(self, rng):
        stats = compare_anomaly_normal(rng.normal(0, 2, (30, 40)),
                                       rng.normal(0, 1, (30, 40)))
        assert stats.anomaly_variance > stats.normal_variance
        assert stats.variance_ratio > 1.0
        assert stats.expectation_gap > 0


class TestKlDivergence:
    def test_zero_for_identical(self):
        q = np.array([0.5, 0.3, 0.2])
        assert spectral_kl_divergence(q, q) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_different(self):
        assert spectral_kl_divergence([0.9, 0.1], [0.5, 0.5]) > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spectral_kl_divergence([0.5, 0.5], [1.0])


class TestKdeKl:
    def test_similar_samples_have_small_kl(self, rng):
        same = [rng.normal(0, 1, 400) for _ in range(3)]
        diverse = [rng.normal(i * 2.0, 1, 400) for i in range(3)]
        assert pairwise_kde_kl(same).mean() < pairwise_kde_kl(diverse).mean()

    def test_pair_count(self, rng):
        values = pairwise_kde_kl([rng.normal(size=200) for _ in range(4)])
        assert values.size == 6  # C(4, 2)

    def test_needs_two_subsets(self, rng):
        with pytest.raises(ValueError):
            pairwise_kde_kl([rng.normal(size=100)])

    def test_handles_degenerate_subset(self, rng):
        values = pairwise_kde_kl([np.zeros(100), rng.normal(size=100)])
        assert np.isfinite(values).all()

    def test_bytes_unchanged_by_the_lazy_scipy_import(self):
        """``pairwise_kde_kl`` imports ``gaussian_kde`` when called rather
        than at module import; its output keeps the bytes it had with the
        module-level import (a degenerate subset included)."""
        rng = np.random.default_rng(11)
        series = [rng.normal(0.0, 1.0, 300), rng.normal(0.5, 2.0, 200),
                  rng.exponential(1.0, 250), np.full(100, 0.25)]
        values = pairwise_kde_kl(series)
        assert values.dtype == np.float64 and values.shape == (6,)
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "b1e96ae3031b7f331986bf95481e59aa1c787f20b5c595202e0f20c8445714a7")
