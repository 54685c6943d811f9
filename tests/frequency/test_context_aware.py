"""Context-aware DFT/IDFT: selection, subspaces, differentiable modules."""

import numpy as np
import pytest

from repro.frequency import (
    ContextAwareDFT,
    ContextAwareIDFT,
    FourierBasis,
    ServiceSubspace,
    count_basis_incidence,
    rfft_amplitude,
    select_dominant_bases,
)
from repro.nn import Tensor, gradcheck


def _periodic_series(length, periods, rng, noise=0.05):
    t = np.arange(length)
    columns = [
        np.sin(2 * np.pi * t / period) + noise * rng.normal(size=length)
        for period in periods
    ]
    return np.stack(columns, axis=1)


class TestSelection:
    def test_counts_favor_true_tone(self, rng):
        window = 40
        series = _periodic_series(2000, [20.0], rng)[:, 0]
        windows = np.stack([series[i:i + window] for i in range(0, 1500, 7)])
        counts = count_basis_incidence(windows, k=3)
        assert counts.argmax() == 2  # period 20 in window 40 -> bin 2

    def test_select_includes_dc_and_tone(self, rng):
        window = 40
        series = _periodic_series(2000, [8.0], rng)[:, 0]
        windows = np.stack([series[i:i + window] for i in range(0, 1500, 7)])
        selected = select_dominant_bases(windows, 4)
        assert 0 in selected          # DC forced in
        assert 5 in selected          # period 8 -> bin 5
        assert selected.size == 4

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            select_dominant_bases(rng.normal(size=(10, 16)), 0)

    def test_incidence_requires_2d(self, rng):
        with pytest.raises(ValueError):
            count_basis_incidence(rng.normal(size=16), 2)


class TestServiceSubspace:
    def test_fit_finds_per_feature_tones(self, rng):
        series = _periodic_series(3000, [20.0, 8.0], rng)
        subspace = ServiceSubspace.fit(series, window=40, k=3)
        assert 2 in subspace.bases[0].indices   # period 20
        assert 5 in subspace.bases[1].indices   # period 8

    def test_project_reconstruct_shapes(self, rng):
        series = _periodic_series(1000, [20.0, 8.0], rng)
        subspace = ServiceSubspace.fit(series, window=40, k=4)
        windows = np.stack([series[i:i + 40] for i in range(6)])
        coeffs = ContextAwareDFT(subspace)(Tensor(windows))
        assert coeffs.shape == (6, 2, 8)
        back = ContextAwareIDFT(subspace)(coeffs)
        assert back.shape == (6, 40, 2)

    def test_full_spectrum_subspace_exact(self, rng):
        subspace = ServiceSubspace.full_spectrum(window=20, num_features=3)
        windows = rng.normal(size=(4, 20, 3))
        back = ContextAwareIDFT(subspace)(ContextAwareDFT(subspace)(Tensor(windows)))
        np.testing.assert_allclose(back.data, windows, atol=1e-10)

    @staticmethod
    def _selected_share(subspace, windows):
        """Share of each window's amplitude held by the selected bases."""
        amplitude = rfft_amplitude(np.moveaxis(windows, -1, 1))  # (N, m, B)
        indices = np.stack([basis.indices for basis in subspace.bases])
        selected = np.take_along_axis(amplitude, indices[None], axis=-1)
        return selected.sum(axis=-1) / amplitude.sum(axis=-1)

    def test_coverage_high_for_matching_pattern(self, rng):
        series = _periodic_series(2000, [20.0], rng)
        subspace = ServiceSubspace.fit(series, window=40, k=3)
        windows = np.stack([series[i:i + 40] for i in range(0, 200, 10)])
        assert self._selected_share(subspace, windows).mean() > 0.5

    def test_coverage_low_for_foreign_pattern(self, rng):
        own = _periodic_series(2000, [20.0], rng)
        subspace = ServiceSubspace.fit(own, window=40, k=2)
        foreign = _periodic_series(400, [7.0], rng)
        windows = np.stack([foreign[i:i + 40] for i in range(0, 200, 10)])
        assert self._selected_share(subspace, windows).mean() < 0.6

    def test_mixed_k_rejected(self):
        with pytest.raises(ValueError):
            ServiceSubspace([FourierBasis(16, [1]), FourierBasis(16, [1, 2])])

    def test_serialization_roundtrip(self, rng):
        series = _periodic_series(1000, [20.0, 8.0], rng)
        subspace = ServiceSubspace.fit(series, window=40, k=3)
        clone = ServiceSubspace.from_dict(subspace.to_dict())
        assert clone.window == subspace.window
        for mine, theirs in zip(clone.bases, subspace.bases):
            np.testing.assert_array_equal(mine.indices, theirs.indices)
        assert clone._forward.tobytes() == subspace._forward.tobytes()

    def test_univariate_series_accepted(self, rng):
        series = _periodic_series(800, [10.0], rng)[:, 0]
        subspace = ServiceSubspace.fit(series, window=40, k=2)
        assert subspace.num_features == 1

    def test_compared_by_identity(self):
        subspace = ServiceSubspace([FourierBasis(8, [1, 2])])
        twin = ServiceSubspace([FourierBasis(8, [1, 2])])
        assert subspace == subspace
        assert subspace != twin


class TestDifferentiableModules:
    def test_consistent_with_numpy_path(self, rng):
        """Reference: ``np.fft.rfft`` at the selected bins, Re/Im
        interleaved, and ``np.fft.irfft`` of the zero-filled spectrum."""
        series = _periodic_series(1000, [20.0, 8.0], rng)
        subspace = ServiceSubspace.fit(series, window=40, k=3)
        windows = rng.normal(size=(3, 40, 2))
        coeffs = ContextAwareDFT(subspace)(Tensor(windows))
        back = ContextAwareIDFT(subspace)(coeffs)
        spectrum = np.fft.rfft(windows, axis=1)  # (N, B, m)
        for feature, basis in enumerate(subspace.bases):
            selected = spectrum[:, basis.indices, feature]  # (N, k)
            expected = np.empty((3, 2 * basis.k))
            expected[:, 0::2] = selected.real
            expected[:, 1::2] = selected.imag
            np.testing.assert_allclose(coeffs.data[:, feature], expected,
                                       atol=1e-10)
            zero_filled = np.zeros_like(spectrum[:, :, feature])
            zero_filled[:, basis.indices] = selected
            np.testing.assert_allclose(back.data[:, :, feature],
                                       np.fft.irfft(zero_filled, n=40, axis=-1),
                                       atol=1e-10)

    def test_normalized_pair_is_consistent(self, rng):
        subspace = ServiceSubspace.full_spectrum(window=16, num_features=2)
        dft = ContextAwareDFT(subspace, normalized=True)
        idft = ContextAwareIDFT(subspace, normalized=True)
        windows = Tensor(rng.normal(size=(2, 16, 2)))
        np.testing.assert_allclose(idft(dft(windows)).data, windows.data,
                                   atol=1e-10)

    def test_gradients_flow(self, rng):
        series = _periodic_series(600, [10.0], rng)
        subspace = ServiceSubspace.fit(series, window=20, k=3)
        dft = ContextAwareDFT(subspace)
        idft = ContextAwareIDFT(subspace)
        x = Tensor(rng.normal(size=(2, 20, 1)), requires_grad=True)
        assert gradcheck(lambda a: idft(dft(a)), [x])
