"""Fourier basis matrices: exactness, projections, validation."""

import numpy as np
import pytest

from repro.frequency import (
    FourierBasis,
    fourier_forward_matrix,
    fourier_inverse_matrix,
    num_rfft_bins,
)


def _project(basis, x):
    """Orthogonal projection of ``x`` onto the basis: synthesis of analysis."""
    return (basis.inverse @ (basis.forward @ x.T)).T


class TestBinHelpers:
    @pytest.mark.parametrize("window,expected", [(2, 2), (8, 5), (40, 21), (41, 21)])
    def test_num_rfft_bins(self, window, expected):
        assert num_rfft_bins(window) == expected

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            num_rfft_bins(1)

    def test_bin_frequencies(self):
        freqs = FourierBasis.full(8).frequencies
        np.testing.assert_allclose(freqs, np.arange(5) / 8)


class TestForwardMatrix:
    def test_matches_numpy_rfft(self, rng):
        window = 16
        x = rng.normal(size=window)
        matrix = fourier_forward_matrix(window, range(num_rfft_bins(window)))
        coeffs = matrix @ x
        reference = np.fft.rfft(x)
        np.testing.assert_allclose(coeffs[0::2], reference.real, atol=1e-10)
        np.testing.assert_allclose(coeffs[1::2], reference.imag, atol=1e-10)

    def test_subset_rows_match_full(self, rng):
        window = 12
        x = rng.normal(size=window)
        subset = fourier_forward_matrix(window, [1, 4])
        reference = np.fft.rfft(x)
        coeffs = subset @ x
        np.testing.assert_allclose(coeffs[0], reference[1].real, atol=1e-10)
        np.testing.assert_allclose(coeffs[3], reference[4].imag, atol=1e-10)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            fourier_forward_matrix(8, [5])  # only 5 bins: 0..4
        with pytest.raises(ValueError):
            fourier_forward_matrix(8, [-1])
        with pytest.raises(ValueError):
            fourier_forward_matrix(8, [])


class TestFourierBasis:
    def test_full_basis_is_identity(self, rng):
        for window in (8, 9, 40):
            basis = FourierBasis.full(window)
            x = rng.normal(size=(5, window))
            np.testing.assert_allclose(_project(basis, x), x,
                                       atol=1e-10)

    def test_projection_is_idempotent(self, rng):
        basis = FourierBasis(16, [0, 2, 5])
        x = rng.normal(size=16)
        once = _project(basis, x)
        twice = _project(basis, once)
        np.testing.assert_allclose(once, twice, atol=1e-10)

    def test_pure_tone_in_subset_is_exact(self):
        window = 20
        t = np.arange(window)
        x = 2.0 * np.sin(2 * np.pi * 3 * t / window + 0.4)
        basis = FourierBasis(window, [3])
        np.testing.assert_allclose(_project(basis, x), x,
                                   atol=1e-10)

    def test_pure_tone_outside_subset_is_killed(self):
        window = 20
        t = np.arange(window)
        x = np.sin(2 * np.pi * 3 * t / window)
        basis = FourierBasis(window, [5])
        np.testing.assert_allclose(_project(basis, x), 0.0,
                                   atol=1e-10)

    def test_amplitudes(self):
        window = 16
        t = np.arange(window)
        x = 3.0 * np.cos(2 * np.pi * 2 * t / window)
        basis = FourierBasis(window, [2])
        coeffs = basis.forward @ x
        amplitude = np.hypot(coeffs[0::2], coeffs[1::2])
        np.testing.assert_allclose(amplitude, [3.0 * window / 2], atol=1e-9)

    def test_indices_deduplicated_and_sorted(self):
        basis = FourierBasis(16, [5, 1, 5, 3])
        np.testing.assert_array_equal(basis.indices, [1, 3, 5])
        assert basis.k == 3

    def test_frequencies_property(self):
        basis = FourierBasis(10, [0, 2])
        np.testing.assert_allclose(basis.frequencies, [0.0, 0.2])

    def test_serialization_roundtrip(self):
        basis = FourierBasis(16, [1, 4, 7])
        clone = FourierBasis.from_dict(basis.to_dict())
        np.testing.assert_array_equal(clone.indices, basis.indices)
        assert clone.window == basis.window

    def test_shape_validation(self):
        basis = FourierBasis(16, [1, 4])
        assert basis.forward.shape == (4, 16)
        assert basis.inverse.shape == (16, 4)
        with pytest.raises(ValueError):
            FourierBasis(16, [9])  # window 16 has bins 0..8
        with pytest.raises(ValueError):
            FourierBasis(1, [0])

    def test_nyquist_handling_even_window(self, rng):
        window = 8
        basis = FourierBasis(window, [0, 4])  # DC + Nyquist
        x = rng.normal(size=window)
        # Projection onto DC+Nyquist: mean + alternating component
        projected = _project(basis, x)
        alternating = ((-1.0) ** np.arange(window))
        expected = x.mean() + (x * alternating).mean() * alternating
        np.testing.assert_allclose(projected, expected, atol=1e-10)

    def test_compared_by_identity(self):
        basis = FourierBasis(8, [1, 2])
        twin = FourierBasis(8, [1, 2])
        assert basis == basis
        assert basis != twin
        assert len({basis, twin, basis}) == 2
