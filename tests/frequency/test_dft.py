"""Full-spectrum amplitude helper."""

import numpy as np

from repro.frequency import rfft_amplitude


def test_amplitude_matches_abs(rng):
    x = rng.normal(size=17)
    np.testing.assert_allclose(rfft_amplitude(x), np.abs(np.fft.rfft(x)))
