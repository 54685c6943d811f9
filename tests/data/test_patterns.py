"""Normal-pattern generators."""

import numpy as np
import pytest

from repro.data import (
    ArNoise,
    FeaturePattern,
    NormalPattern,
    SawtoothWave,
    Sinusoid,
    SquareWave,
    Trend,
    perturb_pattern,
    random_pattern,
)
from repro.data.patterns import _sawtooth, _square


class TestWaveforms:
    def test_sinusoid_period(self):
        wave = Sinusoid(period=10.0, amplitude=2.0)
        t = np.arange(20)
        values = wave.sample(t)
        np.testing.assert_allclose(values[:10], values[10:], atol=1e-10)
        assert np.abs(values).max() <= 2.0 + 1e-9

    def test_square_wave_levels(self):
        wave = SquareWave(period=8.0, amplitude=1.5)
        values = wave.sample(np.arange(16))
        assert set(np.round(np.abs(values), 6)) == {1.5}

    def test_sawtooth_bounded(self):
        values = SawtoothWave(period=12.0, amplitude=1.0).sample(np.arange(48))
        assert values.min() >= -1.0 - 1e-9 and values.max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("shape", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_waveforms_bitwise_equal_to_scipy(self, shape):
        """The NumPy square and sawtooth keep scipy.signal's bits."""
        from scipy import signal

        angle = np.random.default_rng(0).normal(scale=20.0, size=500)
        angle[:6] = [0.0, -0.0, 2 * np.pi, -2 * np.pi, np.inf, -1e-17]
        with np.errstate(all="ignore"):
            assert _square(angle, shape).tobytes() \
                == signal.square(angle, duty=shape).tobytes()
            assert _sawtooth(angle, shape).tobytes() \
                == signal.sawtooth(angle, width=shape).tobytes()

    @pytest.mark.parametrize("shape", [-0.1, 1.5])
    def test_waveforms_reject_out_of_range_shape(self, shape):
        with pytest.raises(ValueError):
            _square(np.arange(4.0), shape)
        with pytest.raises(ValueError):
            _sawtooth(np.arange(4.0), shape)

    def test_trend_is_linear(self):
        values = Trend(slope=2.0).sample(np.arange(0, 3000, 1000, dtype=float))
        np.testing.assert_allclose(np.diff(values), 2.0)


class TestArNoise:
    def test_deterministic_given_rng_seed(self):
        noise = ArNoise(phi=0.5, sigma=0.1)
        a = noise.sample(100, np.random.default_rng(7))
        b = noise.sample(100, np.random.default_rng(7))
        np.testing.assert_allclose(a, b)

    def test_autocorrelation_positive(self):
        noise = ArNoise(phi=0.8, sigma=0.1).sample(5000, np.random.default_rng(1))
        corr = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert corr > 0.5

    @staticmethod
    def _loop_sample(noise, length, rng):
        """``ArNoise.sample`` as it was: the recurrence over NumPy scalars."""
        shocks = rng.normal(0.0, noise.sigma, size=length)
        values = np.zeros(length)
        previous = 0.0
        for index in range(length):
            previous = noise.phi * previous + shocks[index]
            values[index] = previous
        return values

    @pytest.mark.parametrize("seed", range(300))
    def test_bitwise_equal_to_the_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        phi = float(rng.uniform(-0.99, 0.99))
        noise = ArNoise(phi=phi, sigma=float(rng.uniform(0.0, 2.0)))
        length = int(rng.integers(0, 400))
        expected = self._loop_sample(noise, length,
                                     np.random.default_rng(seed + 1000))
        got = noise.sample(length, np.random.default_rng(seed + 1000))
        assert got.dtype == np.float64 and got.shape == (length,)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("phi", [0.5, -0.5, 0.0, -0.0])
    def test_signed_zero_shocks_bitwise_equal_to_the_scalar_loop(self, phi):
        """Shocks of ±0.0 and subnormals keep the loop's bits, zero signs
        included."""

        class FixedShocks:
            def normal(self, loc, scale, size):
                shocks = np.array([-0.0, 0.0, -0.0, 5e-324, -5e-324, -0.0,
                                   1.0, -1.0, -0.0, 0.0, -0.0])
                return np.resize(shocks, size)

        noise = ArNoise(phi=phi, sigma=1.0)
        expected = self._loop_sample(noise, 40, FixedShocks())
        got = noise.sample(40, FixedShocks())
        assert np.signbit(expected).any()
        assert got.tobytes() == expected.tobytes()


class TestNormalPattern:
    def _pattern(self):
        feature = FeaturePattern((Sinusoid(20.0),), ArNoise(0.3, 0.05), offset=1.0)
        return NormalPattern((feature, feature), mixing=np.eye(2))

    def test_sample_shape(self):
        series = self._pattern().sample(200, np.random.default_rng(0))
        assert series.shape == (200, 2)

    def test_offset_applied(self):
        series = self._pattern().sample(2000, np.random.default_rng(0))
        assert abs(series.mean() - 1.0) < 0.1

    def test_t0_continuation(self):
        pattern = self._pattern()
        rng = np.random.default_rng(0)
        full = pattern.sample(100, rng, t0=0)
        rng = np.random.default_rng(0)
        shifted = pattern.sample(100, rng, t0=100)
        # Deterministic parts at t0=100 differ from t0=0 unless period divides
        assert full.shape == shifted.shape

    def test_dominant_periods(self):
        feature = FeaturePattern((Sinusoid(20.0, 1.0), Sinusoid(5.0, 0.2)))
        pattern = NormalPattern((feature,))
        assert pattern.dominant_periods() == [20.0]


class TestRandomPattern:
    def test_deterministic_per_seed(self):
        a = random_pattern(np.random.default_rng(3), 4, diversity=1.0)
        b = random_pattern(np.random.default_rng(3), 4, diversity=1.0)
        sa = a.sample(100, np.random.default_rng(0))
        sb = b.sample(100, np.random.default_rng(0))
        np.testing.assert_allclose(sa, sb)

    def test_num_features_respected(self):
        pattern = random_pattern(np.random.default_rng(0), 5)
        assert pattern.num_features == 5

    def test_rejects_zero_features(self):
        with pytest.raises(ValueError):
            random_pattern(np.random.default_rng(0), 0)

    def test_diversity_spreads_periods(self):
        rng_hi = np.random.default_rng(11)
        rng_lo = np.random.default_rng(11)
        periods_hi, periods_lo = [], []
        for _ in range(20):
            periods_hi += random_pattern(rng_hi, 1, diversity=1.0).dominant_periods()
            periods_lo += random_pattern(rng_lo, 1, diversity=0.0).dominant_periods()
        assert np.std(periods_hi) > np.std(periods_lo)

    def test_zero_diversity_uses_base_periods(self):
        pattern = random_pattern(np.random.default_rng(5), 2, diversity=0.0,
                                 base_periods=(16.0, 4.0))
        for feature in pattern.features:
            assert getattr(feature.waveforms[0], "period") in (16.0, 4.0)


class TestPerturbPattern:
    def test_small_scale_keeps_pattern_close(self):
        base = random_pattern(np.random.default_rng(2), 3, diversity=0.8)
        varied = perturb_pattern(base, np.random.default_rng(9), scale=0.02)
        base_periods = base.dominant_periods()
        varied_periods = varied.dominant_periods()
        for original, perturbed in zip(base_periods, varied_periods):
            assert abs(perturbed - original) / original < 0.15

    def test_preserves_feature_count(self):
        base = random_pattern(np.random.default_rng(2), 4)
        assert perturb_pattern(base, np.random.default_rng(1)).num_features == 4
