"""Dualistic convolution: Eq. 2 semantics in both domains."""

import numpy as np
import pytest

from repro.core import DualisticConv1d, TimeDomainAmplifier, dualistic_conv_numpy
from repro.nn import Tensor, gradcheck


class TestNumpyReference:
    def test_gamma_one_is_standard_convolution(self, rng):
        x = rng.normal(size=20)
        kernel = np.full(5, 0.2)
        out = dualistic_conv_numpy(x, 1, 1.0, kernel)
        np.testing.assert_allclose(out, np.correlate(x, kernel, "valid"),
                                   atol=1e-10)

    def test_large_gamma_approaches_max(self, rng):
        x = np.abs(rng.normal(size=10)) + 0.5
        kernel = np.ones(5)
        out = dualistic_conv_numpy(x, 21, 1.0, kernel, stride=5)
        expected = np.array([x[:5].max(), x[5:].max()])
        np.testing.assert_allclose(out, expected, rtol=0.05)

    def test_even_gamma_rejected(self, rng):
        with pytest.raises(ValueError):
            dualistic_conv_numpy(rng.normal(size=10), 2, 1.0, np.ones(3))

    def test_stride(self, rng):
        x = rng.normal(size=12)
        out = dualistic_conv_numpy(x, 3, 1.0, np.ones(4), stride=4)
        assert out.size == 3


class TestDualisticConv1d:
    def test_fixed_kernel_matches_numpy_reference(self, rng):
        gamma, sigma, kernel_size = 5, 2.0, 4
        conv = DualisticConv1d(1, 1, kernel_size, stride=2, gamma=gamma,
                               sigma=sigma, learnable=False)
        x = rng.normal(size=12)
        out = conv(Tensor(x[None, None]))
        expected = dualistic_conv_numpy(x, gamma, sigma,
                                        np.full(kernel_size, 1 / kernel_size),
                                        stride=2)
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-10)

    def test_peak_emphasises_upward_deviation(self):
        base = np.zeros(10)
        spike_up = base.copy()
        spike_up[5] = 1.0
        conv = DualisticConv1d(1, 1, 5, gamma=11, sigma=1.0, mode="peak",
                               learnable=False)
        out = conv(Tensor(spike_up[None, None]))
        # windows containing the spike are dominated by it
        assert out.data.max() > 0.5

    def test_valley_mirrors_peak(self, rng):
        x = rng.normal(size=16)
        peak = DualisticConv1d(1, 1, 4, gamma=5, sigma=1.0, mode="peak",
                               learnable=False)
        valley = DualisticConv1d(1, 1, 4, gamma=5, sigma=1.0, mode="valley",
                                 learnable=False)
        np.testing.assert_allclose(valley(Tensor(x[None, None])).data,
                                   -peak(Tensor(-x[None, None])).data,
                                   atol=1e-12)

    def test_frequency_stride_picks_extremes(self):
        # stride == kernel, large gamma, positivity shift: peak ~ max,
        # valley ~ min per segment (Fig. 4a), up to a shared constant bias.
        values = np.array([0.5, 1.0, 0.9, 0.2, 0.7, 0.1, 0.4, 0.3])
        peak = DualisticConv1d(1, 1, 4, stride=4, gamma=21, sigma=1.0,
                               mode="peak", shift=2.0, learnable=False)
        valley = DualisticConv1d(1, 1, 4, stride=4, gamma=21, sigma=1.0,
                                 mode="valley", shift=2.0, learnable=False)
        peaks = peak(Tensor(values[None, None])).data[0, 0]
        valleys = valley(Tensor(values[None, None])).data[0, 0]
        bias = (1.0 / 4.0) ** (1.0 / 21.0)  # uniform-kernel mass factor
        # peak ~ (max + c) * bias - c ; valley ~ c - (c - min) * bias
        np.testing.assert_allclose(peaks, np.array([3.0, 2.7]) * bias - 2.0,
                                   atol=0.08)
        np.testing.assert_allclose(valleys, 2.0 - np.array([1.8, 1.9]) * bias,
                                   atol=0.08)
        # the defining property: peak >= valley, strictly where segments vary
        assert np.all(peaks > valleys)

    def test_shifted_valley_differs_from_peak(self, rng):
        """Without the shift Eq. 2 is odd and valley would equal peak."""
        x = Tensor(rng.uniform(-1, 1, size=(1, 1, 12)))
        peak = DualisticConv1d(1, 1, 4, stride=4, gamma=7, sigma=1.0,
                               mode="peak", shift=2.0, learnable=False)
        valley = DualisticConv1d(1, 1, 4, stride=4, gamma=7, sigma=1.0,
                                 mode="valley", shift=2.0, learnable=False)
        assert not np.allclose(peak(x).data, valley(x).data)

    def test_negative_gamma_mode_runs(self, rng):
        conv = DualisticConv1d(1, 1, 3, gamma=3, sigma=1.0, mode="valley",
                               valley_mode="negative_gamma", learnable=False)
        out = conv(Tensor(rng.normal(size=(1, 1, 9)) + 2.0))
        assert np.isfinite(out.data).all()

    def test_negative_gamma_clamps_exact_zeros_to_plus_eps(self):
        conv = DualisticConv1d(1, 1, 3, gamma=3, sigma=1.0, mode="valley",
                               valley_mode="negative_gamma", learnable=False)
        x = np.array([0.5, 0.0, -0.7, 1.2, 0.3, -0.0, 0.9])
        out = conv(Tensor(x[None, None])).data[0, 0]
        clamped = np.where(x == 0.0, conv.eps, x)
        expected = [np.cbrt(1.0 / np.mean(clamped[i:i + 3] ** -3.0))
                    for i in range(5)]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_learnable_kernel_gradients(self, rng):
        conv = DualisticConv1d(2, 3, 3, stride=3, gamma=3, sigma=2.0)
        x = Tensor(rng.uniform(0.2, 1.0, size=(2, 2, 9)), requires_grad=True)
        assert gradcheck(lambda a: conv(a), [x], atol=1e-3)
        out = conv(x)
        out.sum().backward()
        assert conv.weight.grad is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            DualisticConv1d(1, 1, 3, gamma=2)
        with pytest.raises(ValueError):
            DualisticConv1d(1, 1, 3, sigma=0.0)
        with pytest.raises(ValueError):
            DualisticConv1d(1, 1, 3, mode="sideways")
        with pytest.raises(ValueError):
            DualisticConv1d(1, 2, 3, learnable=False)
        with pytest.raises(ValueError):
            DualisticConv1d(1, 1, 3, valley_mode="bogus")

    def test_gamma_one_degrades_to_standard(self, rng):
        from repro.nn import functional as F

        conv = DualisticConv1d(1, 1, 3, gamma=1, sigma=1.0, learnable=False)
        x = rng.normal(size=(1, 1, 9))
        expected = F.conv1d(Tensor(x), Tensor(conv.fixed_weight)).data
        np.testing.assert_allclose(conv(Tensor(x)).data, expected, atol=1e-12)


class TestTimeDomainAmplifier:
    def test_shape_preserved(self, rng):
        amplifier = TimeDomainAmplifier(gamma=11, sigma=5.0, kernel_size=5)
        x = Tensor(rng.normal(size=(3, 40, 2)))
        assert amplifier(x).shape == (3, 40, 2)

    def test_extends_short_anomaly(self):
        """Fig. 3(b): a 1-point spike is spread across the kernel span."""
        x = np.zeros((1, 40, 1))
        x[0, 20, 0] = 3.0
        amplifier = TimeDomainAmplifier(gamma=11, sigma=5.0, kernel_size=5)
        out = amplifier(Tensor(x)).data[0, :, 0]
        affected = np.abs(out) > 0.1
        assert affected.sum() >= 4          # extended beyond one point
        assert affected[18] and affected[22]

    def test_normal_series_roughly_preserved(self, rng):
        t = np.arange(80)
        x = np.sin(2 * np.pi * t / 20)[None, :, None]
        amplifier = TimeDomainAmplifier(gamma=11, sigma=5.0, kernel_size=5)
        out = amplifier(Tensor(x)).data
        correlation = np.corrcoef(out[0, :, 0], x[0, :, 0])[0, 1]
        assert correlation > 0.9

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            TimeDomainAmplifier(kernel_size=4)
