"""Spectral statistics used by the paper's empirical motivation.

Table II reports the average per-window amplitude *variance* of anomalous
vs. normal windows; Table III reports the average amplitude *expectation*.
Fig. 5(a) characterises dataset diversity via pairwise KL divergence between
per-subset value distributions (kernel density estimates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frequency.dft import rfft_amplitude

__all__ = [
    "SpectrumStats",
    "spectrum_variance",
    "spectrum_expectation",
    "compare_anomaly_normal",
    "spectral_kl_divergence",
    "pairwise_kde_kl",
]


def spectrum_variance(windows: np.ndarray) -> float:
    """Mean within-window amplitude variance.

    ``windows`` is ``(W, T)`` or ``(W, T, m)``; the DFT runs over ``T``
    (features first moved to the leading axes) and the variance is taken
    across bins within each window, then averaged.
    """
    amplitude = _window_amplitudes(windows)
    return float(amplitude.var(axis=-1).mean())


def spectrum_expectation(windows: np.ndarray) -> float:
    """Mean amplitude (Table III statistic)."""
    amplitude = _window_amplitudes(windows)
    return float(amplitude.mean())


def _window_amplitudes(windows: np.ndarray) -> np.ndarray:
    if windows.ndim == 3:  # (W, T, m) -> (W, m, T)
        windows = np.moveaxis(windows, -1, 1)
    elif windows.ndim != 2:
        raise ValueError("expected (W, T) or (W, T, m) window array")
    return rfft_amplitude(windows)


@dataclass(frozen=True)
class SpectrumStats:
    """Anomaly-vs-normal spectral summary for one dataset."""

    anomaly_variance: float
    normal_variance: float
    anomaly_expectation: float
    normal_expectation: float

    @property
    def variance_ratio(self) -> float:
        return self.anomaly_variance / max(self.normal_variance, 1e-12)

    @property
    def expectation_gap(self) -> float:
        return self.anomaly_expectation - self.normal_expectation


def compare_anomaly_normal(anomalous_windows: np.ndarray,
                           normal_windows: np.ndarray) -> SpectrumStats:
    """Compute the Table II / Table III statistics for one dataset."""
    return SpectrumStats(
        anomaly_variance=spectrum_variance(anomalous_windows),
        normal_variance=spectrum_variance(normal_windows),
        anomaly_expectation=spectrum_expectation(anomalous_windows),
        normal_expectation=spectrum_expectation(normal_windows),
    )


def spectral_kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = 1e-12) -> float:
    """KL(p || q) between two normalised spectra."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("spectra must share a shape")
    p = np.maximum(p / p.sum(), eps)
    q = np.maximum(q / q.sum(), eps)
    return float(np.sum(p * np.log(p / q)))


def pairwise_kde_kl(series_list, grid_size: int = 200, eps: float = 1e-12) -> np.ndarray:
    """Fig. 5(a): pairwise KL divergences between per-subset KDE densities.

    Each element of ``series_list`` is a 1-D (or flattened) sample of one
    subset's normal values.  Returns the upper-triangle KL values.
    Imports ``scipy.stats`` on first call: nothing that fits, scores or
    serves a model loads it.
    """
    from scipy.stats import gaussian_kde

    samples = [np.asarray(s, dtype=float).reshape(-1) for s in series_list]
    if len(samples) < 2:
        raise ValueError("need at least two subsets")
    low = min(s.min() for s in samples)
    high = max(s.max() for s in samples)
    span = max(high - low, 1e-6)
    grid = np.linspace(low - 0.1 * span, high + 0.1 * span, grid_size)
    densities = []
    for sample in samples:
        if np.std(sample) < 1e-3 * span:
            # Degenerate subset: a singular KDE would produce zero density
            # on the shared grid; widen it proportionally to the grid span.
            sample = sample + np.random.default_rng(0).normal(
                0, 0.01 * span, sample.size
            )
        density = gaussian_kde(sample)(grid)
        total = density.sum()
        if total <= 0 or not np.isfinite(total):
            density = np.full_like(density, 1.0 / density.size)
            total = 1.0
        density = np.maximum(density / total, eps)
        densities.append(density)
    values = []
    for i in range(len(densities)):
        for j in range(i + 1, len(densities)):
            p, q = densities[i], densities[j]
            values.append(float(np.sum(p * np.log(p / q))))
    return np.asarray(values)
