"""Peaks-Over-Threshold (POT) thresholding via extreme value theory.

Implements the SPOT initial-calibration step of Siffer et al. (KDD 2017),
which the paper cites as its thresholding strategy: fit a Generalised
Pareto Distribution to the excesses above a high empirical quantile and
derive the threshold whose exceedance probability is ``q``.  The GPD is
fitted by :func:`repro.eval.gpd.fit_gpd`, which gives scipy's
``genpareto.fit`` bits without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.gpd import fit_gpd

__all__ = ["PotFit", "fit_pot", "pot_threshold"]


@dataclass(frozen=True)
class PotFit:
    """A fitted GPD tail model."""

    initial_threshold: float
    shape: float        # GPD ξ
    scale: float        # GPD σ
    num_excesses: int
    num_samples: int

    def quantile(self, q: float) -> float:
        """Threshold z_q with target exceedance probability ``q``.

        ``z_q = t + (σ/ξ) * ((q n / N_t)^{-ξ} - 1)`` (ξ ≠ 0), with the
        exponential-tail limit for ξ → 0.
        """
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        ratio = q * self.num_samples / max(self.num_excesses, 1)
        if abs(self.shape) < 1e-9:
            return self.initial_threshold - self.scale * np.log(ratio)
        return self.initial_threshold + (self.scale / self.shape) * (
            ratio ** (-self.shape) - 1.0
        )


def fit_pot(scores: np.ndarray, level: float = 0.98) -> PotFit:
    """Fit a GPD to the excesses of ``scores`` above the ``level`` quantile."""
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.size < 10:
        raise ValueError("POT needs at least 10 samples")
    if not 0.5 < level < 1.0:
        raise ValueError("level must be in (0.5, 1)")
    initial = float(np.quantile(scores, level))
    excesses = scores[scores > initial] - initial
    if excesses.size < 4:
        # Degenerate tail: too few excesses to fit, so fall back to an
        # exponential tail whose scale is the scores' standard deviation.
        scale = float(scores.std() + 1e-9)
        return PotFit(initial, 0.0, scale, int(excesses.size), scores.size)
    shape, scale = fit_gpd(excesses)
    return PotFit(initial, shape, scale, int(excesses.size), scores.size)


def pot_threshold(scores: np.ndarray, q: float = 1e-3,
                  level: float = 0.98) -> float:
    """One-call POT threshold for a score stream."""
    return float(fit_pot(scores, level=level).quantile(q))
