"""Alert diagnosis: *why* did this service degrade?

The serving layer tells us *that* a service is sick (breaker trip, health
transition); remediation needs to know *why*, because the right remedy
depends on the root cause:

* **data-quality fault** — the sanitizer has been repairing a large
  fraction of recent observations (NaN/Inf imputation, clipping, dropped
  rows).  The model is fine; its *inputs* are fiction.  Remedy: refresh
  the sanitizer calibration, then re-probe.
* **model staleness** — inputs are clean but the window's amplitude
  spectrum has drifted away from the calibration-time reference (the
  paper's core observation, inverted: if normality is a frequency-domain
  pattern, a *changed* pattern means the learned normality is out of
  date).  Remedy: re-characterize the service (hot swap), then re-probe.
* **anomaly storm** — inputs are clean, the spectrum still matches the
  reference at calibration scale, yet alerts/failures persist: the world
  really is anomalous.  Remediation must *not* mask it; re-probe the
  model so monitoring recovers, and escalate to a human fast.

Evidence comes from two independent sources: the sanitizer's repair
reports (tracked tick-by-tick in :class:`EvidenceWindow`) and the
fallback scorer's per-feature spectral drift
(:meth:`SpectralFallbackScorer.feature_drift`).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["AlertClass", "DiagnosisConfig", "EvidenceWindow", "Diagnosis",
           "attribute_drift", "diagnose"]

# Fraction of recent ready ticks that were alerts before clean-input,
# undrifted trouble reads as an anomaly storm.
_STORM_ALERT_FRACTION = 0.3


class AlertClass(enum.Enum):
    DATA_QUALITY = "data_quality"
    MODEL_STALENESS = "model_staleness"
    ANOMALY_STORM = "anomaly_storm"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class DiagnosisConfig:
    """Thresholds separating the three root-cause classes.

    ``repair_fraction`` — fraction of recent ticks on which the sanitizer
    had to repair the observation before the alert reads as a
    data-quality fault.  ``drift_threshold`` — mean per-feature spectral
    KL against the calibration reference before the window reads as
    drifted (the fallback scorer's own alert threshold is calibrated per
    service; this is the *relative* multiplier applied to it).
    """

    window: int = 64
    repair_fraction: float = 0.25
    drift_threshold: float = 2.0

    def __post_init__(self):
        if self.window < 4:
            raise ValueError("window must be >= 4")
        if not 0.0 < self.repair_fraction <= 1.0:
            raise ValueError("repair_fraction must be in (0, 1]")
        if self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")


class EvidenceWindow:
    """Rolling per-service evidence the controller feeds tick by tick."""

    def __init__(self, window: int = 64):
        if window < 4:
            raise ValueError("window must be >= 4")
        self.window = window
        self._repaired: deque = deque(maxlen=window)   # bool per tick
        self._alerts: deque = deque(maxlen=window)     # bool per ready tick
        self._scores: deque = deque(maxlen=window)     # model-path scores

    def record(self, outcome) -> None:
        """Fold one :class:`~repro.core.streaming.StreamUpdate` in."""
        self._repaired.append(bool(outcome.sanitized))
        if outcome.ready:
            self._alerts.append(bool(outcome.is_alert))
            if not outcome.used_fallback and np.isfinite(outcome.score):
                self._scores.append(float(outcome.score))

    @property
    def ticks(self) -> int:
        return len(self._repaired)

    @property
    def repair_fraction(self) -> float:
        if not self._repaired:
            return 0.0
        return sum(self._repaired) / len(self._repaired)

    @property
    def alert_fraction(self) -> float:
        if not self._alerts:
            return 0.0
        return sum(self._alerts) / len(self._alerts)

    def score_baseline(self) -> Optional[float]:
        """Median recent model-path score (the drift-bound reference)."""
        if not self._scores:
            return None
        return float(np.median(np.asarray(self._scores)))


@dataclass(frozen=True)
class Diagnosis:
    """One classified alert, with the evidence that produced the call."""

    alert_class: AlertClass
    repair_fraction: float
    spectral_drift: float          # mean per-feature KL vs the reference
    drift_ratio: float             # spectral_drift / fallback threshold
    alert_fraction: float
    top_features: Tuple[Tuple[int, float], ...] = ()   # (feature, share)
    reason: str = ""

    def to_payload(self) -> dict:
        """JSON-ready payload for the ``diagnosis`` event."""
        return {
            "alert_class": self.alert_class.value,
            "repair_fraction": round(self.repair_fraction, 6),
            "spectral_drift": round(self.spectral_drift, 6),
            "drift_ratio": round(self.drift_ratio, 6),
            "alert_fraction": round(self.alert_fraction, 6),
            "top_features": [[feature, round(share, 6)]
                             for feature, share in self.top_features],
            "reason": self.reason,
        }


def attribute_drift(per_feature_drift: np.ndarray,
                    top: int = 3) -> Tuple[Tuple[int, float], ...]:
    """Rank features by their share of the total spectral drift."""
    drift = np.asarray(per_feature_drift, dtype=float)
    total = max(float(drift.sum()), 1e-12)
    order = np.argsort(drift)[::-1][:top]
    return tuple((int(feature), float(drift[feature] / total))
                 for feature in order)


def diagnose(evidence: EvidenceWindow, per_feature_drift: np.ndarray,
             fallback_threshold: float,
             config: DiagnosisConfig | None = None) -> Diagnosis:
    """Classify one sick service from its accumulated evidence.

    ``per_feature_drift`` is the fallback scorer's
    :meth:`~repro.runtime.serving.SpectralFallbackScorer.feature_drift`
    of the current window; ``fallback_threshold`` its calibrated alert
    threshold, used to normalise drift across services.
    """
    config = config or DiagnosisConfig()
    drift = np.asarray(per_feature_drift, dtype=float)
    spectral_drift = float(drift.mean()) if drift.size else 0.0
    threshold = fallback_threshold
    if not np.isfinite(threshold) or threshold <= 0:
        threshold = max(spectral_drift, 1e-12)
    drift_ratio = spectral_drift / max(threshold, 1e-12)
    repair = evidence.repair_fraction
    alerts = evidence.alert_fraction
    top = attribute_drift(drift)

    if repair >= config.repair_fraction:
        alert_class = AlertClass.DATA_QUALITY
        reason = (f"sanitizer repaired {repair:.0%} of the last "
                  f"{evidence.ticks} observations "
                  f"(threshold {config.repair_fraction:.0%})")
    elif drift_ratio >= config.drift_threshold:
        alert_class = AlertClass.MODEL_STALENESS
        reason = (f"clean inputs but spectral drift at "
                  f"{drift_ratio:.1f}x the calibrated fallback threshold "
                  f"(threshold {config.drift_threshold:.1f}x)")
    elif alerts >= _STORM_ALERT_FRACTION:
        alert_class = AlertClass.ANOMALY_STORM
        reason = (f"clean inputs, reference-scale spectrum, yet "
                  f"{alerts:.0%} of recent ready ticks alerted "
                  f"(threshold {_STORM_ALERT_FRACTION:.0%})")
    else:
        alert_class = AlertClass.UNKNOWN
        reason = ("no evidence source crossed its threshold "
                  f"(repair {repair:.0%}, drift {drift_ratio:.2f}x, "
                  f"alerts {alerts:.0%})")
    return Diagnosis(
        alert_class=alert_class,
        repair_fraction=repair,
        spectral_drift=spectral_drift,
        drift_ratio=drift_ratio,
        alert_fraction=alerts,
        top_features=top,
        reason=reason,
    )
