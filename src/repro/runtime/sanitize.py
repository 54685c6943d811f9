"""Input sanitization in front of the streaming ring buffer.

Telemetry from a heavy-traffic fleet arrives dirty: NaN from division by a
zero counter, Inf from an overflowed gauge, whole rows missing when an
agent drops samples, and transient 1000σ glitches from unit bugs.  A
:class:`Sanitizer` sits between the transport and
``StreamingDetector.observe`` and repairs each observation *before* it can
poison the next ``window`` scoring windows:

* **non-finite / missing values** are imputed — last good value by default,
  or the per-feature median of the calibration history;
* **gross outliers** (beyond ``clip_sigmas`` robust standard deviations of
  the calibration history) are clipped to the boundary, preserving the
  direction of the excursion without letting one glitch saturate the
  dualistic amplifier;
* every repair is reported in a :class:`SanitizationReport` so the serving
  layer can surface degraded inputs instead of hiding them.

Clipping is deliberately loose (default 12σ): genuine anomalies the
detector must see are a few σ, while transport glitches are orders of
magnitude out.  Set ``clip_sigmas=None`` to disable clipping entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SanitizerConfig", "SanitizationReport", "Sanitizer"]

_IMPUTE_MODES = ("last", "median")


@dataclass(frozen=True)
class SanitizerConfig:
    """Sanitization policy for one service's stream.

    Parameters
    ----------
    impute:
        ``"last"`` repeats the previous clean value per feature (best for
        slowly varying gauges); ``"median"`` substitutes the calibration
        median (best for noisy counters where repeating the last value
        fabricates a trend).
    clip_sigmas:
        Clip each feature to ``median ± clip_sigmas * robust_std`` of the
        calibration history; ``None`` disables clipping.
    max_consecutive_imputed:
        After this many fully-imputed rows in a row the stream is reported
        as gapped (``SanitizationReport.gap_exceeded``) — the imputed data
        is pure fiction by then and the serving layer should degrade the
        service rather than keep alerting on it.
    """

    impute: str = "last"
    clip_sigmas: Optional[float] = 12.0
    max_consecutive_imputed: int = 10

    def __post_init__(self):
        if self.impute not in _IMPUTE_MODES:
            raise ValueError(f"impute must be one of {_IMPUTE_MODES}")
        if self.clip_sigmas is not None and self.clip_sigmas <= 0:
            raise ValueError("clip_sigmas must be positive (or None)")
        if self.max_consecutive_imputed < 1:
            raise ValueError("max_consecutive_imputed must be >= 1")


@dataclass(frozen=True)
class SanitizationReport:
    """What the sanitizer did to one observation."""

    imputed_features: tuple = ()   # indices repaired from last/median
    clipped_features: tuple = ()   # indices clipped into the sane range
    missing_row: bool = False      # the whole observation was absent
    gap_exceeded: bool = False     # too many consecutive fabricated rows

    @property
    def modified(self) -> bool:
        return bool(self.imputed_features or self.clipped_features
                    or self.missing_row)


# The report of an observation that needed no repair (reports are frozen,
# so one instance serves every such update).
_UNMODIFIED = SanitizationReport()


class Sanitizer:
    """Stateful per-service observation repair.

    Calibrate once on the service's (clean) recent history via
    :meth:`fit`, then run every incoming observation through
    :meth:`sanitize`.  The sanitizer tracks the last clean row so
    last-value imputation works across consecutive bad samples.
    """

    def __init__(self, config: SanitizerConfig | None = None):
        self.config = config or SanitizerConfig()
        self._median: np.ndarray | None = None
        self._lo: np.ndarray | None = None
        self._hi: np.ndarray | None = None
        self._last: np.ndarray | None = None
        self._consecutive_imputed = 0

    @property
    def fitted(self) -> bool:
        return self._median is not None

    def fit(self, history: np.ndarray) -> "Sanitizer":
        """Learn per-feature medians and robust scales from history.

        Non-finite entries in the history are ignored feature-wise (a
        calibration stretch may itself contain a few bad readings).
        """
        history = np.atleast_2d(np.asarray(history, dtype=float))
        if history.shape[0] < 2:
            raise ValueError("need at least 2 history rows to calibrate")
        masked = np.where(np.isfinite(history), history, np.nan)
        if np.isnan(masked).all(axis=0).any():
            raise ValueError(
                "a feature has no finite calibration values at all"
            )
        self._median = np.nanmedian(masked, axis=0)
        # 1.4826 * MAD estimates σ robustly; floor it so a constant (dead)
        # feature still gets a non-degenerate clipping band.
        mad = np.nanmedian(np.abs(masked - self._median), axis=0)
        spread = np.nanstd(masked, axis=0)
        robust_std = np.maximum(1.4826 * mad, np.maximum(spread, 1e-9))
        if self.config.clip_sigmas is not None:
            self._lo = self._median - self.config.clip_sigmas * robust_std
            self._hi = self._median + self.config.clip_sigmas * robust_std
        last = masked[-1].copy()
        fallback = np.isnan(last)
        last[fallback] = self._median[fallback]
        self._last = last
        self._consecutive_imputed = 0
        return self

    def sanitize(self, observation: np.ndarray | None
                 ) -> tuple[np.ndarray, SanitizationReport]:
        """Return a finite, clipped observation plus a repair report.

        ``observation=None`` means the sample was dropped in transport;
        the whole row is imputed.
        """
        if not self.fitted:
            raise RuntimeError("call fit() before sanitize()")
        num_features = self._median.size
        missing_row = observation is None
        if missing_row:
            observation = np.full(num_features, np.nan)
        observation = np.asarray(observation, dtype=float).reshape(-1)
        if observation.size != num_features:
            raise ValueError(
                f"expected {num_features} features, got {observation.size}"
            )

        finite = np.isfinite(observation)
        all_finite = bool(finite.all())
        clean = observation.copy()
        imputed: tuple = ()
        if not all_finite:
            source = (self._last if self.config.impute == "last"
                      else self._median)
            clean[~finite] = source[~finite]
            imputed = tuple(np.flatnonzero(~finite).tolist())

        clipped: tuple = ()
        if self._lo is not None:
            below = clean < self._lo
            above = clean > self._hi
            out = below | above
            if out.any():
                clean = np.clip(clean, self._lo, self._hi)
                clipped = tuple(np.flatnonzero(out).tolist())

        if all_finite and not missing_row:
            self._consecutive_imputed = 0
        elif not finite.any() or missing_row:
            self._consecutive_imputed += 1
        gap_exceeded = (self._consecutive_imputed
                        >= self.config.max_consecutive_imputed)
        self._last = clean.copy()
        if not (imputed or clipped or missing_row or gap_exceeded):
            return clean, _UNMODIFIED  # the common case: nothing repaired
        return clean, SanitizationReport(
            imputed_features=imputed,
            clipped_features=clipped,
            missing_row=missing_row,
            gap_exceeded=gap_exceeded,
        )
