"""Online anomaly detection: score points as they arrive.

Wraps a fitted :class:`~repro.core.detector.MaceDetector` (or any
``AnomalyDetector``) behind a per-service ring buffer.  Each ``update``
appends one observation, scores the newest full window, and passes the
newest timestamp's error through a streaming SPOT threshold — the
deployment loop for the paper's C2 setting (heavy traffic, real time).

Robustness contract: observations are validated *before* they enter the
ring buffer.  A NaN/Inf observation either raises (default) or is imputed
from the previous row, depending on ``on_invalid`` — it is never written
through silently, because one poisoned row corrupts every window for the
next ``window`` updates.  The fault-tolerant serving loop in
:mod:`repro.runtime` builds on the ``observe``/``score_current`` split so
that buffers keep advancing even while a service's model path is
quarantined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.detector import AnomalyDetector, MaceDetector
from repro.eval.spot import Spot

__all__ = ["StreamUpdate", "StreamingDetector"]

_ON_INVALID = ("raise", "impute")


@dataclass(frozen=True)
class StreamUpdate:
    """Outcome of feeding one observation to the stream.

    The first four fields are the original scoring outcome; the remaining
    fields report what the fault-tolerance layer did to produce it (they
    keep their defaults on the plain, healthy path).
    """

    score: float
    is_alert: bool
    ready: bool          # False while the window buffer is still filling
    threshold: float
    health: str = "healthy"          # HealthState.value of the service
    used_fallback: bool = False      # score came from the degraded-mode scorer
    imputed_features: tuple = ()     # feature indices repaired before buffering
    clipped_features: tuple = ()     # feature indices clipped to the sane range
    duplicate: bool = False          # already-applied sequence; state untouched

    @property
    def sanitized(self) -> bool:
        """True when the observation was modified before entering the buffer."""
        return bool(self.imputed_features or self.clipped_features)


class _ServiceStream:
    """Per-service ring buffer + SPOT state."""

    def __init__(self, window: int, num_features: int, spot: Spot):
        self.buffer = np.zeros((window, num_features))
        self.filled = 0
        self.spot = spot


class StreamingDetector:
    """Point-at-a-time scoring on top of a fitted window detector.

    Parameters
    ----------
    detector:
        A fitted detector.  For :class:`MaceDetector` the wrapped trainer is
        used directly (cheapest path); any other ``AnomalyDetector`` is
        scored through its public API.
    window:
        Window length the detector expects.
    q, calibration_quantile:
        SPOT alert rate and initial level.
    on_invalid:
        What to do with a NaN/Inf observation: ``"raise"`` (default)
        rejects it with a ``ValueError``; ``"impute"`` repairs the
        non-finite features from the previous buffered row before it is
        written.  Either way a non-finite value never enters the buffer.
    """

    def __init__(self, detector: AnomalyDetector, window: int = 40,
                 q: float = 1e-3, calibration_level: float = 0.98,
                 on_invalid: str = "raise"):
        if on_invalid not in _ON_INVALID:
            raise ValueError(f"on_invalid must be one of {_ON_INVALID}")
        self.detector = detector
        self.window = window
        self.q = q
        self.calibration_level = calibration_level
        self.on_invalid = on_invalid
        self._streams: Dict[str, _ServiceStream] = {}

    def start_service(self, service_id: str, recent_history: np.ndarray) -> None:
        """Begin streaming for a service, calibrating SPOT on its history.

        ``recent_history`` should be a recent, mostly-normal stretch of at
        least a few hundred points (it fills the buffer and calibrates the
        alert threshold).
        """
        history = np.atleast_2d(np.asarray(recent_history, dtype=float))
        if history.shape[0] < self.window * 2:
            raise ValueError(
                f"need at least {2 * self.window} history points to calibrate"
            )
        if not np.isfinite(history).all():
            raise ValueError(
                "calibration history contains non-finite values; clean it "
                "(e.g. with repro.runtime.Sanitizer) before start_service()"
            )
        scores = self.detector.score(service_id, history)
        spot = Spot(q=self.q, level=self.calibration_level)
        spot.initialize(scores)
        stream = _ServiceStream(self.window, history.shape[1], spot)
        stream.buffer[:] = history[-self.window:]
        stream.filled = self.window
        self._streams[service_id] = stream

    def services(self) -> tuple:
        """IDs of every started service."""
        return tuple(self._streams)

    def observe(self, service_id: str,
                observation: np.ndarray) -> Optional[np.ndarray]:
        """Push one observation into the ring buffer **without scoring**.

        Returns the current ``(window, features)`` view once the buffer is
        full, else ``None``.  This is the half of :meth:`update` that must
        always run — even when the model path is broken — so the window
        stays current for fallback scoring and later re-admission.
        """
        stream = self._require_stream(service_id)
        return self._push(stream, self._validate(stream, observation))

    def _observe_sanitized(self, service_id: str,
                           row: np.ndarray) -> Optional[np.ndarray]:
        """:meth:`observe` for a row that is already valid, unchecked.

        ``row`` must be a finite float64 ``(features,)`` array, as
        :meth:`repro.runtime.Sanitizer.sanitize` returns; a row that is
        not corrupts the buffer.  Skipping the re-validation is what this
        method is for: the serving runtime sanitizes every row first.
        """
        return self._push(self._require_stream(service_id), row)

    def _push(self, stream: _ServiceStream,
              row: np.ndarray) -> Optional[np.ndarray]:
        # A fresh array per update: callers may still hold the old window.
        stream.buffer = np.concatenate((stream.buffer[1:], row[None]))
        stream.filled = min(stream.filled + 1, self.window)
        if stream.filled < self.window:
            return None
        return stream.buffer

    def score_current(self, service_id: str) -> float:
        """Model score of the newest timestamp in the buffered window."""
        stream = self._require_stream(service_id)
        if stream.filled < self.window:
            raise RuntimeError(
                f"service {service_id!r} buffer holds {stream.filled} of "
                f"{self.window} points; cannot score yet"
            )
        return float(self._window_error(service_id, stream.buffer))

    def update(self, service_id: str, observation: np.ndarray) -> StreamUpdate:
        """Feed one multivariate observation; score its timestamp."""
        stream = self._require_stream(service_id)
        window = self.observe(service_id, observation)
        if window is None:
            return StreamUpdate(0.0, False, False, stream.spot.threshold)
        score = self.score_current(service_id)
        is_alert = stream.spot.step(score)
        return StreamUpdate(score, is_alert, True, stream.spot.threshold)

    def step_threshold(self, service_id: str, score: float) -> bool:
        """Feed a finite score through the service's SPOT; returns alert.

        Used by the fault-tolerant runtime, which validates model output
        before it is allowed to touch the adaptive threshold state.
        """
        return self._require_stream(service_id).spot.step(score)

    def _require_stream(self, service_id: str) -> _ServiceStream:
        if service_id not in self._streams:
            raise KeyError(
                f"service {service_id!r} not started; call start_service()"
            )
        return self._streams[service_id]

    def _validate(self, stream: _ServiceStream,
                  observation: np.ndarray) -> np.ndarray:
        observation = np.asarray(observation, dtype=float).reshape(-1)
        if observation.size != stream.buffer.shape[1]:
            raise ValueError(
                f"expected {stream.buffer.shape[1]} features, "
                f"got {observation.size}"
            )
        finite = np.isfinite(observation)
        if finite.all():
            return observation
        if self.on_invalid == "raise":
            bad = np.flatnonzero(~finite).tolist()
            raise ValueError(
                f"observation has non-finite values in features {bad}; "
                "pass on_invalid='impute' or sanitize upstream — a "
                f"poisoned row corrupts the next {self.window} windows"
            )
        repaired = observation.copy()
        repaired[~finite] = stream.buffer[-1][~finite]
        return repaired

    def _window_error(self, service_id: str, window_values: np.ndarray) -> float:
        """Newest-timestamp error of the current window."""
        batch = window_values[None]
        if isinstance(self.detector, MaceDetector) and self.detector.trainer:
            errors = self.detector.trainer.window_errors(service_id, batch)
            return errors[0, -1]
        scores = self.detector.score(service_id, window_values)
        return scores[-1]

    def threshold(self, service_id: str) -> float:
        return self._streams[service_id].spot.threshold

    # ------------------------------------------------------------------
    # State serialization — restart a serving process without re-running
    # calibration (buffers + SPOT state; the detector itself is persisted
    # separately via repro.core.persistence).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every service's live state."""
        return {
            "format": "repro.streaming-state.v1",
            "window": self.window,
            "q": self.q,
            "calibration_level": self.calibration_level,
            "on_invalid": self.on_invalid,
            "services": {
                service_id: {
                    "buffer": stream.buffer.tolist(),
                    "filled": stream.filled,
                    "spot": stream.spot.state_dict(),
                }
                for service_id, stream in self._streams.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (replaces all live streams)."""
        if state.get("format") != "repro.streaming-state.v1":
            raise ValueError(
                f"unrecognised streaming state format: {state.get('format')!r}"
            )
        if state["window"] != self.window:
            raise ValueError(
                f"state window {state['window']} != detector window "
                f"{self.window}"
            )
        streams: Dict[str, _ServiceStream] = {}
        for service_id, payload in state["services"].items():
            buffer = np.asarray(payload["buffer"], dtype=float)
            if buffer.shape[0] != self.window:
                raise ValueError(
                    f"service {service_id!r} buffer has {buffer.shape[0]} "
                    f"rows, expected {self.window}"
                )
            stream = _ServiceStream(self.window, buffer.shape[1],
                                    Spot.from_state(payload["spot"]))
            stream.buffer[:] = buffer
            stream.filled = int(payload["filled"])
            streams[service_id] = stream
        self._streams = streams
