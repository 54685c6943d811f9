"""The fault-tolerant fleet serving loop.

:class:`ServingRuntime` wraps a :class:`~repro.core.streaming
.StreamingDetector` with the three runtime guarantees a production
deployment needs:

1. every observation is sanitized before it reaches the ring buffer
   (:mod:`repro.runtime.sanitize`);
2. a per-service circuit breaker quarantines a failing model path and
   re-admits it via exponential-backoff probes
   (:mod:`repro.runtime.health`);
3. while quarantined, the service keeps producing scores from a cheap
   spectral-distance fallback, so monitoring never goes dark and the ring
   buffer keeps advancing for eventual re-admission.

``update`` **never raises on a scoring failure** — the contract of the
fleet loop is that one broken service degrades alone.  Programming errors
(unknown service, wrong feature count) still raise, because silently
swallowing those would hide real bugs.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.core.detector import AnomalyDetector
from repro.core.streaming import StreamingDetector, StreamUpdate
from repro.frequency.dft import rfft_amplitude
from repro.frequency.spectrum import spectral_kl_divergence
from repro.obs.events import emit
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import span
from repro.runtime.health import BreakerConfig, HealthState, ServiceHealth
from repro.runtime.sanitize import Sanitizer, SanitizerConfig

__all__ = ["SpectralFallbackScorer", "ServingRuntime"]


class SpectralFallbackScorer:
    """Model-free degraded-mode scorer: spectral distance to calibration.

    The paper's empirical motivation (Tables II/III) is that anomalies
    reshape a window's amplitude spectrum; this scorer exploits exactly
    that with no learned weights: per feature, the KL divergence between
    the current window's normalised amplitude spectrum and the mean
    calibration spectrum.  It is orders of magnitude cheaper than the
    model path and numerically bulletproof — precisely what you want from
    the path of last resort.  Its alert threshold is the 99.5th
    percentile of the calibration windows' distances.
    """

    alert_quantile = 0.995

    def __init__(self, window: int):
        self.window = window
        self._reference: np.ndarray | None = None   # (features, bins)
        self.threshold: float = float("inf")

    @property
    def fitted(self) -> bool:
        return self._reference is not None

    def fit(self, history: np.ndarray) -> "SpectralFallbackScorer":
        """Calibrate the reference spectrum and alert threshold."""
        history = np.atleast_2d(np.asarray(history, dtype=float))
        if history.shape[0] < 2 * self.window:
            raise ValueError(
                f"need at least {2 * self.window} history rows to calibrate"
            )
        stride = max(self.window // 4, 1)
        starts = range(0, history.shape[0] - self.window + 1, stride)
        spectra = np.stack([
            self._normalised_spectrum(history[start:start + self.window])
            for start in starts
        ])                                         # (W, features, bins)
        self._reference = spectra.mean(axis=0)
        calibration = np.array([self._distance(s) for s in spectra])
        self.threshold = float(np.quantile(calibration, self.alert_quantile))
        return self

    def score(self, window_values: np.ndarray) -> float:
        """Spectral distance of one ``(window, features)`` array."""
        if not self.fitted:
            raise RuntimeError("call fit() before score()")
        return self._distance(self._normalised_spectrum(window_values))

    def _normalised_spectrum(self, window_values: np.ndarray) -> np.ndarray:
        window_values = np.atleast_2d(np.asarray(window_values, dtype=float))
        amplitude = rfft_amplitude(window_values.T)     # (features, bins)
        total = amplitude.sum(axis=-1, keepdims=True)
        return amplitude / np.maximum(total, 1e-12)

    def _distance(self, spectrum: np.ndarray) -> float:
        return float(np.mean([
            spectral_kl_divergence(feature, reference)
            for feature, reference in zip(spectrum, self._reference)
        ]))


class ServingRuntime:
    """Never-raises serving loop over a fleet of streamed services.

    Parameters mirror :class:`~repro.core.streaming.StreamingDetector`,
    plus the sanitization and breaker policies.  Typical use::

        runtime = ServingRuntime(detector, window=40, q=1e-3)
        runtime.start_service("svc-1", recent_history)
        for row in live_feed:
            outcome = runtime.update("svc-1", row)   # never raises
            if outcome.is_alert: page_oncall(...)
    """

    def __init__(self, detector: AnomalyDetector, window: int = 40,
                 q: float = 1e-3,
                 sanitizer_config: SanitizerConfig | None = None,
                 breaker_config: BreakerConfig | None = None,
                 registry: MetricsRegistry | None = None):
        self.streaming = StreamingDetector(detector, window=window, q=q,
                                           on_invalid="impute")
        self.window = window
        self.sanitizer_config = sanitizer_config or SanitizerConfig()
        self.breaker_config = breaker_config or BreakerConfig()
        self.registry = registry if registry is not None else get_registry()
        self._sanitizers: Dict[str, Sanitizer] = {}
        self._health: Dict[str, ServiceHealth] = {}
        self._fallbacks: Dict[str, SpectralFallbackScorer] = {}
        self._latency: Dict[str, object] = {}   # per-service histograms
        self._reported_transitions: Dict[str, int] = {}
        self._applied_sequence: Dict[str, int] = {}  # at-least-once high water

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_service(self, service_id: str,
                      recent_history: np.ndarray) -> None:
        """Calibrate sanitizer, model threshold, and fallback scorer.

        The raw history may itself contain non-finite readings; they are
        repaired (per-feature median) before calibration.
        """
        history = np.atleast_2d(np.asarray(recent_history, dtype=float))
        sanitizer = Sanitizer(self.sanitizer_config).fit(history)
        clean = self._clean_history(history)
        self.streaming.start_service(service_id, clean)
        fallback = SpectralFallbackScorer(self.window).fit(clean)
        self._sanitizers[service_id] = sanitizer
        self._health[service_id] = ServiceHealth(self.breaker_config)
        self._fallbacks[service_id] = fallback
        self._latency[service_id] = self.registry.histogram(
            "serving.update_seconds", service=service_id)
        self._reported_transitions[service_id] = 0
        self._applied_sequence[service_id] = 0

    def services(self) -> tuple:
        return tuple(self._health)

    def health(self, service_id: str) -> ServiceHealth:
        return self._health[service_id]

    def health_states(self) -> Dict[str, HealthState]:
        """Current state of every service (fleet dashboard view)."""
        return {service_id: health.state
                for service_id, health in self._health.items()}

    def current_window(self, service_id: str) -> Optional[np.ndarray]:
        """The service's buffered ``(window, features)`` view, if full."""
        stream = self.streaming._streams.get(service_id)
        if stream is None:
            raise KeyError(
                f"service {service_id!r} not started; call start_service()"
            )
        if stream.filled < self.window:
            return None
        return stream.buffer.copy()

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def update(self, service_id: str,
               observation: Optional[np.ndarray],
               sequence: Optional[int] = None,
               force_fallback: bool = False,
               trace_id: Optional[str] = None) -> StreamUpdate:
        """Feed one observation (or ``None`` for a dropped sample).

        Scoring failures — exceptions or non-finite output from the model
        path — are absorbed: the breaker records them and the fallback
        scorer answers instead.  Only usage errors (unknown service, wrong
        feature count) propagate.

        ``sequence`` makes the update idempotent under at-least-once
        delivery: pass the service's monotonic update number and a
        re-delivered (``sequence <= applied_sequence``) observation is
        skipped without touching any state — the returned outcome carries
        ``duplicate=True``.  The high-water mark survives restarts through
        the serving-state snapshot
        (:func:`repro.runtime.checkpoint.save_streaming_state`), which is
        what makes WAL replay into a restored runtime exact rather than
        merely approximate.

        ``force_fallback=True`` skips the model path entirely and answers
        from the spectral fallback scorer (the gateway's overload-ladder
        DEGRADED rung: shed model cost before refusing traffic).  The
        ring buffer still advances and SPOT is not stepped — exactly the
        breaker's own fallback semantics — so a WAL that records the flag
        replays to the identical state.

        Every applied update lands in the per-service latency histogram
        (``serving.update_seconds``), and any health-state transition it
        caused is counted (``serving.health_transitions``) and emitted as
        a ``health_transition`` event — ``breaker_trip`` when the breaker
        opened.

        ``trace_id`` (optional) is recorded as the latency histogram's
        per-bucket exemplar — the hook distributed tracing uses to jump
        from "p99 regressed" to the exact trace.  It never influences
        scoring.
        """
        if service_id not in self._health:
            raise KeyError(
                f"service {service_id!r} not started; call start_service()"
            )
        if sequence is not None:
            if sequence < 1:
                raise ValueError(
                    f"sequence must be a positive update number, "
                    f"got {sequence}"
                )
            if sequence <= self._applied_sequence[service_id]:
                return self._duplicate_outcome(service_id)
        started = time.perf_counter()  # effects: ok TIME reason=latency measurement is telemetry, never model input
        try:
            with span("serving.update"):
                outcome = self._update(service_id, observation,
                                       force_fallback=force_fallback)
            if sequence is not None:
                self._applied_sequence[service_id] = sequence
            return outcome
        finally:
            self._latency[service_id].observe(
                time.perf_counter() - started,  # effects: ok TIME reason=latency measurement is telemetry, never model input
                exemplar=trace_id)
            self._report_transitions(service_id)

    def applied_sequence(self, service_id: str) -> int:
        """High-water mark of applied update sequences (0 before any)."""
        if service_id not in self._applied_sequence:
            raise KeyError(
                f"service {service_id!r} not started; call start_service()"
            )
        return self._applied_sequence[service_id]

    def _duplicate_outcome(self, service_id: str) -> StreamUpdate:
        """Answer a re-delivered sequence without touching any state."""
        health = self._health[service_id]
        stream = self.streaming._streams[service_id]
        return StreamUpdate(
            score=0.0, is_alert=False,
            ready=stream.filled >= self.window,
            threshold=self.streaming.threshold(service_id),
            health=health.state.value,
            duplicate=True,
        )

    def state_dict(self) -> dict:
        """JSON-serializable snapshot: streaming state + sequence marks.

        Wraps :meth:`StreamingDetector.state_dict` with the per-service
        applied-sequence high-water marks, so a restored runtime resumes
        duplicate detection exactly where the snapshot left off.
        """
        return {
            "format": "repro.serving-state.v1",
            "streaming": self.streaming.state_dict(),
            "applied_sequence": dict(self._applied_sequence),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into started services."""
        if state.get("format") != "repro.serving-state.v1":
            raise ValueError(
                f"unrecognised serving state format: {state.get('format')!r}"
            )
        self.streaming.load_state_dict(state["streaming"])
        for service_id in self.streaming.services():
            if service_id not in self._health:
                raise ValueError(
                    f"snapshot holds service {service_id!r} which was never "
                    "started on this runtime; call start_service() first"
                )
        marks = state.get("applied_sequence", {})
        for service_id, mark in marks.items():
            self._applied_sequence[service_id] = int(mark)

    def _report_transitions(self, service_id: str) -> None:
        """Turn newly recorded state transitions into metrics + events."""
        health = self._health[service_id]
        reported = self._reported_transitions[service_id]
        for index in range(reported, len(health.transitions)):
            tick, from_state, to_state = health.transitions[index]
            previous_tick = (health.transitions[index - 1][0]
                             if index > 0 else 0)
            self.registry.counter(
                "serving.health_transitions", service=service_id,
                from_state=from_state.value, to_state=to_state.value,
            ).inc()
            emit("health_transition", service=service_id,
                 from_state=from_state.value, to_state=to_state.value,
                 tick=tick, ticks_in_state=tick - previous_tick,
                 transition_count=index + 1,
                 last_transition_tick=previous_tick)
            if to_state is HealthState.QUARANTINED:
                self.registry.counter("serving.breaker_trips",
                                      service=service_id).inc()
                emit("breaker_trip", service=service_id,
                     failures=health.total_failures, tick=tick)
        self._reported_transitions[service_id] = len(health.transitions)

    def _update(self, service_id: str,
                observation: Optional[np.ndarray],
                force_fallback: bool = False) -> StreamUpdate:
        sanitizer = self._sanitizers[service_id]
        health = self._health[service_id]
        health.tick()

        clean, report = sanitizer.sanitize(observation)
        if report.gap_exceeded:
            health.note_degraded_input()

        window = self.streaming._observe_sanitized(service_id, clean)
        if window is None:
            return self._outcome(service_id, health, report,
                                 score=0.0, is_alert=False, ready=False,
                                 used_fallback=False)

        score: Optional[float] = None
        if not force_fallback and health.allow_model():
            score = self._try_model(service_id, health)
        if score is not None:
            is_alert = self.streaming.step_threshold(service_id, score)
            return self._outcome(service_id, health, report,
                                 score=score, is_alert=is_alert, ready=True,
                                 used_fallback=False)

        fallback = self._fallbacks[service_id]
        fallback_score = fallback.score(window)
        return self._outcome(service_id, health, report,
                             score=fallback_score,
                             is_alert=fallback_score > fallback.threshold,
                             ready=True, used_fallback=True)

    def _try_model(self, service_id: str,
                   health: ServiceHealth) -> Optional[float]:
        """One guarded attempt at the real model path."""
        try:
            score = self.streaming.score_current(service_id)
        except Exception:  # scoring path is third-party territory
            health.record_failure()
            return None
        if not np.isfinite(score):
            health.record_failure()
            return None
        health.record_success()
        return score

    def _outcome(self, service_id: str, health: ServiceHealth,
                 report, *, score: float, is_alert: bool, ready: bool,
                 used_fallback: bool) -> StreamUpdate:
        threshold = (self._fallbacks[service_id].threshold if used_fallback
                     else self.streaming.threshold(service_id))
        return StreamUpdate(
            score=score,
            is_alert=is_alert,
            ready=ready,
            threshold=threshold,
            health=health.state.value,
            used_fallback=used_fallback,
            imputed_features=report.imputed_features,
            clipped_features=report.clipped_features,
        )

    def _clean_history(self, history: np.ndarray) -> np.ndarray:
        """Repair non-finite calibration readings with feature medians."""
        masked = np.where(np.isfinite(history), history, np.nan)
        medians = np.nanmedian(masked, axis=0)
        if not np.isfinite(medians).all():
            raise ValueError(
                "a history feature has no finite values; cannot calibrate"
            )
        rows, cols = np.nonzero(np.isnan(masked))
        clean = history.copy()
        clean[rows, cols] = medians[cols]
        return clean
