"""ServingRuntime unit behaviour: routing, degradation, fallback scoring."""

import numpy as np
import pytest

from repro.core.detector import AnomalyDetector
from repro.runtime import (
    BreakerConfig,
    SanitizerConfig,
    ServingRuntime,
    SpectralFallbackScorer,
)
from repro.runtime.health import HealthState


class ScriptedDetector(AnomalyDetector):
    """Cheap z-score detector whose scoring path can be forced to fail."""

    name = "scripted"

    def __init__(self):
        self._stats = {}
        self.fail = False
        self.emit_nan = False

    def fit(self, service_ids, train_series):
        for service_id, series in zip(service_ids, train_series):
            series = np.atleast_2d(np.asarray(series, dtype=float))
            self._stats[service_id] = (series.mean(axis=0),
                                       series.std(axis=0) + 1e-9)
        return self

    def score(self, service_id, series):
        if self.fail:
            raise RuntimeError("scripted scoring failure")
        mean, std = self._stats[service_id]
        series = np.atleast_2d(np.asarray(series, dtype=float))
        scores = np.abs((series - mean) / std).max(axis=1)
        if self.emit_nan:
            scores = scores.copy()
            scores[-1] = np.nan
        return scores


def _history(seed=0, length=240, features=2):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.stack([np.sin(2 * np.pi * t / 20) + 0.1 * rng.normal(size=length)
                     for _ in range(features)], axis=1)
    return base


@pytest.fixture
def runtime():
    history = _history()
    detector = ScriptedDetector().fit(["svc"], [history])
    runtime = ServingRuntime(
        detector, window=40, q=1e-2,
        breaker_config=BreakerConfig(failure_threshold=3,
                                     recovery_successes=2,
                                     probe_successes=1, base_backoff=4,
                                     max_backoff=32),
    )
    runtime.start_service("svc", history)
    return runtime


def _detector(runtime):
    return runtime.streaming.detector


class TestHappyPath:
    def test_clean_updates_stay_healthy(self, runtime):
        for row in _history(seed=1)[:50]:
            outcome = runtime.update("svc", row)
            assert outcome.ready
            assert outcome.health == "healthy"
            assert not outcome.used_fallback
        assert runtime.health("svc").state is HealthState.HEALTHY

    def test_unknown_service_still_raises(self, runtime):
        with pytest.raises(KeyError):
            runtime.update("nope", np.zeros(2))

    def test_feature_mismatch_still_raises(self, runtime):
        with pytest.raises(ValueError):
            runtime.update("svc", np.zeros(7))


    def test_sanitized_row_is_not_validated_again(self, runtime,
                                                  monkeypatch):
        """The sanitizer's output is finite and of the right width, so
        the runtime buffers it without ``StreamingDetector._validate``."""
        def fail(*_):
            raise AssertionError("sanitized row validated a second time")

        monkeypatch.setattr(type(runtime.streaming), "_validate", fail)
        outcome = runtime.update("svc", np.array([np.nan, 0.5]))
        assert outcome.ready and outcome.imputed_features == (0,)
        assert np.isfinite(runtime.current_window("svc")).all()


class TestSanitizedInputs:
    def test_nan_observation_reported_not_fatal(self, runtime):
        outcome = runtime.update("svc", np.array([np.nan, 0.0]))
        assert outcome.imputed_features == (0,)
        assert outcome.sanitized
        assert np.isfinite(outcome.score)

    def test_dropped_sample_accepted(self, runtime):
        outcome = runtime.update("svc", None)
        assert outcome.imputed_features == (0, 1)
        assert np.isfinite(outcome.score)

    def test_gross_outlier_clipped(self, runtime):
        outcome = runtime.update("svc", np.array([1e9, 0.0]))
        assert outcome.clipped_features == (0,)

    def test_long_gap_degrades(self):
        history = _history()
        detector = ScriptedDetector().fit(["svc"], [history])
        runtime = ServingRuntime(
            detector, window=40, q=1e-2,
            sanitizer_config=SanitizerConfig(max_consecutive_imputed=3),
        )
        runtime.start_service("svc", history)
        for _ in range(5):
            outcome = runtime.update("svc", None)
        assert outcome.health == "degraded"

    def test_dirty_calibration_history_accepted(self):
        history = _history()
        history[10:14, 1] = np.nan
        history[50, 0] = np.inf
        detector = ScriptedDetector().fit(
            ["svc"], [np.nan_to_num(history, posinf=0.0, neginf=0.0)]
        )
        runtime = ServingRuntime(detector, window=40, q=1e-2)
        runtime.start_service("svc", history)
        assert runtime.update("svc", np.zeros(2)).ready


class TestDegradedMode:
    def test_scoring_failures_never_surface(self, runtime):
        _detector(runtime).fail = True
        for row in _history(seed=2)[:20]:
            outcome = runtime.update("svc", row)   # must not raise
            assert outcome.ready
            assert np.isfinite(outcome.score)

    def test_breaker_trips_to_quarantine(self, runtime):
        _detector(runtime).fail = True
        outcomes = [runtime.update("svc", row)
                    for row in _history(seed=2)[:10]]
        assert outcomes[-1].health == "quarantined"
        assert outcomes[-1].used_fallback
        assert runtime.health("svc").state is HealthState.QUARANTINED

    def test_nan_scores_trip_breaker_too(self, runtime):
        _detector(runtime).emit_nan = True
        outcomes = [runtime.update("svc", row)
                    for row in _history(seed=3)[:10]]
        assert runtime.health("svc").state is HealthState.QUARANTINED
        assert all(np.isfinite(o.score) for o in outcomes)

    def test_fallback_threshold_reported(self, runtime):
        _detector(runtime).fail = True
        for row in _history(seed=2)[:10]:
            outcome = runtime.update("svc", row)
        fallback = runtime._fallbacks["svc"]
        assert outcome.threshold == fallback.threshold

    def test_probes_readmit_after_recovery(self, runtime):
        detector = _detector(runtime)
        detector.fail = True
        rows = _history(seed=4)
        for row in rows[:12]:
            runtime.update("svc", row)
        assert runtime.health("svc").state is HealthState.QUARANTINED
        detector.fail = False
        last = None
        for row in rows[12:80]:
            last = runtime.update("svc", row)
        assert runtime.health("svc").state is HealthState.HEALTHY
        assert not last.used_fallback

    def test_fleet_isolation(self):
        """One broken service must not affect its neighbour's path."""
        history_a, history_b = _history(seed=5), _history(seed=6)

        class HalfBroken(ScriptedDetector):
            live = False    # healthy during calibration, breaks after

            def score(self, service_id, series):
                if self.live and service_id == "bad":
                    raise RuntimeError("dead service")
                return super().score(service_id, series)

        detector = HalfBroken().fit(["good", "bad"],
                                    [history_a, history_b])
        runtime = ServingRuntime(detector, window=40, q=1e-2)
        runtime.start_service("good", history_a)
        runtime.start_service("bad", history_b)
        detector.live = True
        for row_a, row_b in zip(_history(seed=7)[:40], _history(seed=8)[:40]):
            good = runtime.update("good", row_a)
            bad = runtime.update("bad", row_b)
        assert good.health == "healthy" and not good.used_fallback
        assert bad.health == "quarantined" and bad.used_fallback


class TestSpectralFallback:
    def test_calibration_scores_below_threshold(self):
        history = _history(seed=9)
        scorer = SpectralFallbackScorer(window=40).fit(history)
        window = history[-40:]
        assert scorer.score(window) <= scorer.threshold * 1.01

    def test_spectral_shift_scores_higher(self):
        history = _history(seed=10)
        scorer = SpectralFallbackScorer(window=40).fit(history)
        normal = scorer.score(history[-40:])
        shifted = history[-40:].copy()
        t = np.arange(40)
        shifted[:, 0] = np.sin(2 * np.pi * t / 3)   # very different period
        assert scorer.score(shifted) > normal

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            SpectralFallbackScorer(window=40).score(np.zeros((40, 2)))

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            SpectralFallbackScorer(window=40).fit(np.zeros((60, 2)))


class TestServingTelemetry:
    """Latency histograms + health-transition counters/events."""

    def _fresh_runtime(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        history = _history()
        detector = ScriptedDetector().fit(["svc"], [history])
        runtime = ServingRuntime(
            detector, window=40, q=1e-2, registry=registry,
            breaker_config=BreakerConfig(failure_threshold=3,
                                         recovery_successes=2,
                                         probe_successes=1, base_backoff=4,
                                         max_backoff=32),
        )
        runtime.start_service("svc", history)
        return runtime, registry

    def test_every_update_lands_in_latency_histogram(self):
        runtime, registry = self._fresh_runtime()
        for row in _history(seed=1)[:25]:
            runtime.update("svc", row)
        histogram = registry.get("serving.update_seconds", service="svc")
        assert histogram.count == 25
        assert histogram.total > 0.0
        assert histogram.mean > 0.0
        assert 0.0 < histogram.quantile(0.5) <= histogram.quantile(0.99) \
            <= histogram.max
        health = runtime.health("svc")
        assert health.state is HealthState.HEALTHY
        assert health.transitions == []
        assert health.total_failures == 0

    def test_transition_counters_and_events(self):
        from repro.obs.events import EventLog, install_event_log

        runtime, registry = self._fresh_runtime()
        log = EventLog()
        previous = install_event_log(log)
        try:
            _detector(runtime).fail = True
            for row in _history(seed=2)[:10]:
                runtime.update("svc", row)
        finally:
            install_event_log(previous)
        assert runtime.health("svc").state is HealthState.QUARANTINED
        trips = registry.get("serving.breaker_trips", service="svc")
        assert trips is not None and trips.value >= 1
        transitions = registry.collect("serving.health_transitions")
        assert sum(c.value for c in transitions) == \
            len(runtime.health("svc").transitions)
        kinds = [e["kind"] for e in log.events()]
        assert "health_transition" in kinds
        assert "breaker_trip" in kinds
        trip = log.events("breaker_trip")[0]
        assert trip["service"] == "svc"
        assert trip["failures"] >= 3

    def test_health_states_default_shape_unchanged(self):
        runtime, _ = self._fresh_runtime()
        runtime.update("svc", _history(seed=3)[0])
        states = runtime.health_states()
        assert states == {"svc": HealthState.HEALTHY}

    def test_failed_update_still_counted(self):
        """The latency histogram records even quarantined/fallback paths."""
        runtime, registry = self._fresh_runtime()
        _detector(runtime).fail = True
        for row in _history(seed=5)[:12]:
            runtime.update("svc", row)
        histogram = registry.get("serving.update_seconds", service="svc")
        assert histogram.count == 12
