"""Metrics registry: P² accuracy, merge associativity, stable exports."""

import json

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    get_registry,
    install_registry,
)


# ----------------------------------------------------------------------
# P² streaming quantiles
# ----------------------------------------------------------------------
class TestP2Quantile:
    def test_exact_below_five_observations(self):
        estimator = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            estimator.observe(value)
        assert estimator.value() == 3.0

    def test_empty_is_nan(self):
        assert np.isnan(P2Quantile(0.9).value())

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tracks_exact_quantile_on_gaussian(self, q, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(10.0, 2.0, size=5000)
        estimator = P2Quantile(q)
        for value in values:
            estimator.observe(value)
        exact = np.quantile(values, q)
        # P² error on a smooth unimodal stream is a small fraction of
        # the distribution's scale.
        assert abs(estimator.value() - exact) < 0.25

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_tracks_exact_quantile_on_lognormal(self, q):
        rng = np.random.default_rng(7)
        values = rng.lognormal(0.0, 1.0, size=5000)
        estimator = P2Quantile(q)
        for value in values:
            estimator.observe(value)
        exact = np.quantile(values, q)
        assert abs(estimator.value() - exact) < 0.15 * max(exact, 1.0)

    def test_deterministic_under_fixed_order(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(size=1000)
        first, second = P2Quantile(0.9), P2Quantile(0.9)
        for value in values:
            first.observe(value)
        for value in values:
            second.observe(value)
        assert first.value() == second.value()

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_monotonic(self):
        counter = Counter("events")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_counter_merge_adds(self):
        a, b = Counter("events"), Counter("events")
        a.inc(2)
        b.inc(3)
        a.merge(b)
        assert a.value == 5.0

    def test_gauge_last_writer_wins(self):
        a, b = Gauge("lr"), Gauge("lr")
        a.set(0.1)
        b.set(0.05)
        a.merge(b)
        assert a.value == 0.05


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def _histogram_from(values, name="h"):
    histogram = Histogram(name)
    for value in values:
        histogram.observe(value)
    return histogram


class TestHistogram:
    def test_moments(self):
        histogram = _histogram_from([1.0, 2.0, 3.0, 4.0])
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.mean == 2.5

    def test_quantile_uses_p2_before_merge(self):
        rng = np.random.default_rng(11)
        values = rng.normal(5.0, 1.0, size=2000)
        histogram = _histogram_from(values)
        assert abs(histogram.quantile(0.5) - np.quantile(values, 0.5)) < 0.2

    def test_merge_associativity(self):
        """(a ⊔ b) ⊔ c and a ⊔ (b ⊔ c) snapshot identically."""
        rng = np.random.default_rng(4)
        streams = [rng.exponential(0.01, size=500) for _ in range(3)]

        def build(index):
            return _histogram_from(streams[index])

        left = build(0)
        left.merge(build(1))
        left.merge(build(2))

        right_tail = build(1)
        right_tail.merge(build(2))
        right = build(0)
        right.merge(right_tail)

        left_snap, right_snap = left.snapshot(), right.snapshot()
        # Float addition reorders across groupings; everything else —
        # buckets, counts, extrema, bucket-derived quantiles — is exact.
        assert left_snap.pop("sum") == pytest.approx(right_snap.pop("sum"))
        assert left_snap == right_snap

    def test_merge_quantile_falls_back_to_buckets(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(0.01, size=2000)
        merged = _histogram_from(values[:1000])
        merged.merge(_histogram_from(values[1000:]))
        estimate = merged.quantile(0.5)
        exact = np.quantile(values, 0.5)
        # Bucket interpolation on the 1-2.5-5 grid: coarse but bounded
        # by the enclosing bucket (edges at ratio 2.5 worst case).
        assert exact / 3.0 < estimate < exact * 3.0

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_quantile_is_nan(self):
        assert np.isnan(Histogram("h").quantile(0.5))


class TestExemplars:
    def test_worst_observation_per_bucket_wins(self):
        histogram = Histogram("h")
        histogram.observe(0.004, exemplar="trace-a")
        histogram.observe(0.0045, exemplar="trace-b")   # same bucket, worse
        histogram.observe(0.0041, exemplar="trace-c")   # same bucket, better
        histogram.observe(0.4, exemplar="trace-d")      # far bucket
        assert len(histogram.exemplars) == 2
        assert histogram.worst_exemplar() == {"value": 0.4,
                                              "trace_id": "trace-d"}

    def test_unexemplared_observations_leave_no_trace(self):
        histogram = Histogram("h")
        histogram.observe(0.004)
        assert histogram.exemplars == {}
        assert histogram.worst_exemplar() is None
        assert "exemplars" not in histogram.snapshot()  # old output shape

    def test_snapshot_round_trip(self):
        histogram = Histogram("h")
        histogram.observe(0.004, exemplar="trace-a")
        histogram.observe(0.4, exemplar="trace-d")
        restored = MetricsRegistry.from_jsonl(
            json.dumps(histogram.snapshot()))
        series = restored.collect("h")[0]
        assert series.worst_exemplar() == {"value": 0.4,
                                           "trace_id": "trace-d"}
        assert series.exemplars == histogram.exemplars

    def test_merge_keeps_per_bucket_worst(self):
        a, b = Histogram("h"), Histogram("h")
        a.observe(0.004, exemplar="trace-a")
        b.observe(0.0045, exemplar="trace-b")           # same bucket, worse
        b.observe(0.4, exemplar="trace-d")
        a.merge(b)
        buckets = sorted(a.exemplars)
        assert [a.exemplars[bucket]["trace_id"] for bucket in buckets] == \
            ["trace-b", "trace-d"]
        # Merge the other way: same verdict (associative surface).
        c = Histogram("h")
        c.observe(0.004, exemplar="trace-a")
        b.merge(c)
        assert b.exemplars == a.exemplars


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", service="svc-1")
        b = registry.counter("hits", service="svc-1")
        c = registry.counter("hits", service="svc-2")
        assert a is b
        assert a is not c
        assert len(registry) == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_collect_by_name(self):
        registry = MetricsRegistry()
        registry.histogram("lat", op="a")
        registry.histogram("lat", op="b")
        registry.counter("other")
        assert len(registry.collect("lat")) == 2

    def test_jsonl_bitwise_stable_under_fixed_seed(self):
        def build():
            registry = MetricsRegistry()
            rng = np.random.default_rng(42)
            histogram = registry.histogram("trainer.epoch_seconds")
            for value in rng.exponential(0.5, size=200):
                histogram.observe(value)
            registry.counter("trainer.batches").inc(200)
            registry.gauge("trainer.lr").set(1e-3)
            return registry.to_jsonl()

        assert build() == build()

    def test_jsonl_roundtrip_preserves_merged_view(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", service="s")
        for value in (0.01, 0.02, 0.4):
            histogram.observe(value)
        registry.counter("hits").inc(3)
        restored = MetricsRegistry.from_jsonl(registry.to_jsonl())
        hist2 = restored.get("lat", service="s")
        assert hist2.count == 3
        assert hist2.total == pytest.approx(0.43)
        assert hist2.bucket_counts == histogram.bucket_counts
        assert restored.get("hits").value == 3.0

    def test_merge_snapshot_matches_direct_merge(self):
        """The result.json handoff (snapshot) merges like live registries."""
        def worker(seed):
            registry = MetricsRegistry()
            rng = np.random.default_rng(seed)
            histogram = registry.histogram("op_seconds", op="mul")
            for value in rng.exponential(0.001, size=300):
                histogram.observe(value)
            registry.counter("batches").inc(300)
            return registry

        direct = MetricsRegistry()
        direct.merge(worker(1))
        direct.merge(worker(2))

        via_snapshot = MetricsRegistry()
        via_snapshot.merge_snapshot(worker(1).snapshot())
        via_snapshot.merge_snapshot(worker(2).snapshot())

        assert direct.to_jsonl() == via_snapshot.to_jsonl()

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        registry.counter("c").inc()
        json.dumps(registry.snapshot())

    def test_install_registry_swaps_and_restores(self):
        fresh = MetricsRegistry()
        previous = install_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            install_registry(previous)
        assert get_registry() is previous
