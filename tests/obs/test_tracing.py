"""Span tracing: disabled path, nesting, export, aggregation."""

import json

import pytest

from repro.obs.tracing import (
    aggregate_spans,
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    disable_tracing()
    yield
    disable_tracing()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not tracing_enabled()
        assert current_tracer() is None

    def test_disabled_span_is_shared_singleton(self):
        first = span("a")
        second = span("b", key="value")
        assert first is second  # no allocation on the disabled path

    def test_disabled_span_is_a_noop_context(self):
        with span("anything", epoch=3):
            pass  # must not raise, must not record


class TestRecording:
    def test_nested_paths(self):
        enable_tracing()
        with span("fit"):
            with span("epoch", index=0):
                with span("batch"):
                    pass
            with span("epoch", index=1):
                pass
        tracer = disable_tracing()
        paths = [record.path for record in tracer.spans]
        assert paths == ["fit/epoch/batch", "fit/epoch", "fit/epoch", "fit"]
        depths = {record.path: record.depth for record in tracer.spans}
        assert depths["fit"] == 0
        assert depths["fit/epoch/batch"] == 2

    def test_span_times_are_positive_and_nested_leq_parent(self):
        enable_tracing()
        with span("outer"):
            with span("inner"):
                sum(range(10000))
        tracer = disable_tracing()
        by_path = {record.path: record for record in tracer.spans}
        assert by_path["outer/inner"].seconds >= 0.0
        assert by_path["outer"].seconds >= by_path["outer/inner"].seconds

    def test_attrs_recorded(self):
        enable_tracing()
        with span("epoch", index=3, loss=0.5):
            pass
        tracer = disable_tracing()
        assert tracer.spans[0].attrs == {"index": 3, "loss": 0.5}

    def test_exception_still_closes_span(self):
        enable_tracing()
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        tracer = disable_tracing()
        assert [record.path for record in tracer.spans] == ["boom"]

    def test_jsonl_roundtrip(self):
        enable_tracing()
        with span("fit", dataset="smd"):
            with span("epoch"):
                pass
        tracer = disable_tracing()
        lines = tracer.to_jsonl().strip().splitlines()
        decoded = [json.loads(line) for line in lines]
        assert {d["path"] for d in decoded} == {"fit", "fit/epoch"}
        for d in decoded:
            assert set(d) >= {"name", "path", "depth", "start", "seconds"}


class TestAggregate:
    def test_aggregate_spans_totals(self):
        enable_tracing()
        for _ in range(3):
            with span("epoch"):
                with span("batch"):
                    pass
        tracer = disable_tracing()
        totals = aggregate_spans(tracer.spans)
        assert totals["epoch"]["count"] == 3
        assert totals["epoch/batch"]["count"] == 3
        assert totals["epoch"]["seconds"] >= totals["epoch/batch"]["seconds"]

