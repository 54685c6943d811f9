"""Unified observability layer: metrics, tracing spans, structured events.

The paper's headline claim is *efficiency*; this package is how the
reproduction measures it from the inside (DESIGN.md §11):

``repro.obs.metrics``
    Dependency-free registry of counters, gauges and streaming histograms
    (quantiles from fixed log-spaced buckets), with bitwise-stable JSONL
    export and associative cross-process merge.
``repro.obs.tracing``
    Nested context-manager wall-time spans with a near-zero-cost
    disabled path, so call sites can live in hot loops permanently.
``repro.obs.events``
    Append-only schema-versioned JSONL event log: health transitions,
    breaker trips, checkpoint saves/rewinds, fleet retries,
    non-finite-batch skips.
``repro.obs.report``
    ``repro obs report`` — per-phase time breakdown, epoch timeline and
    fleet attempt tables from a run directory's JSONL artifacts alone.
``repro.obs.propagate``
    Cross-process trace propagation: the deterministic
    :class:`TraceContext` minted at gateway admission, the wire format
    that rides WAL frames and worker IPC, and the append-only
    ``spans.jsonl`` trace sink with offline tree assembly.
``repro.obs.console``
    ``repro obs top`` — the live ops console (service health, shard
    queues, ack latency) rendered from JSONL alone.

Everything is off-or-cheap by default: metrics always record (a few
float ops per event), tracing must be enabled explicitly, and the event
log is an in-memory ring until a file-backed log is installed.
"""

from repro.obs.events import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    EventLog,
    emit,
    get_event_log,
    install_event_log,
    read_events,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    install_registry,
)
from repro.obs.tracing import (
    SpanRecord,
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)
from repro.obs.propagate import (
    TraceContext,
    TraceLog,
    build_trace_tree,
    read_trace_spans,
    render_trace_tree,
    spans_by_trace,
)
from repro.obs.report import RunTelemetry, load_run, render_report
from repro.obs.console import render_top, run_top

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "DEFAULT_QUANTILES",
    "get_registry", "install_registry",
    "SpanRecord", "Tracer", "span", "enable_tracing", "disable_tracing",
    "tracing_enabled", "current_tracer",
    "EventLog", "EVENT_KINDS", "SCHEMA_VERSION", "emit", "get_event_log",
    "install_event_log", "read_events",
    "TraceContext", "TraceLog", "build_trace_tree", "read_trace_spans",
    "render_trace_tree", "spans_by_trace",
    "RunTelemetry", "load_run", "render_report",
    "render_top", "run_top",
]
