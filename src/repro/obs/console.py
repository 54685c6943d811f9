"""``repro obs top`` — a live ops console rendered from JSONL alone.

The gateway and the serving runtime leave their whole story in a run
directory: ``events.jsonl`` (health transitions, overload ladder),
``metrics.jsonl`` (queue gauges, latency histograms), ``spans.jsonl``
(traces).  This module re-reads those artifacts — through the same
torn-line-tolerant loaders the report uses, so a console pointed at a
*live* run directory mid-write never crashes — and renders the
one-screen view an operator actually wants:

* per-service health (latest transition wins),
* shard queue occupancy and queue-wait quantiles,
* the ack latency summary with its worst trace.

``render_top`` is a pure function of the directory contents (the clock
on screen is the *event* clock, i.e. the tick clock when the run
injected one), so ``repro obs top --once`` output is byte-identical for
identical artifacts — the property the golden CLI test pins.  Live mode
just re-renders on an interval with an ANSI home-and-clear prefix.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.obs.metrics import Gauge, Histogram
from repro.obs.report import RunTelemetry, load_run

__all__ = ["render_top", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"
# ``HealthState.HEALTHY.value``: ``health_transition`` events carry the
# enum values, and obs must not import the runtime it observes.
_HEALTHY = "healthy"


def render_top(directory: str | Path) -> str:
    """One snapshot of the ops console for a run directory."""
    telemetry = load_run(directory)
    sections = [
        _render_header(telemetry),
        _render_services(telemetry),
        _render_queues(telemetry),
        _render_acks(telemetry),
    ]
    body = "\n".join(section for section in sections if section)
    if body == sections[0]:
        body += "\n  (no service, queue, or ack telemetry yet)"
    return body


def run_top(directory: str | Path, *, once: bool = False,
            interval: float = 2.0, iterations: Optional[int] = None,
            printer: Callable[[str], None] = print) -> int:
    """Render the console; ``once`` prints a single snapshot (golden
    tests, scripts), otherwise refresh every ``interval`` seconds until
    interrupted (or ``iterations`` renders, for tests)."""
    if once:
        printer(render_top(directory))
        return 0
    rendered = 0
    try:
        while iterations is None or rendered < iterations:
            printer(_CLEAR + render_top(directory))
            rendered += 1
            if iterations is not None and rendered >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _render_header(telemetry: RunTelemetry) -> str:
    events = telemetry.fleet_events
    tick = max((event.get("ts", 0.0) for event in events), default=None)
    overload = "NORMAL"
    for event in events:
        if event.get("kind") == "overload_transition":
            overload = str(event.get("to_state", overload))
    draining = any(event.get("kind") == "drain_start" for event in events)
    drained = any(event.get("kind") == "drain_complete" for event in events)
    state = "drained" if drained else ("draining" if draining else "serving")
    line = "repro ops console"
    if tick is not None:
        line += f"  tick {_clock(tick)}"
    line += f"  overload {overload}  {state}"
    return line


def _render_services(telemetry: RunTelemetry) -> Optional[str]:
    latest: Dict[str, Tuple[int, str]] = {}
    for event in telemetry.fleet_events:
        if event.get("kind") != "health_transition":
            continue
        service = str(event.get("service", "?"))
        tick = int(event.get("tick", 0))
        latest[service] = (tick, str(event.get("to_state", "?")))
    services = set(latest)
    for metric in telemetry.metrics.collect("serving.update_seconds"):
        service = dict(metric.labels).get("service")
        if service:
            services.add(service)
    if not services:
        return None
    counts: Dict[str, int] = {}
    for service in services:
        state = latest.get(service, (0, _HEALTHY))[1]
        counts[state] = counts.get(state, 0) + 1
    summary = "  ".join(f"{state} {count}"
                        for state, count in sorted(counts.items()))
    lines = [f"services ({len(services)}): {summary}"]
    for service in sorted(services):
        tick, state = latest.get(service, (None, _HEALTHY))
        if state == _HEALTHY:
            continue                     # only the exceptions need lines
        lines.append(f"  {service:<14} {state:<12} since tick {tick}")
    return "\n".join(lines)


def _render_queues(telemetry: RunTelemetry) -> Optional[str]:
    depth: Dict[str, float] = {}
    for metric in telemetry.metrics.collect("gateway.queue_depth"):
        if isinstance(metric, Gauge):
            depth[dict(metric.labels).get("shard", "?")] = metric.value
    waits: Dict[str, Histogram] = {}
    for metric in telemetry.metrics.collect("gateway.queue_wait_seconds"):
        if isinstance(metric, Histogram) and metric.count:
            waits[dict(metric.labels).get("shard", "?")] = metric
    shards = sorted(set(depth) | set(waits))
    if not shards:
        return None
    lines = ["shard queues"]
    for shard in shards:
        line = f"  {shard:<6} depth {depth.get(shard, 0.0):>4.0f}"
        wait = waits.get(shard)
        if wait is not None:
            line += (f"   wait p50 {1e3 * wait.quantile(0.5):.2f} ms"
                     f" p99 {1e3 * wait.quantile(0.99):.2f} ms")
        lines.append(line)
    return "\n".join(lines)


def _render_acks(telemetry: RunTelemetry) -> Optional[str]:
    accepted = sum(metric.value for metric
                   in telemetry.metrics.collect("gateway.accepted"))
    ack = next((metric for metric
                in telemetry.metrics.collect("gateway.ack_seconds")
                if isinstance(metric, Histogram) and metric.count), None)
    if not accepted and ack is None:
        return None
    line = f"acks: accepted {int(accepted)}"
    duplicates = sum(metric.value for metric
                     in telemetry.metrics.collect("gateway.duplicates"))
    rejected = sum(metric.value for metric
                   in telemetry.metrics.collect("gateway.rejected"))
    line += f"  duplicates {int(duplicates)}  rejected {int(rejected)}"
    if ack is not None:
        line += (f"  p50 {1e3 * ack.quantile(0.5):.2f} ms"
                 f" p99 {1e3 * ack.quantile(0.99):.2f} ms")
        worst = ack.worst_exemplar()
        if worst is not None:
            line += f"  worst trace {worst['trace_id']}"
    return line


def _clock(value: object) -> str:
    """Ticks render as integers; wall-clock floats keep one decimal."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return str(value)
    if number == int(number):
        return str(int(number))
    return f"{number:.1f}"
