"""Render a human-readable telemetry report from a run directory.

``repro obs report --dir RUN`` reconstructs what a run did from the
JSONL artifacts alone — the orchestrator's ``events.jsonl``, each group's
``events.jsonl`` / ``metrics.jsonl`` / ``spans.jsonl`` and ``result.json``
— and renders four sections:

* **fleet attempts** — per group: attempt outcomes, retries, rewinds,
  terminal status (the fault-tolerance story of PRs 2–4, now auditable
  offline);
* **epoch timeline** — per group and epoch: loss, gradient norm, wall
  seconds and non-finite-batch skips;
* **phase breakdown** — aggregated spans: where wall time went
  (``fit/epoch/batch`` and friends);
* **serving gateway** — ack/duplicate/rejection counters with the ack
  latency quantiles, per-shard WAL/spawn/failover/replay counts, and
  the overload-ladder transitions, from a gateway run directory.

The same renderer accepts a *flat* run directory (one process writing
``events.jsonl`` + ``metrics.jsonl`` + ``spans.jsonl`` at top level):
sections simply omit what the directory does not contain.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.events import read_events
from repro.obs.propagate import render_trace_tree
from repro.obs.tracing import aggregate_spans

__all__ = ["RunTelemetry", "load_run", "render_report"]


class RunTelemetry:
    """Everything the report renderer needs, loaded from JSONL."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.fleet_events: List[dict] = []
        self.group_events: Dict[str, List[dict]] = {}
        self.group_results: Dict[str, dict] = {}
        self.metrics = MetricsRegistry()
        self.spans: List[dict] = []

    @property
    def groups(self) -> List[str]:
        names = set(self.group_events) | set(self.group_results)
        return sorted(names)


def load_run(directory: str | Path) -> RunTelemetry:
    """Load every telemetry artifact under a run directory."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"run directory does not exist: {root}")
    telemetry = RunTelemetry(root)
    _load_flat(root, telemetry, group=None)
    for child in sorted(root.iterdir()):
        if child.is_dir() and _looks_like_group(child):
            _load_flat(child, telemetry, group=child.name)
    return telemetry


def _looks_like_group(directory: Path) -> bool:
    return any((directory / name).is_file()
               for name in ("result.json", "events.jsonl", "metrics.jsonl",
                            "spans.jsonl"))


def _load_flat(directory: Path, telemetry: RunTelemetry,
               group: Optional[str]) -> None:
    events_path = directory / "events.jsonl"
    if events_path.is_file():
        records = list(read_events(events_path))
        if group is None:
            telemetry.fleet_events = records
        else:
            telemetry.group_events[group] = records
    metrics_path = directory / "metrics.jsonl"
    if metrics_path.is_file():
        # read_events skips torn lines: a crash mid-dump tears at most
        # the final line, and the report must still render.
        snapshots = [record for record in read_events(metrics_path)
                     if isinstance(record, dict)]
        telemetry.metrics.merge(MetricsRegistry.from_snapshot(snapshots))
    spans_path = directory / "spans.jsonl"
    if spans_path.is_file():
        telemetry.spans.extend(record for record in read_events(spans_path)
                               if isinstance(record, dict))
    result_path = directory / "result.json"
    if group is not None and result_path.is_file():
        try:
            telemetry.group_results[group] = json.loads(
                result_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_report(directory: str | Path) -> str:
    """The full ``repro obs report`` text for one run directory."""
    telemetry = load_run(directory)
    sections = []
    for renderer in (_render_attempts, _render_epochs, _render_phases,
                     _render_gateway, _render_exemplars):
        text = renderer(telemetry)
        if text:
            sections.append(text)
    if not sections:
        return (f"no telemetry artifacts under {telemetry.directory} "
                "(expected events.jsonl / metrics.jsonl / spans.jsonl)")
    return "\n\n".join(sections)


def _format_table(headers, rows, title):
    # Imported lazily: repro.eval pulls in repro.obs (via profiling), so a
    # module-level import here would be circular.
    from repro.eval.reporting import format_table

    return format_table(headers, rows, title=title)


def _render_attempts(telemetry: RunTelemetry) -> Optional[str]:
    ends = [e for e in telemetry.fleet_events
            if e.get("kind") == "attempt_end"]
    if not ends and not telemetry.group_results:
        return None
    by_group: Dict[str, List[dict]] = {}
    for event in ends:
        by_group.setdefault(str(event.get("group")), []).append(event)
    retries: Dict[str, int] = {}
    for event in telemetry.fleet_events:
        if event.get("kind") == "retry":
            group = str(event.get("group"))
            retries[group] = retries.get(group, 0) + 1
    terminal: Dict[str, str] = {}
    for event in telemetry.fleet_events:
        if event.get("kind") == "group_done":
            terminal[str(event.get("group"))] = "done"
        elif event.get("kind") == "group_failed":
            terminal[str(event.get("group"))] = "failed"
    groups = sorted(set(by_group) | set(telemetry.group_results))
    rows = []
    for group in groups:
        events = by_group.get(group, [])
        outcomes = "->".join(str(e.get("outcome", "?")) for e in events) or "-"
        seconds = sum(float(e.get("seconds", 0.0)) for e in events)
        result = telemetry.group_results.get(group, {})
        rows.append((
            group,
            len(events),
            outcomes,
            retries.get(group, 0),
            result.get("rewinds", 0),
            result.get("nonfinite_batches", 0),
            terminal.get(group) or result.get("status", "?"),
            f"{seconds:.2f}",
        ))
    if not rows:
        return None
    return _format_table(
        ("group", "attempts", "outcomes", "retries", "rewinds",
         "nonfinite", "status", "seconds"),
        rows, title="fleet attempts")


def _render_epochs(telemetry: RunTelemetry) -> Optional[str]:
    rows = []
    sources = list(telemetry.group_events.items())
    if telemetry.fleet_events and not sources:
        sources = [("-", telemetry.fleet_events)]
    for group, events in sources:
        for event in events:
            if event.get("kind") != "epoch":
                continue
            loss = event.get("loss")
            norm = event.get("grad_norm")
            rows.append((
                group, event.get("epoch"),
                f"{loss:.6f}" if isinstance(loss, float) else loss,
                f"{norm:.4f}" if isinstance(norm, float) else norm,
                f"{float(event.get('seconds', 0.0)):.3f}",
                event.get("nonfinite", 0),
            ))
    if not rows:
        return None
    return _format_table(
        ("group", "epoch", "loss", "grad norm", "seconds", "nonfinite"),
        rows, title="epoch timeline")


def _render_phases(telemetry: RunTelemetry) -> Optional[str]:
    if not telemetry.spans:
        return None
    totals = aggregate_spans(telemetry.spans)
    ordered = sorted(totals.items(),
                     key=lambda item: item[1]["seconds"], reverse=True)
    rows = []
    for path, entry in ordered:
        mean_ms = 1e3 * entry["seconds"] / max(entry["count"], 1)
        rows.append((path, entry["count"], f"{entry['seconds']:.3f}",
                     f"{mean_ms:.3f}"))
    return _format_table(
        ("phase", "count", "total s", "mean ms"),
        rows, title="phase breakdown (spans)")


# ----------------------------------------------------------------------
# Serving gateway (repro.runtime.gateway)
# ----------------------------------------------------------------------
_GATEWAY_KINDS = frozenset({
    "worker_spawn", "worker_ready", "worker_failover", "wal_replay",
    "overload_transition", "tenant_shed", "drain_start", "drain_complete",
})


def _gateway_events(telemetry: RunTelemetry) -> List[dict]:
    events = [e for e in telemetry.fleet_events
              if e.get("kind") in _GATEWAY_KINDS]
    for group_events in telemetry.group_events.values():
        events.extend(e for e in group_events
                      if e.get("kind") in _GATEWAY_KINDS)
    return sorted(events, key=lambda e: e.get("seq", 0))


def _counter_total(telemetry: RunTelemetry, name: str) -> int:
    return int(sum(metric.value
                   for metric in telemetry.metrics.collect(name)))


def _counter_by_label(telemetry: RunTelemetry, name: str,
                      label: str) -> Dict[str, int]:
    grouped: Dict[str, int] = {}
    for metric in telemetry.metrics.collect(name):
        key = dict(metric.labels).get(label, "?")
        grouped[key] = grouped.get(key, 0) + int(metric.value)
    return grouped


def _render_gateway(telemetry: RunTelemetry) -> Optional[str]:
    """Serving-gateway section: ack/rejection counters, per-shard
    failover story, and the overload-ladder timeline — reconstructed
    from ``events.jsonl`` + ``metrics.jsonl`` alone."""
    events = _gateway_events(telemetry)
    accepted = _counter_total(telemetry, "gateway.accepted")
    if not events and not accepted:
        return None
    lines = ["serving gateway"]
    rejected = _counter_by_label(telemetry, "gateway.rejected", "reason")
    ack = next((m for m in telemetry.metrics.collect("gateway.ack_seconds")
                if isinstance(m, Histogram) and m.count), None)
    summary = (f"  accepted {accepted}  "
               f"duplicates {_counter_total(telemetry, 'gateway.duplicates')}"
               f"  rejected {sum(rejected.values())}")
    if rejected:
        mix = ", ".join(f"{reason}={count}" for reason, count
                        in sorted(rejected.items()))
        summary += f" ({mix})"
    degraded = _counter_total(telemetry, "gateway.degraded_accepts")
    if degraded:
        summary += f"  degraded {degraded}"
    if ack is not None:
        summary += (f"  ack p50 {1e3 * ack.quantile(0.5):.2f} ms "
                    f"p99 {1e3 * ack.quantile(0.99):.2f} ms")
    lines.append(summary)

    shards: Dict[str, dict] = {}
    for shard_id, count in _counter_by_label(
            telemetry, "gateway.wal_appends", "shard").items():
        shards.setdefault(shard_id, {})["wal"] = count
    for shard_id, count in _counter_by_label(
            telemetry, "gateway.failovers", "shard").items():
        shards.setdefault(shard_id, {})["failovers"] = count
    for shard_id, count in _counter_by_label(
            telemetry, "gateway.replayed_records", "shard").items():
        shards.setdefault(shard_id, {})["replayed"] = count
    for event in events:
        shard_id = event.get("shard")
        if shard_id is None:
            continue
        entry = shards.setdefault(str(shard_id), {})
        if event["kind"] == "worker_spawn":
            entry["spawns"] = entry.get("spawns", 0) + 1
    if shards:
        rows = [(shard_id,
                 entry.get("wal", 0), entry.get("spawns", 0),
                 entry.get("failovers", 0), entry.get("replayed", 0))
                for shard_id, entry in sorted(shards.items())]
        table = _format_table(
            ("shard", "wal records", "spawns", "failovers",
             "replayed"),
            rows, title="gateway shards")
        lines.append(table)

    ladder = [e for e in events if e["kind"] == "overload_transition"]
    for event in ladder[-10:]:
        lines.append(f"  ladder {event.get('from_state')} -> "
                     f"{event.get('to_state')} "
                     f"(occupancy {event.get('occupancy', 0.0):.2f})")
    shed = [e for e in events if e["kind"] == "tenant_shed"]
    if shed:
        lines.append(f"  tenant sheds: {len(shed)}")
    drained = any(e["kind"] == "drain_complete" for e in events)
    if drained:
        lines.append("  drained cleanly")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Exemplars (distributed tracing)
# ----------------------------------------------------------------------
def _render_exemplars(telemetry: RunTelemetry) -> Optional[str]:
    """Exemplar section: for every histogram that carried trace
    exemplars, the worst-bucket trace id — then the full trace tree of
    the worst ack, the "p99 regressed, here is the request" jump."""
    histograms = []
    for metric in telemetry.metrics:
        if isinstance(metric, Histogram) and metric.exemplars:
            histograms.append(metric)
    if not histograms:
        return None
    histograms.sort(key=lambda m: (m.name, m.labels))
    rows = []
    drill = None                     # (series label, exemplar dict)
    for metric in histograms:
        labels = dict(metric.labels)
        rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        series = metric.name + (f"{{{rendered}}}" if rendered else "")
        worst = metric.worst_exemplar()
        rows.append((
            series,
            f"{1e3 * metric.quantile(0.99):.3f}",
            f"{1e3 * worst['value']:.3f}",
            worst["trace_id"],
        ))
        if drill is None or metric.name == "gateway.ack_seconds":
            if drill is None or drill[0] != "gateway.ack_seconds":
                drill = (metric.name, worst)
    lines = [_format_table(
        ("histogram", "p99 ms", "worst ms", "trace"),
        rows, title="latency exemplars")]
    if drill is not None and telemetry.spans:
        lines.append(f"worst {drill[0]} trace:")
        lines.append(render_trace_tree(telemetry.spans,
                                       drill[1]["trace_id"]))
    return "\n".join(lines)

