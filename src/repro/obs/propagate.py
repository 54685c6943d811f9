"""Cross-process trace propagation: contexts on the wire, spans on disk.

The in-process tracer (:mod:`repro.obs.tracing`) attributes time within
one process; a gateway submit crosses four boundaries — asyncio
dispatcher, WAL, shard queue, worker pipe — and the only way to explain
an ack's p99 after the fact is a trace that survives every hop.  This
module is the wire half of that story:

* :class:`TraceContext` — the compact context minted once at gateway
  admission: a trace id and the current span id (the parent for anything
  recorded downstream).  Both are a **deterministic** function of
  ``(seed, service, sequence)`` — BLAKE2b digests, not random draws — so
  a replayed WAL regenerates the very ids the original admission minted
  and chaos runs stay bitwise comparable.
* ``to_wire()`` / ``from_wire()`` — a plain JSON dict that rides the
  submit envelope, the WAL frame, the shard queue, and the worker IPC
  command.  ``from_wire`` tolerates ``None`` and unknown shapes, which is
  what keeps schema-1 WAL frames (pre-trace) replayable; it ignores the
  ``sampled`` flag older writers added, so their logs replay too.
* :class:`TraceLog` — an append-only ``spans.jsonl`` sink with the same
  torn-write stance as the event log: one flushed line per span, so a
  worker killed mid-ack leaves every *recorded* span readable.  Records
  are span dicts compatible with :func:`repro.obs.tracing.aggregate_spans`
  plus the trace fields (``trace_id`` / ``span_id`` / ``parent_span_id``).
* :func:`read_trace_spans` / :func:`build_trace_tree` — the offline half:
  stream spans back (skipping torn lines) and assemble one trace's spans
  into a parent-linked tree for rendering.

Every admitted update is traced: there is no sampling.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.obs.events import read_events

__all__ = [
    "WIRE_SCHEMA",
    "TraceContext",
    "TraceLog",
    "read_trace_spans",
    "build_trace_tree",
    "render_trace_tree",
    "spans_by_trace",
]

# Bumped on any backwards-incompatible change to the wire dict; readers
# ignore contexts from the future rather than misparse them.
WIRE_SCHEMA = 1


def _digest(material: str, nbytes: int) -> str:
    return hashlib.blake2b(material.encode("utf-8"),
                           digest_size=nbytes).hexdigest()


@dataclass(frozen=True)
class TraceContext:
    """One hop's view of a distributed trace (immutable, picklable)."""

    trace_id: str            # 16 hex chars, constant across the trace
    span_id: str             # 12 hex chars, the current span

    @classmethod
    def mint(cls, seed: int, service_id: str,
             sequence: int) -> "TraceContext":
        """Mint the root context for one admitted update.

        Deterministic: the same ``(seed, service, sequence)`` always
        yields the same ids, so a WAL replay re-derives exactly what the
        original admission minted.
        """
        trace_id = _digest(f"{seed}:{service_id}:{sequence}", 8)
        span_id = _digest(f"{trace_id}:gateway.submit", 6)
        return cls(trace_id=trace_id, span_id=span_id)

    def child(self, name: str, qualifier: str = "") -> "TraceContext":
        """Derive a child context: same trace, new span id.

        ``qualifier`` disambiguates repeats of the same logical child
        (worker incarnations, replay passes) without any shared counter.
        """
        span_id = _digest(f"{self.trace_id}:{self.span_id}:{name}:"
                          f"{qualifier}", 6)
        return TraceContext(trace_id=self.trace_id, span_id=span_id)

    # -- wire format ---------------------------------------------------
    def to_wire(self) -> dict:
        return {"schema": WIRE_SCHEMA, "trace_id": self.trace_id,
                "span_id": self.span_id}

    @classmethod
    def from_wire(cls, wire: object) -> Optional["TraceContext"]:
        """Decode a wire dict; ``None`` for absent/foreign/torn shapes.

        Schema-1 WAL frames predate tracing and simply have no context —
        replay of those frames proceeds untraced rather than failing.
        """
        if not isinstance(wire, dict):
            return None
        if wire.get("schema") != WIRE_SCHEMA:
            return None
        trace_id, span_id = wire.get("trace_id"), wire.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class TraceLog:
    """Append-only ``spans.jsonl`` sink for cross-process spans.

    Every :meth:`record` writes (and flushes) one sorted-key JSON line,
    so a crash tears at most the final line — which
    :func:`read_trace_spans` skips, the event log's exact stance.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    def record(self, name: str, context: TraceContext, seconds: float, *,
               parent_span_id: Optional[str] = None, depth: int = 0,
               **attrs: object) -> dict:
        """Append one completed span under ``context``; returns it.

        ``start`` is always 0.0: cross-process spans carry no wall-clock
        offset, only their duration.
        """
        span = {
            "name": name,
            "path": name,
            "depth": depth,
            "start": 0.0,
            "seconds": float(seconds),
            "trace_id": context.trace_id,
            "span_id": context.span_id,
        }
        if parent_span_id is not None:
            span["parent_span_id"] = parent_span_id
        if attrs:
            span["attrs"] = {key: _jsonable(value)
                             for key, value in attrs.items()}
        self._file.write(json.dumps(span, sort_keys=True) + "\n")
        self._file.flush()
        return span

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TraceLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def read_trace_spans(path: str | Path) -> Iterator[dict]:
    """Stream span dicts back from a ``spans.jsonl`` file.

    Blank and torn (undecodable) lines are skipped by the shared
    :func:`~repro.obs.events.read_events` reader, so a log written
    through a worker kill is readable up to the tear.
    """
    return read_events(path)


def build_trace_tree(spans: List[dict], trace_id: str) -> List[dict]:
    """Assemble one trace's spans into parent-linked root nodes.

    Each returned node is ``{"span": <span dict>, "children": [...]}``;
    spans whose ``parent_span_id`` is absent from the trace (the gateway
    root, or an orphan from a torn log) become roots.  Children keep
    file order, which is write order, which is causal order per file.
    """
    mine = [s for s in spans if s.get("trace_id") == trace_id]
    nodes = {s["span_id"]: {"span": s, "children": []}
             for s in mine if "span_id" in s}
    roots: List[dict] = []
    for span in mine:
        node = nodes.get(span.get("span_id"))
        if node is None:
            continue
        parent = nodes.get(span.get("parent_span_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots


def render_trace_tree(spans: List[dict], trace_id: str) -> str:
    """Indent-rendered trace tree (the ``obs report`` drill-down view)."""
    roots = build_trace_tree(spans, trace_id)
    if not roots:
        return f"  trace {trace_id}: no spans recorded"
    lines = [f"  trace {trace_id}"]

    def _walk(node: dict, indent: int) -> None:
        span = node["span"]
        attrs = span.get("attrs") or {}
        detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        lines.append(f"  {'  ' * indent}- {span.get('name', '?')} "
                     f"{1e3 * float(span.get('seconds', 0.0)):.3f} ms"
                     + (f"  [{detail}]" if detail else ""))
        for child in node["children"]:
            _walk(child, indent + 1)

    for root in roots:
        _walk(root, 1)
    return "\n".join(lines)


def spans_by_trace(spans: List[dict]) -> Dict[str, List[dict]]:
    """Group span dicts by trace id (untraced spans are dropped)."""
    grouped: Dict[str, List[dict]] = {}
    for span in spans:
        trace_id = span.get("trace_id")
        if isinstance(trace_id, str):
            grouped.setdefault(trace_id, []).append(span)
    return grouped
