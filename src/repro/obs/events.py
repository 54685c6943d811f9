"""Append-only structured event log (schema-versioned JSONL).

Where :mod:`repro.obs.metrics` answers "how much / how fast", the event
log answers "what happened, in what order": health-state transitions,
circuit-breaker trips, checkpoint saves and divergence rewinds, fleet
retries, and non-finite-batch skips all become one JSON object per line.
``repro obs report`` reconstructs a run's story from these files alone —
no pickles, no in-process state.

Every record carries::

    {"schema": 1, "seq": <monotonic per log>, "ts": <unix seconds>,
     "kind": "<event kind>", ...payload fields...}

``schema`` is bumped on any backwards-incompatible change so old run
directories stay readable.  Writes are line-buffered appends; a crash can
at worst tear the final line, which :func:`read_events` skips (the same
torn-write stance as the orchestrator's ``result.json``).

A process has one *installed* event log (an in-memory ring by default);
instrumented code calls the module-level :func:`emit` so library layers
never need plumbing.  Workers that should persist their story install a
file-backed log::

    with EventLog(run_dir / "events.jsonl") as log:
        previous = install_event_log(log)
        try:
            ...train...
        finally:
            install_event_log(previous)
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Callable, Iterator, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "EventLog",
    "emit",
    "get_event_log",
    "install_event_log",
    "read_events",
]

SCHEMA_VERSION = 1

# The catalogue of event kinds the shipped instrumentation emits.  The
# log accepts any kind string (forward compatibility), but sticking to
# the catalogue keeps `repro obs report` able to tell the whole story.
EVENT_KINDS = frozenset({
    "health_transition",     # service, from_state, to_state, tick,
    #                        # ticks_in_state, transition_count,
    #                        # last_transition_tick
    "breaker_trip",          # service, failures
    "checkpoint_save",       # path, epoch
    "checkpoint_rewind",     # epoch, rewound_to, reason, loss, lr
    "nonfinite_batch",       # epoch, batch
    "epoch",                 # epoch, loss, grad_norm, seconds, nonfinite
    "attempt_start",         # group, attempt
    "attempt_end",           # group, attempt, outcome, seconds, exitcode
    "retry",                 # group, attempt, backoff_seconds
    "group_done",            # group, epochs, final_loss, rewinds
    "group_failed",          # group, error
    # Serving gateway (repro.runtime.gateway)
    "worker_spawn",          # shard, respawns, slow_start
    "worker_ready",          # shard, applied
    "worker_failover",       # shard, reason, respawns
    "wal_replay",            # shard, records, wal_records
    "overload_transition",   # from_state, to_state, occupancy
    "tenant_shed",           # tenant, service
    "drain_start",           # pending
    "drain_complete",        # shards
})


class EventLog:
    """Sequence-numbered JSONL event sink (file-backed or in-memory).

    Keeps the last ``keep`` records in memory for assertions and for the
    in-process default log; when ``path`` is given every record is also
    appended (and flushed) to the file.
    """

    def __init__(self, path: Optional[str | Path] = None, *,
                 keep: int = 4096, clock: Callable[[], float] = time.time):  # effects: ok TIME reason=wall-clock is the default timestamp; tests inject a virtual clock
        self.path = Path(path) if path is not None else None
        self.tail: deque = deque(maxlen=keep)
        self._clock = clock
        self._seq = 0
        self._file = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")

    def emit(self, kind: str, **fields: object) -> dict:
        """Append one event; returns the record written."""
        record = {"schema": SCHEMA_VERSION, "seq": self._seq,
                  "ts": self._clock(), "kind": str(kind)}  # effects: ok TIME reason=event timestamps are telemetry, never model input
        self._seq += 1
        for key, value in fields.items():
            record[key] = _jsonable(value)
        self.tail.append(record)
        if self._file is not None:
            self._file.write(json.dumps(record, sort_keys=True) + "\n")
            self._file.flush()
        return record

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """In-memory tail, optionally filtered by kind."""
        if kind is None:
            return list(self.tail)
        return [record for record in self.tail if record["kind"] == kind]

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _jsonable(value: object) -> object:
    """Coerce a payload value to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Path):
        return str(value)
    # numpy scalars, enums, everything else: prefer a numeric value,
    # fall back to the string form.
    for caster in (float, str):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return repr(value)


_LOG = EventLog()


def get_event_log() -> EventLog:
    """The process-wide event log instrumented code emits into."""
    return _LOG


def install_event_log(log: EventLog) -> EventLog:
    """Swap the installed event log; returns the previous one."""
    global _LOG
    previous = _LOG  # effects: ok FORK_GLOBAL reason=swap point by design; workers install their own log on entry
    _LOG = log
    return previous


def emit(kind: str, **fields: object) -> dict:
    """Emit one event into the currently installed log."""
    return _LOG.emit(kind, **fields)  # effects: ok FORK_GLOBAL reason=swap point by design; workers install their own log on entry


def read_events(path: str | Path,
                kind: Optional[str] = None) -> Iterator[dict]:
    """Stream records back from a JSONL event file.

    Blank and torn (undecodable) lines are skipped: an append-only log
    written through a crash is still readable up to the tear.  With no
    ``kind`` every record is yielded, which makes this the one JSONL
    reader of :mod:`repro.obs` (spans and metrics snapshots use it too).
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if kind is None or record.get("kind") == kind:
                yield record
