"""Shard worker process: one ServingRuntime behind a command pipe.

Each gateway shard runs this entry point in a child process.  The worker
owns the authoritative streaming state for every service hashed onto its
shard; the parent talks to it over a duplex pipe with a tiny
stop-and-wait command protocol:

``{"op": "update", ...}``
    Apply one point update (``service``, ``sequence``, ``observation``,
    ``degraded``) through
    :meth:`~repro.runtime.serving.ServingRuntime.update` and reply with
    an ``ack`` carrying the scoring outcome.  The sequence number makes
    re-delivery (the parent's retransmit after an ack timeout, or a WAL
    replay overlapping a snapshot) a no-op.  Commands carrying a
    trace context get a ``worker.update`` span recorded (and flushed) to
    the shard's ``spans.jsonl`` *before* the ack is sent, parented under
    the gateway's submit span — which is what keeps every acked update's
    cross-process trace tree complete through kills and replays.
``{"op": "snapshot"}``
    Write the serving-state snapshot (buffers + SPOT + sequence
    high-water) atomically and acknowledge.
``{"op": "state"}``
    Reply with the full serving state dict — the chaos suite's bitwise
    verification surface.
``{"op": "stop"}``
    Snapshot, reply ``bye``, exit cleanly.

On spawn the worker rebuilds deterministically: calibrate every service
from its (identical every run) history, then overlay the last snapshot
if one exists.  The parent finishes the job by replaying WAL records
newer than the snapshot's high-water marks, so *snapshot + replay* is
bitwise the state of an uninterrupted run.

Fault hooks mirror the training orchestrator's: ``slow_start`` stalls
the worker before it signals readiness (exercising spawn timeouts and
queue backpressure during warm-up) and ``die_after_applies`` hard-exits
with :data:`KILLED_EXIT_CODE` after N applied updates — *after* applying
but *before* acknowledging, the nastiest window the ack protocol has.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.obs.events import EventLog, install_event_log
from repro.obs.metrics import MetricsRegistry, install_registry
from repro.obs.propagate import TraceContext, TraceLog
from repro.runtime.checkpoint import (
    CheckpointError,
    load_streaming_state,
    save_streaming_state,
)
from repro.runtime.serving import ServingRuntime
from repro.runtime.supervision import KILLED_EXIT_CODE

__all__ = ["KILLED_EXIT_CODE", "run_shard_worker"]

_POLL_SECONDS = 0.05


def _build_runtime(payload: dict) -> ServingRuntime:
    runtime = ServingRuntime(payload["detector"], window=payload["window"])
    # Sorted start order keeps calibration deterministic regardless of
    # how the parent happened to order the shard's service dict.
    for service_id in sorted(payload["services"]):
        history = np.asarray(payload["services"][service_id], dtype=float)
        runtime.start_service(service_id, history)
    snapshot_path = payload.get("snapshot_path")
    if snapshot_path and os.path.exists(snapshot_path):
        try:
            load_streaming_state(runtime, snapshot_path)
        except CheckpointError:
            # A torn/corrupt snapshot is recoverable: fall back to the
            # calibrated baseline and let the parent replay the full WAL.
            pass
    return runtime


def run_shard_worker(payload: dict, conn) -> None:
    """Child-process entry: serve one shard over ``conn`` until stopped."""
    # Fresh per-process telemetry: the forked copies of the parent's
    # registry/event log must not silently absorb worker-side signals.
    install_registry(MetricsRegistry())
    install_event_log(EventLog())

    slow_start = float(payload.get("slow_start") or 0.0)
    if slow_start > 0.0:
        time.sleep(slow_start)

    runtime = _build_runtime(payload)
    snapshot_path = payload.get("snapshot_path")
    snapshot_every = int(payload.get("snapshot_every") or 0)
    die_after = payload.get("die_after_applies")
    applies = 0
    # Cross-process span sink: one flushed line per applied update, so a
    # hard kill tears at most the final line.  The incarnation qualifies
    # every span id — each respawn derives fresh, deterministic ids even
    # when it re-applies the same (service, sequence).
    traces = TraceLog(payload["trace_path"])
    incarnation = int(payload.get("incarnation") or 0)
    span_count = 0

    conn.send({
        "op": "hello",
        "applied": {service_id: runtime.applied_sequence(service_id)
                    for service_id in runtime.services()},
    })

    while True:
        if not conn.poll(_POLL_SECONDS):
            continue
        try:
            command = conn.recv()
        except EOFError:
            break                           # parent went away; die quietly
        op = command.get("op")
        if op == "update":
            context = TraceContext.from_wire(command.get("trace"))
            update_started = time.perf_counter()
            outcome = runtime.update(
                command["service"],
                np.asarray(command["observation"], dtype=float),
                sequence=int(command["sequence"]),
                force_fallback=bool(command.get("degraded", False)),
                trace_id=context.trace_id if context is not None else None,
            )
            update_seconds = time.perf_counter() - update_started
            if not outcome.duplicate:
                applies += 1
                if snapshot_path and snapshot_every \
                        and applies % snapshot_every == 0:
                    save_streaming_state(runtime, snapshot_path)
                if die_after is not None and applies >= int(die_after):
                    # Applied but never acknowledged: the parent must
                    # retransmit and the sequence check must absorb it.
                    os._exit(KILLED_EXIT_CODE)
            if context is not None:
                # Recorded (and flushed) before the ack leaves, so every
                # acknowledged update's trace tree is complete on disk
                # even if the very next instruction is a kill.
                span_count += 1
                child = context.child(
                    "worker.update", qualifier=f"{incarnation}:{span_count}")
                traces.record(
                    "worker.update", child, update_seconds,
                    parent_span_id=context.span_id, depth=1,
                    service=command["service"],
                    sequence=int(command["sequence"]),
                    shard=payload.get("shard"),
                    incarnation=incarnation,
                    replay=bool(command.get("replay", False)),
                    duplicate=outcome.duplicate,
                )
            conn.send({
                "op": "ack",
                "service": command["service"],
                "sequence": int(command["sequence"]),
                "score": outcome.score,
                "is_alert": outcome.is_alert,
                "ready": outcome.ready,
                "duplicate": outcome.duplicate,
                "used_fallback": outcome.used_fallback,
                "health": outcome.health,
            })
        elif op == "snapshot":
            if snapshot_path:
                save_streaming_state(runtime, snapshot_path)
            conn.send({"op": "snapshot_done"})
        elif op == "state":
            conn.send({"op": "state", "state": runtime.state_dict(),
                       "health": {service_id: state.value for service_id,
                                  state in runtime.health_states().items()}})
        elif op == "stop":
            if snapshot_path:
                save_streaming_state(runtime, snapshot_path)
            conn.send({"op": "bye", "applies": applies})
            break
        else:
            conn.send({"op": "error", "error": f"unknown op {op!r}"})
    traces.close()
    conn.close()
