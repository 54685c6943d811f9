"""The durable async serving gateway: WAL-backed sharded front door.

:class:`ServingGateway` is the fleet's single entry point for point
updates.  Service ids are consistent-hash-sharded onto a pool of scoring
worker processes (:mod:`repro.runtime.gateway.worker`), and every
accepted update is journalled to the shard's write-ahead log **before**
the submitter sees ``accepted`` — so the ack means *durable*, not merely
*enqueued*.  The rest of the machinery exists to keep that promise under
fire:

* **bounded queues, explicit backpressure** — each shard buffers at most
  ``queue_depth`` updates; a full queue rejects with ``retry_after``
  instead of buffering unboundedly.
* **admission control** — per-tenant token buckets and the fleet-wide
  overload ladder (:mod:`repro.runtime.gateway.admission`): shed the
  lowest-priority tenants first, degrade to the spectral fallback scorer
  next, refuse outright only at the top rung.
* **supervised workers, loss-free failover** — a worker that dies or
  stops acking is reaped (SIGTERM→SIGKILL), respawned with seeded
  exponential backoff, rebuilt from its last snapshot, and caught up by
  replaying the WAL; per-service sequence numbers make the replay (and
  the retransmit of the in-flight update) idempotent.  Chaos tests
  verify the recovered state bitwise against a fault-free run.
* **graceful drain** — shutdown stops admitting, drains every queue,
  snapshots and stops each worker.

Delivery to workers is stop-and-wait per shard: WAL order is admission
order is apply order, which is what makes recovery deterministic rather
than merely eventually-consistent.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.detector import AnomalyDetector
from repro.obs.events import EventLog
from repro.obs.metrics import get_registry
from repro.obs.propagate import TraceContext, TraceLog
from repro.runtime.faults import GatewayFault
from repro.runtime.gateway.admission import (
    AdmissionController,
    OverloadLadder,
    OverloadState,
    TenantPolicy,
)
from repro.runtime.gateway.hashring import ConsistentHashRing
from repro.runtime.gateway.wal import ENTRY_SCHEMA, WriteAheadLog, read_wal
from repro.runtime.gateway.worker import run_shard_worker
from repro.runtime.supervision import (
    TERM_GRACE,
    Backoff,
    process_context,
    terminate,
)

__all__ = ["GatewayError", "GatewayConfig", "SubmitResult", "ServingGateway"]

_DEFAULT_TENANT = "default"
_SEGMENT_BYTES = 256 * 1024     # WAL rotation size
_SPAWN_TIMEOUT = 30.0           # worker hello deadline, seconds
_MAX_RESPAWNS = 5               # per shard, then GatewayError
_RETRY_AFTER = 0.05             # suggested client backoff on reject


class GatewayError(RuntimeError):
    """The gateway itself is broken (spawn failure, respawn budget
    exhausted) — distinct from per-update rejections, which are data."""


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway policy knobs (sharding, durability, backpressure)."""

    workers: int = 2
    seed: int = 0
    window: int = 40
    queue_depth: int = 64           # per-shard bounded buffer
    snapshot_every: int = 128       # worker snapshot cadence (applies)
    ack_timeout: float = 10.0       # per-update worker ack deadline
    backoff_base: float = 0.05      # seconds; doubles per respawn

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")


@dataclass(frozen=True)
class SubmitResult:
    """Verdict for one submitted update — acceptance is durability."""

    accepted: bool
    service_id: str
    sequence: int
    reason: str                 # ok | duplicate | backpressure | throttled
    #                           # | shed | refused | draining | gap
    retry_after: float = 0.0    # seconds; meaningful when rejected
    degraded: bool = False      # accepted under the DEGRADED rung


class _WorkerDied(RuntimeError):
    """Internal: the shard worker died mid-conversation."""


@dataclass
class _Shard:
    """Parent-side bookkeeping for one shard."""

    shard_id: str
    services: Tuple[str, ...]
    wal: WriteAheadLog
    queue: asyncio.Queue
    snapshot_path: Path
    commit_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    process: Optional[multiprocessing.process.BaseProcess] = None
    conn: Optional[object] = None
    respawns: int = 0
    in_flight: bool = False
    slow_start: float = 0.0
    pending_die_after: Optional[int] = None
    dispatcher: Optional[asyncio.Task] = None


class ServingGateway:
    """Async multi-tenant front door over a pool of scoring workers.

    Parameters
    ----------
    directory:
        Root of the gateway run: per-shard WALs, snapshots, and the
        JSONL event log live here.
    detector:
        A fitted, **picklable** detector; every worker builds its own
        :class:`~repro.runtime.serving.ServingRuntime` around it.
    services:
        ``service_id -> calibration history`` for every served service.
    config:
        :class:`GatewayConfig` policy knobs.
    tenants / tenant_of:
        Admission policies and the service→tenant map.  Omitted, every
        service rides one permissive ``"default"`` tenant.
    """

    def __init__(self, directory: str | Path, detector: AnomalyDetector,
                 services: Dict[str, np.ndarray],
                 config: Optional[GatewayConfig] = None,
                 tenants: Optional[Dict[str, TenantPolicy]] = None,
                 tenant_of: Optional[Dict[str, str]] = None):
        if not services:
            raise ValueError("need at least one service")
        self.directory = Path(directory)
        self.detector = detector
        self.config = config if config is not None else GatewayConfig()
        self.services = {sid: np.atleast_2d(np.asarray(history, dtype=float))
                         for sid, history in services.items()}
        if tenants is None:
            tenants = {_DEFAULT_TENANT: TenantPolicy(
                _DEFAULT_TENANT, rate=1e6, burst=1e6)}
        self.tenant_of = dict(tenant_of or {})
        for sid in self.services:
            self.tenant_of.setdefault(sid, _DEFAULT_TENANT)
        unknown = sorted(set(self.tenant_of.values()) - set(tenants))
        if unknown:
            raise ValueError(f"services mapped to unknown tenants: {unknown}")
        self.admission = AdmissionController(tenants)
        self.ladder = OverloadLadder()
        self.ring = ConsistentHashRing(
            [f"w{i}" for i in range(self.config.workers)],
            seed=self.config.seed,
        )
        self._context = process_context()
        self._backoff = Backoff(self.config.seed, 0x6A7E,
                                self.config.backoff_base).delay
        self.registry = get_registry()
        self._events: Optional[EventLog] = None
        self._traces: Optional[TraceLog] = None
        self._shards: Dict[str, _Shard] = {}
        self._shard_of: Dict[str, str] = {}
        self._accepted_sequence: Dict[str, int] = {sid: 0
                                                   for sid in self.services}
        # Pre-start fault stash (applied to shards when start() builds
        # them): shard_id -> slow-start seconds / armed kill threshold.
        self._pre_slow_start: Dict[str, float] = {}
        self._pre_die_after: Dict[str, int] = {}
        self._draining = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build shards, spawn + catch up every worker, start dispatch."""
        if self._started:
            raise GatewayError("gateway already started")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._events = EventLog(self.directory / "events.jsonl")
        self._traces = TraceLog(self.directory / "spans.jsonl")
        assignment = self.ring.shards(sorted(self.services))
        self._shard_of = {sid: shard_id
                          for shard_id, sids in assignment.items()
                          for sid in sids}
        for shard_id in sorted(assignment):
            shard_dir = self.directory / shard_id
            self._shards[shard_id] = _Shard(
                shard_id=shard_id,
                services=assignment[shard_id],
                wal=WriteAheadLog(shard_dir / "wal",
                                  segment_bytes=_SEGMENT_BYTES),
                queue=asyncio.Queue(maxsize=self.config.queue_depth),
                snapshot_path=shard_dir / "snapshot.json",
                slow_start=self._pre_slow_start.get(shard_id, 0.0),
                pending_die_after=self._pre_die_after.get(shard_id),
            )
        spawns = [self._spawn_supervised(shard)
                  for shard in self._shards.values()]
        await asyncio.gather(*spawns)
        for shard in self._shards.values():
            shard.dispatcher = asyncio.ensure_future(self._dispatch(shard))
        self._started = True

    def apply_fault_plan(self, plan: Dict[str, GatewayFault]) -> None:
        """Install worker-side faults from a
        :meth:`~repro.runtime.faults.FaultInjector.plan_gateway_faults`
        schedule (call before :meth:`start`).

        ``worker_slow_start`` stalls every (re)spawn of the service's
        shard; the delivery kinds are executed client-side by the
        traffic generator and ignored here.
        """
        if self._started:
            raise GatewayError("install fault plans before start()")
        for service_id in plan:
            self._require_service(service_id)
        for service_id, fault in plan.items():
            if fault.kind != "worker_slow_start":
                continue
            shard_id = self.ring.assign(service_id)
            # Shards may not exist yet; stash on a pre-start map.
            self._pre_slow_start[shard_id] = max(
                self._pre_slow_start.get(shard_id, 0.0), fault.delay_seconds)

    def schedule_worker_kill(self, service_id: str, after_applies: int
                             ) -> str:
        """Arm a deterministic mid-traffic kill on the shard serving
        ``service_id``: the worker hard-exits after ``after_applies``
        applied updates, *after* applying and *before* acking.  Returns
        the shard id.  Call before :meth:`start`; the respawned worker
        runs clean.  Raises ``KeyError`` for a service this gateway does
        not serve."""
        if self._started:
            raise GatewayError("schedule kills before start()")
        self._require_service(service_id)
        shard_id = self.ring.assign(service_id)
        self._pre_die_after[shard_id] = int(after_applies)
        return shard_id

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, flush queues, snapshot and
        stop every worker."""
        self._require_started()
        self._draining = True
        self._emit("drain_start",
                   pending=sum(s.queue.qsize() for s in self._shards.values()))
        await self._quiesce()
        for shard in self._shards.values():
            if shard.dispatcher is not None:
                shard.dispatcher.cancel()
            if shard.process is None or not shard.process.is_alive():
                # A worker that died with an empty queue was never
                # respawned by dispatch; recover it so the final
                # snapshot reflects every acknowledged update.
                await self._failover(shard, "dead_at_drain")
            shard.conn.send({"op": "stop"})
            await self._await_reply(shard, ("bye",), self.config.ack_timeout)
            if shard.process is not None:
                shard.process.join(TERM_GRACE)
            self._reap_process(shard)
            shard.wal.close()
        self.registry.dump(self.directory / "metrics.jsonl")
        self._emit("drain_complete", shards=len(self._shards))
        if self._traces is not None:
            self._traces.close()
            self._traces = None
        self._events.close()
        self._started = False

    def close(self) -> None:
        """Hard shutdown (no drain): kill workers, close logs."""
        for shard in self._shards.values():
            if shard.dispatcher is not None:
                shard.dispatcher.cancel()
            self._terminate(shard)
            self._reap_process(shard)
            shard.wal.close()
        if self._traces is not None:
            self._traces.close()
            self._traces = None
        if self._events is not None:
            self._events.close()
            self._events = None
        self._started = False

    async def _quiesce(self) -> None:
        """Wait until every queue is empty and nothing is in flight."""
        while any(shard.queue.qsize() > 0 or shard.in_flight
                  for shard in self._shards.values()):
            await asyncio.sleep(0.005)

    # ------------------------------------------------------------------
    # Submission path (the ack protocol's front half)
    # ------------------------------------------------------------------
    async def submit(self, service_id: str, observation: np.ndarray,
                     sequence: int) -> SubmitResult:
        """Admit, journal, and enqueue one point update.

        ``sequence`` is the client's per-service monotonic update number
        (1-based, contiguous).  Re-submitting an already-accepted
        sequence (an at-least-once retry or duplicate) acks immediately
        without re-journalling — it is already durable.  A return with
        ``accepted=True`` means the update has been fsync'd into the
        shard's WAL and will survive any worker failure.
        """
        self._require_started()
        self._require_service(service_id)
        if sequence < 1:
            raise ValueError("sequence must be >= 1")
        started = time.perf_counter()
        tenant = self.tenant_of[service_id]

        if self._draining:
            return self._reject(service_id, sequence, tenant, "draining")
        last = self._accepted_sequence[service_id]
        if sequence <= last:
            self.registry.counter("gateway.duplicates", tenant=tenant).inc()
            return SubmitResult(True, service_id, sequence, "duplicate")
        if sequence != last + 1:
            return self._reject(service_id, sequence, tenant, "gap",
                                retry_after=0.0)

        state = self._observe_ladder()
        if state is OverloadState.REFUSE:
            return self._reject(service_id, sequence, tenant, "refused")
        if state is OverloadState.SHED_LOW and self._sheddable(tenant):
            self.registry.counter("gateway.shed", tenant=tenant).inc()
            self._emit("tenant_shed", tenant=tenant, service=service_id)
            return self._reject(service_id, sequence, tenant, "shed")
        admitted, retry_after = self.admission.admit(tenant)
        if not admitted:
            return self._reject(service_id, sequence, tenant, "throttled",
                                retry_after=retry_after)

        shard = self._shards[self._shard_of[service_id]]
        if shard.queue.full():
            return self._reject(service_id, sequence, tenant, "backpressure")

        degraded = state is OverloadState.DEGRADED
        context = TraceContext.mint(self.config.seed, service_id, sequence)
        # WAL entry schema 2: the trace context rides the frame so a
        # post-failover replay re-parents under the original trace.
        # Schema-1 frames (pre-trace) simply lack both keys and replay
        # untraced.
        entry = {
            "service": service_id,
            "sequence": sequence,
            "observation": np.asarray(observation,
                                      dtype=float).reshape(-1).tolist(),
            "degraded": degraded,
            "schema": ENTRY_SCHEMA,
            "trace": context.to_wire(),
        }
        lsn = shard.wal.append(entry)
        self.registry.counter("gateway.wal_appends",
                              shard=shard.shard_id).inc()
        await self._commit(shard, lsn)
        # The enqueue timestamp rides the queue, not the WAL: replayed
        # frames never waited in this queue, and journal bytes must not
        # depend on the wall clock.
        shard.queue.put_nowait((entry, time.perf_counter()))
        self._accepted_sequence[service_id] = sequence
        self.registry.counter("gateway.accepted", tenant=tenant).inc()
        if degraded:
            self.registry.counter("gateway.degraded_accepts").inc()
        self.registry.gauge("gateway.queue_depth",
                            shard=shard.shard_id).set(shard.queue.qsize())
        elapsed = time.perf_counter() - started
        self.registry.histogram("gateway.ack_seconds").observe(
            elapsed, exemplar=context.trace_id)
        self._traces.record("gateway.submit", context, elapsed,
                            service=service_id, sequence=sequence,
                            shard=shard.shard_id, degraded=degraded)
        # Nothing above suspends when the WAL lock is uncontended, so a
        # tight submit loop would monopolize the event loop and starve
        # the dispatchers into an ever-growing backlog.  One explicit
        # yield per accepted update keeps delivery interleaved with
        # admission (and lets queue occupancy mean what the ladder
        # thinks it means).
        await asyncio.sleep(0)
        return SubmitResult(True, service_id, sequence, "ok",
                            degraded=degraded)

    def _reject(self, service_id: str, sequence: int, tenant: str,
                reason: str, retry_after: Optional[float] = None
                ) -> SubmitResult:
        self.registry.counter("gateway.rejected", tenant=tenant,
                              reason=reason).inc()
        if retry_after is None:
            retry_after = _RETRY_AFTER
        return SubmitResult(False, service_id, sequence, reason,
                            retry_after=retry_after)

    async def _commit(self, shard: _Shard, lsn: int) -> None:
        """Group commit: coalesce concurrent submitters into one fsync."""
        if shard.wal.durable_lsn >= lsn:
            return
        async with shard.commit_lock:
            if shard.wal.durable_lsn < lsn:
                shard.wal.commit()

    def _observe_ladder(self) -> OverloadState:
        capacity = len(self._shards) * self.config.queue_depth
        occupancy = sum(shard.queue.qsize()
                        for shard in self._shards.values()) / capacity
        previous = self.ladder.state
        state = self.ladder.observe(occupancy)
        if state is not previous:
            self.registry.counter("gateway.overload_transitions",
                                  to_state=state.value).inc()
            self._emit("overload_transition", from_state=previous.value,
                       to_state=state.value, occupancy=occupancy)
        return state

    def _sheddable(self, tenant: str) -> bool:
        """Only the lowest priority class sheds, and only when a higher
        class exists to protect — with one class there is nothing
        'lower' to sacrifice and the ladder escalates instead."""
        priorities = {policy.priority
                      for policy in self.admission.policies.values()}
        if len(priorities) < 2:
            return False
        return self.admission.priority(tenant) == min(priorities)

    # ------------------------------------------------------------------
    # Dispatch path (the ack protocol's back half)
    # ------------------------------------------------------------------
    async def _dispatch(self, shard: _Shard) -> None:
        """Per-shard delivery loop: strict FIFO, stop-and-wait."""
        while True:
            try:
                entry, enqueued_at = shard.queue.get_nowait()
            except asyncio.QueueEmpty:
                await asyncio.sleep(0.001)
                continue
            self.registry.histogram(
                "gateway.queue_wait_seconds", shard=shard.shard_id,
            ).observe(time.perf_counter() - enqueued_at,
                      exemplar=entry["trace"]["trace_id"])
            shard.in_flight = True
            try:
                await self._deliver(shard, entry)
            finally:
                shard.in_flight = False
            self.registry.gauge("gateway.queue_depth",
                                shard=shard.shard_id).set(shard.queue.qsize())

    async def _deliver(self, shard: _Shard, entry: dict) -> dict:
        """Deliver one update, surviving any number of worker deaths.

        The entry is already durable in the WAL; this loop retransmits
        through failovers until the worker acks.  A retransmit that the
        dead worker had in fact applied is absorbed by the sequence
        check — the idempotence the whole protocol leans on.
        """
        command = dict(entry)
        command["op"] = "update"
        while True:
            if shard.process is None or not shard.process.is_alive():
                await self._failover(shard, "worker_dead")
            try:
                shard.conn.send(command)
            except (BrokenPipeError, OSError):
                await self._failover(shard, "pipe_broken")
                continue
            reply = await self._await_reply(shard, ("ack",),
                                            self.config.ack_timeout)
            if reply is None:
                await self._failover(shard, "ack_timeout")
                continue
            return reply

    async def _await_reply(self, shard: _Shard, ops: Tuple[str, ...],
                           timeout: float) -> Optional[dict]:
        """Await a matching reply; ``None`` on timeout or worker death."""
        deadline = time.monotonic() + timeout
        spins = 0
        while time.monotonic() < deadline:
            if shard.conn.poll(0):
                try:
                    reply = shard.conn.recv()
                except (EOFError, OSError):
                    return None
                if reply.get("op") in ops:
                    return reply
                continue            # stale reply from a previous regime
            if shard.process is not None and not shard.process.is_alive() \
                    and not shard.conn.poll(0):
                return None
            spins += 1
            await asyncio.sleep(0.0 if spins < 200 else 0.001)
        return None

    # ------------------------------------------------------------------
    # Supervision: spawn, reap, failover, replay
    # ------------------------------------------------------------------
    async def _spawn_supervised(self, shard: _Shard) -> None:
        """First spawn, with the same retry envelope as a failover."""
        try:
            await self._spawn(shard)
        except _WorkerDied:
            await self._failover(shard, "spawn_failed")

    async def _failover(self, shard: _Shard, reason: str) -> None:
        """Reap, back off, respawn, catch up — or give up loudly."""
        self.registry.counter("gateway.failovers", shard=shard.shard_id,
                              reason=reason).inc()
        self._emit("worker_failover", shard=shard.shard_id, reason=reason,
                   respawns=shard.respawns)
        while True:
            shard.respawns += 1
            if shard.respawns > _MAX_RESPAWNS:
                raise GatewayError(
                    f"shard {shard.shard_id}: respawn budget "
                    f"({_MAX_RESPAWNS}) exhausted after {reason}"
                )
            self._terminate(shard)
            await asyncio.sleep(self._backoff(shard.respawns))
            try:
                await self._spawn(shard)
                return
            except _WorkerDied:
                continue

    async def _spawn(self, shard: _Shard) -> None:
        """Spawn the shard worker, wait for hello, replay the WAL gap."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        payload = {
            "shard": shard.shard_id,
            "detector": self.detector,
            "window": self.config.window,
            "services": {sid: self.services[sid].tolist()
                         for sid in shard.services},
            "snapshot_path": str(shard.snapshot_path),
            "snapshot_every": self.config.snapshot_every,
            "slow_start": shard.slow_start,
            "die_after_applies": shard.pending_die_after,
            "trace_path": str(shard.snapshot_path.parent / "spans.jsonl"),
            "incarnation": shard.respawns,
        }
        process = self._context.Process(
            target=run_shard_worker, args=(payload, child_conn),
            name=f"gateway-{shard.shard_id}-r{shard.respawns}", daemon=True,
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn
        # An armed deterministic kill fires in exactly one incarnation.
        shard.pending_die_after = None
        self._emit("worker_spawn", shard=shard.shard_id,
                   respawns=shard.respawns, slow_start=shard.slow_start)
        hello = await self._await_reply(
            shard, ("hello",),
            _SPAWN_TIMEOUT + shard.slow_start)
        if hello is None:
            raise _WorkerDied(f"shard {shard.shard_id}: no hello")
        await self._replay(shard, hello["applied"])
        self._emit("worker_ready", shard=shard.shard_id,
                   applied=hello["applied"])

    async def _replay(self, shard: _Shard, applied: Dict[str, int]) -> None:
        """Catch a fresh worker up from its snapshot to the WAL head."""
        records = read_wal(shard.wal.directory)
        replayed = 0
        for record in records:
            entry = record.payload
            if entry["sequence"] <= applied.get(entry["service"], 0):
                continue
            command = dict(entry)
            command["op"] = "update"
            # Replayed frames carry their original trace context (WAL
            # entry schema 2); the worker marks the resulting span as a
            # replay so the trace tree tells recovery apart from the
            # first delivery.
            command["replay"] = True
            shard.conn.send(command)
            reply = await self._await_reply(shard, ("ack",),
                                            self.config.ack_timeout)
            if reply is None:
                raise _WorkerDied(
                    f"shard {shard.shard_id}: died during WAL replay"
                )
            replayed += 1
        if replayed:
            self.registry.counter("gateway.replayed_records",
                                  shard=shard.shard_id).inc(replayed)
        self._emit("wal_replay", shard=shard.shard_id, records=replayed,
                   wal_records=len(records))

    def _terminate(self, shard: _Shard) -> None:
        process = shard.process
        if process is None:
            return
        if process.is_alive():
            terminate(process)
        self._reap_process(shard)

    def _reap_process(self, shard: _Shard) -> None:
        if shard.process is not None:
            shard.process.join(TERM_GRACE)
            if not shard.process.is_alive():
                shard.process.close()
                shard.process = None
        if shard.conn is not None:
            shard.conn.close()
            shard.conn = None

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------
    async def collect_states(self) -> Dict[str, dict]:
        """Quiesce, then fetch every worker's full serving state dict —
        the chaos suite's bitwise verification surface."""
        return {shard_id: reply["state"] for shard_id, reply
                in (await self._collect("state")).items()}

    async def collect_health(self) -> Dict[str, str]:
        """Quiesce, then fetch every service's worker-side health state
        (the >=90%-HEALTHY convergence gate's surface)."""
        health: Dict[str, str] = {}
        for reply in (await self._collect("state")).values():
            health.update(reply["health"])
        return health

    async def _collect(self, op: str) -> Dict[str, dict]:
        self._require_started()
        await self._quiesce()
        replies: Dict[str, dict] = {}
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            if shard.process is None or not shard.process.is_alive():
                await self._failover(shard, "dead_at_collect")
            shard.conn.send({"op": op})
            reply = await self._await_reply(shard, (op,),
                                            self.config.ack_timeout)
            if reply is None:
                raise GatewayError(
                    f"shard {shard_id}: worker died during state collection"
                )
            replies[shard_id] = reply
        return replies

    def accepted_sequence(self, service_id: str) -> int:
        """Last accepted (durable) sequence for a service."""
        return self._accepted_sequence[service_id]

    def status(self) -> dict:
        """One-glance gateway status (CLI / dashboards)."""
        return {
            "overload_state": self.ladder.state.value,
            "draining": self._draining,
            "shards": {
                shard_id: {
                    "services": len(shard.services),
                    "queue_depth": shard.queue.qsize(),
                    "respawns": shard.respawns,
                    "wal_lsn": shard.wal.next_lsn,
                    "alive": bool(shard.process is not None
                                  and shard.process.is_alive()),
                }
                for shard_id, shard in sorted(self._shards.items())
            },
        }

    def _require_service(self, service_id: str) -> None:
        if service_id not in self.services:
            raise KeyError(f"unknown service {service_id!r}")

    def _require_started(self) -> None:
        if not self._started:
            raise GatewayError("gateway not started; call await start()")

    def _emit(self, kind: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(kind, **fields)
