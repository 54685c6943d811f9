"""Chaos suite for the durable serving gateway.

Acceptance gate (`make chaos-serve`): with seeded delivery faults on the
full fleet (rate 1.0 >= the 30% floor) *and* workers hard-killed
mid-traffic in the nastiest window (update applied, ack never sent),
every acknowledged update must survive — the final worker states must be
bitwise-identical to a fault-free baseline, overload must surface as
explicit retryable rejections (never silent loss), and >= 90% of
services must converge HEALTHY.
"""

import asyncio
import json

import pytest

from repro.obs.events import read_events
from repro.obs.propagate import read_trace_spans
from repro.runtime import (
    FaultInjector,
    GatewayConfig,
    GatewayError,
    GatewayFault,
    ServingGateway,
    TenantPolicy,
)
from repro.runtime.gateway import (
    ZScoreDetector,
    make_fleet_series,
    read_wal,
    run_traffic,
)

NUM_SERVICES = 8
HISTORY = 96
UPDATES = 40
TOTAL = NUM_SERVICES * UPDATES

# queue_depth stays large so the ladder never reaches DEGRADED: degraded
# accepts depend on real-time queue occupancy, which is exactly the kind
# of wall-clock nondeterminism the bitwise comparison must exclude.
CHAOS_GATEWAY = dict(workers=2, window=16, seed=0, snapshot_every=25,
                     queue_depth=512, ack_timeout=5.0, backoff_base=0.01)


def _fleet():
    fleet = make_fleet_series(NUM_SERVICES, HISTORY, UPDATES, seed=0)
    histories = {sid: series[:HISTORY] for sid, series in fleet.items()}
    streams = {sid: series[HISTORY:] for sid, series in fleet.items()}
    return histories, streams


def _build_gateway(directory, histories, **overrides):
    detector = ZScoreDetector().fit(
        sorted(histories), [histories[sid] for sid in sorted(histories)])
    config = GatewayConfig(**{**CHAOS_GATEWAY, **overrides})
    return ServingGateway(directory, detector, histories, config)


def _run_session(directory, kills=(), fault_plan=None, **overrides):
    """One full gateway lifecycle: start, traffic, verify surface, drain."""
    histories, streams = _fleet()
    gateway = _build_gateway(directory, histories, **overrides)
    for service_id, after_applies in kills:
        gateway.schedule_worker_kill(service_id, after_applies)
    if fault_plan:
        gateway.apply_fault_plan(fault_plan)

    async def session():
        await gateway.start()
        report = await run_traffic(gateway, streams, faults=fault_plan)
        states = await gateway.collect_states()
        health = await gateway.collect_health()
        status = gateway.status()
        await gateway.drain()
        return report, states, health, status

    return (*asyncio.run(session()), gateway)


def _canonical(states):
    return json.dumps(states, sort_keys=True)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Fault-free reference run (same fleet seed, same shard map)."""
    directory = tmp_path_factory.mktemp("serve-baseline")
    report, states, health, status, _ = _run_session(directory)
    assert report.accepted == TOTAL
    assert report.rejections == {} or report.accepted == TOTAL
    assert all(value == "healthy" for value in health.values())
    return {"states": _canonical(states), "accepted": report.accepted}


class TestChaosServe:
    @pytest.mark.parametrize("chaos_seed", [0, 1, 2])
    def test_kills_and_delivery_faults_lose_nothing(self, baseline,
                                                    tmp_path, chaos_seed):
        """The headline gate: every service carries a delivery fault
        (rate 1.0), two shards die mid-traffic after applying but before
        acking, and the final states still match fault-free bitwise."""
        injector = FaultInjector(seed=chaos_seed)
        histories, _ = _fleet()
        plan = injector.plan_gateway_faults(sorted(histories),
                                            fault_rate=1.0, updates=UPDATES)
        assert len(plan) == NUM_SERVICES
        kills = [("svc-0", 30), ("svc-5", 50 + 10 * chaos_seed)]
        report, states, health, status, gateway = _run_session(
            tmp_path, kills=kills, fault_plan=plan)

        # Loss-free: all updates acknowledged, none lost, none silent.
        assert report.accepted == baseline["accepted"] == TOTAL
        assert all(count == UPDATES
                   for count in report.final_sequence.values())
        # Bitwise: snapshot + WAL replay == the uninterrupted run.
        assert _canonical(states) == baseline["states"]
        # At least one armed kill actually fired and was survived.
        respawns = sum(shard["respawns"]
                       for shard in status["shards"].values())
        assert respawns >= 1
        assert all(shard["alive"] for shard in status["shards"].values())
        # Convergence gate: >= 90% of services end HEALTHY.
        healthy = sum(1 for value in health.values() if value == "healthy")
        assert healthy >= 0.9 * NUM_SERVICES
        # Rejections, if any, were explicit retryable verdicts.
        assert set(report.rejections) <= {"backpressure", "refused",
                                          "throttled", "shed"}

    def test_failover_story_lands_in_event_log(self, tmp_path):
        """The kill shows up as worker_failover + wal_replay +
        worker_ready in events.jsonl — the obs report's raw material."""
        report, _, _, _, gateway = _run_session(
            tmp_path, kills=[("svc-0", 20)])
        assert report.accepted == TOTAL
        kinds = [record["kind"]
                 for record in read_events(tmp_path / "events.jsonl")]
        assert "worker_spawn" in kinds
        assert "worker_ready" in kinds
        assert "worker_failover" in kinds
        assert "wal_replay" in kinds
        assert kinds[-1] == "drain_complete"

    def test_trace_trees_complete_across_kill_and_replay(self, tmp_path):
        """Cross-process tracing gate: every acked update's trace tree is
        complete — the gateway submit span and at least one worker span
        share one trace id with explicit parent linkage — even for the
        shard that was hard-killed and WAL-replayed, and the replay
        itself emits spans linked to the original traces."""
        report, _, _, status, gateway = _run_session(
            tmp_path, kills=[("svc-0", 25)])
        assert report.accepted == TOTAL

        submit_spans = {}                      # (service, sequence) -> span
        for span in read_trace_spans(tmp_path / "spans.jsonl"):
            if span["name"] == "gateway.submit":
                attrs = span["attrs"]
                key = (attrs["service"], int(attrs["sequence"]))
                assert key not in submit_spans   # one admission span each
                submit_spans[key] = span

        worker_spans = {}                      # (service, sequence) -> spans
        killed_shard = None
        for shard_id, shard in status["shards"].items():
            if shard["respawns"]:
                killed_shard = shard_id
            for span in read_trace_spans(tmp_path / shard_id / "spans.jsonl"):
                assert span["name"] == "worker.update"
                attrs = span["attrs"]
                key = (attrs["service"], int(attrs["sequence"]))
                worker_spans.setdefault(key, []).append(span)
        assert killed_shard is not None        # the armed kill fired

        # 100% of acked updates: complete tree, one trace id, parented.
        histories, _ = _fleet()
        acked = {(sid, seq) for sid in histories
                 for seq in range(1, UPDATES + 1)}
        assert set(submit_spans) == acked
        assert set(worker_spans) == acked
        for key in acked:
            root = submit_spans[key]
            children = worker_spans[key]
            assert all(c["trace_id"] == root["trace_id"] for c in children)
            assert all(c["parent_span_id"] == root["span_id"]
                       for c in children)
            span_ids = [c["span_id"] for c in children]
            assert len(set(span_ids)) == len(span_ids)

        # The replayed shard re-emitted spans under the original traces.
        replayed = [span for spans in worker_spans.values()
                    for span in spans if span["attrs"]["replay"]]
        assert replayed
        assert all(span["attrs"]["shard"] == killed_shard
                   for span in replayed)
        assert all(span["attrs"]["incarnation"] >= 1 for span in replayed)

    def test_ack_means_journalled_exactly_once(self, tmp_path):
        """Every accepted update is in exactly one WAL record — retries
        and duplicate transmissions never double-journal."""
        injector = FaultInjector(seed=1)
        histories, _ = _fleet()
        plan = injector.plan_gateway_faults(sorted(histories),
                                            fault_rate=1.0, updates=UPDATES)
        report, _, _, status, gateway = _run_session(tmp_path,
                                                     fault_plan=plan)
        assert report.accepted == TOTAL
        journalled = []
        for shard_id in status["shards"]:
            for record in read_wal(tmp_path / shard_id / "wal"):
                journalled.append((record.payload["service"],
                                   record.payload["sequence"]))
        assert len(journalled) == TOTAL
        assert len(set(journalled)) == TOTAL

    def test_overload_rejects_explicitly_and_recovers(self, tmp_path):
        """A queue two entries deep forces the ladder/backpressure path;
        clients retry and every update is still eventually accepted."""
        report, _, _, _, gateway = _run_session(tmp_path, queue_depth=2)
        assert report.accepted == TOTAL
        assert report.retries > 0
        assert sum(report.rejections.values()) == report.retries
        assert set(report.rejections) <= {"backpressure", "refused",
                                          "throttled", "shed"}

    def test_slow_start_fault_delays_but_does_not_lose(self, tmp_path):
        plan = {"svc-2": GatewayFault("worker_slow_start",
                                      delay_seconds=0.4)}
        report, _, health, _, gateway = _run_session(tmp_path,
                                                     fault_plan=plan)
        assert report.accepted == TOTAL
        assert all(value == "healthy" for value in health.values())


class TestGatewayProtocol:
    """Ack-protocol edges on a tiny live gateway."""

    def test_sequence_discipline_and_admission_verdicts(self, tmp_path):
        histories, streams = _fleet()
        histories = {sid: histories[sid] for sid in ("svc-0", "svc-1")}
        streams = {sid: streams[sid] for sid in ("svc-0", "svc-1")}
        detector = ZScoreDetector().fit(
            sorted(histories), [histories[sid] for sid in sorted(histories)])
        tenants = {
            "paid": TenantPolicy("paid", rate=5.0, burst=1.0, priority=1),
            "free": TenantPolicy("free", rate=1e6, burst=1e6, priority=0),
        }
        gateway = ServingGateway(
            tmp_path, detector, histories,
            GatewayConfig(workers=1, window=16, queue_depth=64,
                          ack_timeout=5.0),
            tenants=tenants,
            tenant_of={"svc-0": "paid", "svc-1": "free"},
        )

        async def session():
            await gateway.start()
            rows = streams["svc-0"]

            gap = await gateway.submit("svc-0", rows[1], 2)
            assert (gap.accepted, gap.reason) == (False, "gap")

            first = await gateway.submit("svc-0", rows[0], 1)
            assert (first.accepted, first.reason) == (True, "ok")
            assert gateway.accepted_sequence("svc-0") == 1

            dup = await gateway.submit("svc-0", rows[0], 1)
            assert (dup.accepted, dup.reason) == (True, "duplicate")

            # burst=1 is spent; the next paid update must be throttled
            # with an exact retry_after, and accepted after waiting.
            throttled = await gateway.submit("svc-0", rows[1], 2)
            assert (throttled.accepted, throttled.reason) == \
                (False, "throttled")
            assert throttled.retry_after > 0
            await asyncio.sleep(throttled.retry_after + 0.05)
            retried = await gateway.submit("svc-0", rows[1], 2)
            assert retried.accepted

            # The free tenant's huge bucket is unaffected throughout.
            free = await gateway.submit("svc-1", streams["svc-1"][0], 1)
            assert free.accepted

            with pytest.raises(KeyError):
                await gateway.submit("svc-9", rows[0], 1)
            with pytest.raises(ValueError):
                await gateway.submit("svc-0", rows[0], 0)

            gateway._draining = True
            draining = await gateway.submit("svc-0", rows[2], 3)
            assert (draining.accepted, draining.reason) == \
                (False, "draining")
            gateway._draining = False

            await gateway.drain()
            with pytest.raises(GatewayError):
                await gateway.submit("svc-0", rows[2], 3)

        asyncio.run(session())
