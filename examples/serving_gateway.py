"""Durable serving gateway: loss-free failover under a mid-traffic kill.

``fault_tolerant_serving.py`` hardens one process's scoring loop; this
script puts the durable front door from ``repro.runtime.gateway`` in
front of a fleet of scoring *worker processes*.  Every accepted update
is journalled to a crash-safe write-ahead log before it is acknowledged,
so when a worker is hard-killed mid-traffic — after applying an update
but before acking it — the gateway respawns it, restores its snapshot,
replays the WAL suffix, and nothing acknowledged is lost.

The run drives seeded traffic (every service carrying a delivery fault)
through a two-worker gateway, kills the worker owning ``svc-0`` partway
through, and then proves durability two ways: the per-service final
sequence numbers, and the observability report rendered purely from the
JSONL the gateway left behind.

Run:  python examples/serving_gateway.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.eval import format_table
from repro.obs.report import render_report
from repro.runtime import FaultInjector, GatewayConfig, ServingGateway
from repro.runtime.gateway import (
    ZScoreDetector,
    make_fleet_series,
    run_traffic,
)

NUM_SERVICES = 6
WORKERS = 2
HISTORY = 96
UPDATES = 30


def main() -> None:
    # Synthetic fleet: HISTORY points calibrate each service, the rest
    # stream through the gateway as sequenced updates.
    fleet = make_fleet_series(NUM_SERVICES, HISTORY, UPDATES, seed=0)
    histories = {sid: series[:HISTORY] for sid, series in fleet.items()}
    streams = {sid: series[HISTORY:] for sid, series in fleet.items()}
    detector = ZScoreDetector().fit(
        sorted(histories), [histories[sid] for sid in sorted(histories)])

    # Seeded chaos: a delivery fault on every service (duplicates,
    # reordering, worker slow-starts) plus one worker hard-killed after
    # it has applied 15 updates for svc-0 — inside the applied-but-
    # unacked window the WAL exists to cover.
    injector = FaultInjector(seed=0)
    plan = injector.plan_gateway_faults(sorted(histories), fault_rate=1.0,
                                        updates=UPDATES)

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        gateway = ServingGateway(
            directory, detector, histories,
            GatewayConfig(workers=WORKERS, window=16, seed=0,
                          queue_depth=512, backoff_base=0.01))
        gateway.apply_fault_plan(plan)
        gateway.schedule_worker_kill("svc-0", after_applies=15)

        async def session():
            await gateway.start()
            report = await run_traffic(gateway, streams, faults=plan)
            await gateway.drain()
            return report, gateway.status()

        report, status = asyncio.run(session())

        print(format_table(("metric", "value"), report.summary_rows(),
                           title=f"gateway session: {NUM_SERVICES} services "
                                 f"over {WORKERS} workers, worker kill "
                                 f"mid-traffic"))
        print()
        rows = [(shard_id, shard["services"], shard["wal_lsn"],
                 shard["respawns"])
                for shard_id, shard in sorted(status["shards"].items())]
        print(format_table(("shard", "services", "wal records", "respawns"),
                           rows, title="shards after drain"))
        print()

        total = NUM_SERVICES * UPDATES
        delivered = sum(report.final_sequence.values())
        print(f"acknowledged: {report.accepted}/{total}   "
              f"applied after failover: {delivered}/{total}   "
              f"lost: {total - delivered}")
        print()

        # The same story, reconstructed from events.jsonl/metrics.jsonl
        # alone — what an operator who wasn't watching would read.
        print(render_report(directory))


if __name__ == "__main__":
    main()
