"""Durable async serving gateway: WAL-backed sharded front door.

The fleet-scale entry point over :class:`~repro.runtime.ServingRuntime`:
consistent-hash sharding onto supervised scoring workers, a crash-safe
per-shard write-ahead log that makes every acknowledgement a durability
promise, bounded queues with explicit backpressure, per-tenant admission
control under a fleet-wide overload ladder, and loss-free worker
failover verified bitwise by the chaos suite.  See DESIGN.md §15.
"""

from repro.runtime.gateway.admission import (
    AdmissionController,
    OverloadLadder,
    OverloadState,
    TenantPolicy,
    TokenBucket,
)
from repro.runtime.gateway.gateway import (
    GatewayConfig,
    GatewayError,
    ServingGateway,
    SubmitResult,
)
from repro.runtime.gateway.hashring import ConsistentHashRing
from repro.runtime.gateway.traffic import (
    TrafficReport,
    ZScoreDetector,
    make_fleet_series,
    run_traffic,
)
from repro.runtime.gateway.wal import (
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
    read_wal,
)
from repro.runtime.gateway.worker import KILLED_EXIT_CODE, run_shard_worker

__all__ = [
    "AdmissionController",
    "ConsistentHashRing",
    "GatewayConfig",
    "GatewayError",
    "KILLED_EXIT_CODE",
    "OverloadLadder",
    "OverloadState",
    "ServingGateway",
    "SubmitResult",
    "TenantPolicy",
    "TokenBucket",
    "TrafficReport",
    "WalCorruptionError",
    "WalRecord",
    "WriteAheadLog",
    "ZScoreDetector",
    "make_fleet_series",
    "read_wal",
    "run_shard_worker",
    "run_traffic",
]
