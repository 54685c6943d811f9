"""Fault-tolerant serving runtime for production deployments.

The paper's C2 setting — one unified model scoring a heavy-traffic fleet
of services in real time — is exactly where raw telemetry is least
trustworthy: NaN/Inf readings, dropped samples, stuck sensors, and the
occasional scoring-path exception.  This package wraps the fitted-detector
serving path and the training loop with the four pieces a real deployment
needs:

``repro.runtime.sanitize``
    Input validation/repair in front of the ring buffer (impute + clip).
``repro.runtime.health``
    Per-service ``HEALTHY → DEGRADED → QUARANTINED`` state machine with an
    exponential-backoff circuit breaker.
``repro.runtime.serving``
    :class:`ServingRuntime` — the never-raises fleet loop that routes
    quarantined services to a cheap spectral fallback scorer.
``repro.runtime.checkpoint``
    Crash-safe training checkpoints (resume is bit-for-bit identical) and
    live streaming-state snapshots (restart without recalibration).
``repro.runtime.faults``
    Deterministic, seeded fault injection driving the chaos test suite.
``repro.runtime.divergence``
    :class:`DivergenceGuard` — NaN/Inf and robust loss-spike detection
    with rewind-to-last-good-checkpoint recovery during training.
``repro.runtime.orchestrator``
    :class:`FleetOrchestrator` — multiprocess fleet training with
    per-task timeouts, retry + backoff, crash resume, and a structured
    :class:`FleetReport` instead of fail-fast aborts.
``repro.runtime.gateway``
    Durable async serving gateway: consistent-hash sharding onto
    supervised worker processes, per-shard write-ahead logs that make
    acks durability promises, bounded queues + admission control under
    an overload ladder, and loss-free worker failover.
"""

from repro.runtime.checkpoint import (
    CheckpointError,
    Checkpointer,
    TrainingCheckpoint,
    load_streaming_state,
    load_training_checkpoint,
    restore_trainer,
    save_streaming_state,
    save_training_checkpoint,
)
from repro.runtime.divergence import (
    DivergenceError,
    DivergenceEvent,
    DivergenceGuard,
    robust_spike_threshold,
)
from repro.runtime.faults import (
    GATEWAY_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    FaultInjector,
    FaultyDetector,
    GatewayFault,
    InjectedFault,
    WorkerFault,
)
from repro.runtime.gateway import (
    ConsistentHashRing,
    GatewayConfig,
    GatewayError,
    ServingGateway,
    SubmitResult,
    TenantPolicy,
    WalCorruptionError,
    WriteAheadLog,
)
from repro.runtime.health import (
    BreakerConfig,
    HealthState,
    ServiceHealth,
)
from repro.runtime.sanitize import (
    SanitizationReport,
    Sanitizer,
    SanitizerConfig,
)
from repro.runtime.orchestrator import (
    AttemptRecord,
    FleetConfig,
    FleetJob,
    FleetOrchestrator,
    FleetReport,
    GroupResult,
    JobStatus,
    derive_group_seed,
    train_fleet,
)
from repro.runtime.serving import ServingRuntime, SpectralFallbackScorer

__all__ = [
    "SanitizerConfig", "Sanitizer", "SanitizationReport",
    "HealthState", "BreakerConfig", "ServiceHealth",
    "ServingRuntime", "SpectralFallbackScorer",
    "Checkpointer", "CheckpointError", "TrainingCheckpoint",
    "save_training_checkpoint", "load_training_checkpoint", "restore_trainer",
    "save_streaming_state", "load_streaming_state",
    "FaultInjector", "FaultyDetector", "InjectedFault",
    "WorkerFault", "WORKER_FAULT_KINDS",
    "GatewayFault", "GATEWAY_FAULT_KINDS",
    "ServingGateway", "GatewayConfig", "GatewayError", "SubmitResult",
    "ConsistentHashRing", "TenantPolicy",
    "WriteAheadLog", "WalCorruptionError",
    "DivergenceGuard", "DivergenceError", "DivergenceEvent",
    "robust_spike_threshold",
    "FleetOrchestrator", "FleetConfig", "FleetJob", "FleetReport",
    "GroupResult", "AttemptRecord", "JobStatus", "derive_group_seed",
    "train_fleet",
]
