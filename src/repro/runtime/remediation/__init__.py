"""Closed-loop remediation: detect → diagnose → act → verify.

The serving layer (:mod:`repro.runtime.serving`) already *detects* —
breaker trips, health transitions, degraded inputs.  This package closes
the loop around those signals:

:mod:`~repro.runtime.remediation.diagnosis`
    classifies a sick service's root cause (data-quality fault, model
    staleness, anomaly storm) from sanitizer repair rates, the fallback
    scorer's spectral drift, and per-feature model attribution;
:mod:`~repro.runtime.remediation.policy`
    decides whether acting is *allowed* — per-service cooldowns, a
    fleet-wide blast-radius cap, flapping suppression, and per-diagnosis
    escalation ladders that always end on a human hand-off;
:mod:`~repro.runtime.remediation.actions`
    the typed, idempotent, timeout-guarded remedies themselves, plus the
    tick-driven runner that executes them;
:mod:`~repro.runtime.remediation.controller`
    the per-incident state machine that wires the stages together and
    only declares victory after a verified recovery dwell;
:mod:`~repro.runtime.remediation.drill`
    seeded end-to-end fault drills proving the loop converges — the
    ``make drill`` gate.
"""

from repro.runtime.remediation.actions import (
    Action,
    ActionContext,
    ActionOutcome,
    ActionRegistrationError,
    ActionRunner,
    HotSwapDetector,
    QuarantineAndPage,
    RecalibrateSanitizer,
    ResetBreaker,
    RunningAction,
    create_action,
    register_action,
    registered_actions,
)
from repro.runtime.remediation.controller import (
    Incident,
    IncidentState,
    RemediationConfig,
    RemediationController,
)
from repro.runtime.remediation.diagnosis import (
    AlertClass,
    Diagnosis,
    DiagnosisConfig,
    EvidenceWindow,
    attribute_drift,
    diagnose,
)
from repro.runtime.remediation.drill import (
    SCENARIOS,
    DrillConfig,
    DrillReport,
    DrillRow,
    run_drill,
)
from repro.runtime.remediation.policy import (
    DEFAULT_LADDERS,
    TERMINAL_ACTION,
    PolicyConfig,
    PolicyDecision,
    PolicyEngine,
)

__all__ = [
    "Action", "ActionContext", "ActionOutcome", "ActionRegistrationError",
    "ActionRunner", "HotSwapDetector", "QuarantineAndPage",
    "RecalibrateSanitizer", "ResetBreaker", "RunningAction",
    "create_action", "register_action", "registered_actions",
    "Incident", "IncidentState", "RemediationConfig",
    "RemediationController",
    "AlertClass", "Diagnosis", "DiagnosisConfig", "EvidenceWindow",
    "attribute_drift", "diagnose",
    "SCENARIOS", "DrillConfig", "DrillReport", "DrillRow", "run_drill",
    "DEFAULT_LADDERS", "TERMINAL_ACTION", "PolicyConfig", "PolicyDecision",
    "PolicyEngine",
]
