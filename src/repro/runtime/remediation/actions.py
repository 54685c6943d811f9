"""Typed, idempotent, timeout-guarded remediation actions.

Every remedy the controller can apply is an :class:`Action` subclass with
three hard obligations, enforced at registration time (and statically by
lint rule REP111):

* ``timeout_ticks`` — a positive declared budget; the
  :class:`ActionRunner` forcibly times out any action still pending past
  it and the controller rolls back and escalates.  No action may block
  the control loop indefinitely.
* ``idempotent = True`` — re-running the action from the same inputs must
  reach the same state, so a retry after a timeout (the runner cannot
  know whether the first attempt half-applied) is always safe.
* ``rollback`` — restore the pre-action state captured in ``start``; the
  verification stage calls it when recovery does not hold.

Actions execute in *steps* against the update-tick clock, never wall
time: ``start`` does the work (or kicks it off) and ``poll`` reports
completion on subsequent ticks.  Most remedies finish inside ``start``;
the split exists so slow remedies — and the drill's injected
``action_hang`` faults — exercise the same timeout machinery production
would need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

import numpy as np

from repro.obs.events import emit
from repro.obs.metrics import get_registry
from repro.runtime.faults import ActionFault

__all__ = ["ActionOutcome", "ActionContext", "Action",
           "ActionRegistrationError", "register_action", "create_action",
           "registered_actions", "RecalibrateSanitizer", "ResetBreaker",
           "HotSwapDetector", "QuarantineAndPage", "RunningAction",
           "ActionRunner"]


class ActionOutcome(enum.Enum):
    OK = "ok"
    PENDING = "pending"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


@dataclass
class ActionContext:
    """Everything an action may touch, handed to it by the controller.

    ``history`` is the service's recent *clean* observation history (rows
    the sanitizer did not have to repair) — the calibration data for
    recalibration and re-characterization remedies.  ``retrain`` is the
    pluggable backend for :class:`HotSwapDetector`; the default re-runs
    ``detector.prepare_service`` through
    :meth:`ServingRuntime.reprepare_service`, a production deployment can
    swap in a :class:`~repro.runtime.orchestrator.FleetOrchestrator`
    group retrain.
    """

    runtime: object                  # ServingRuntime (untyped: no cycle)
    service_id: str
    tick: int
    history: Optional[np.ndarray] = None
    retrain: Optional[Callable[[str, Optional[np.ndarray]], None]] = None


class Action:
    """Base remediation action (see the module docstring for the rules)."""

    name: str = "action"
    timeout_ticks: Optional[int] = None
    idempotent: bool = False

    def start(self, ctx: ActionContext) -> ActionOutcome:
        """Apply (or begin applying) the remedy."""
        raise NotImplementedError

    def poll(self, ctx: ActionContext) -> ActionOutcome:
        """Completion check for actions still pending after ``start``."""
        return ActionOutcome.OK

    def rollback(self, ctx: ActionContext) -> None:
        """Restore the pre-``start`` state (best effort, never raises)."""


class ActionRegistrationError(ValueError):
    """An action class violates the timeout/idempotency obligations."""


_REGISTRY: Dict[str, Type[Action]] = {}


def register_action(cls: Type[Action]) -> Type[Action]:
    """Class decorator: validate the obligations and register the action."""
    timeout = cls.timeout_ticks
    if not isinstance(timeout, int) or isinstance(timeout, bool) \
            or timeout < 1:
        raise ActionRegistrationError(
            f"{cls.__name__} must declare a positive integer timeout_ticks "
            f"(got {timeout!r}); unbounded actions wedge the control loop"
        )
    if cls.idempotent is not True:
        raise ActionRegistrationError(
            f"{cls.__name__} must declare idempotent = True; the runner "
            "retries timed-out actions and cannot prove the first attempt "
            "did not half-apply"
        )
    if not cls.name or cls.name == Action.name:
        raise ActionRegistrationError(
            f"{cls.__name__} must declare a unique action name"
        )
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ActionRegistrationError(
            f"action name {cls.name!r} already registered by "
            f"{_REGISTRY[cls.name].__name__}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def create_action(name: str) -> Action:
    """Instantiate a registered action by name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown action {name!r}; "
                       f"registered: {sorted(_REGISTRY)}")
    return _REGISTRY[name]()


def registered_actions() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


@register_action
class RecalibrateSanitizer(Action):
    """Refit the service's sanitizer from recent clean history.

    Root cause: data-quality faults.  The sanitizer's medians/clip bands
    were calibrated on stale history; refreshing them from the most
    recent clean rows stops over-aggressive imputation/clipping from
    starving the model of real signal.
    """

    name = "recalibrate_sanitizer"
    timeout_ticks = 4
    idempotent = True

    def __init__(self):
        self._previous = None

    def start(self, ctx: ActionContext) -> ActionOutcome:
        if ctx.history is None or ctx.history.shape[0] < 2:
            return ActionOutcome.FAILED
        self._previous = ctx.runtime.recalibrate_sanitizer(
            ctx.service_id, ctx.history)
        ctx.runtime.reset_breaker(ctx.service_id)
        return ActionOutcome.OK

    def rollback(self, ctx: ActionContext) -> None:
        if self._previous is not None:
            ctx.runtime.swap_sanitizer(ctx.service_id, self._previous)


@register_action
class ResetBreaker(Action):
    """Collapse the probe backoff and force an immediate re-probe.

    Root cause: transient faults and anomaly storms.  The model path is
    believed healthy (or the world is genuinely anomalous); the remedy is
    to stop waiting out a possibly maxed-out backoff window and verify.
    """

    name = "reset_breaker"
    timeout_ticks = 4
    idempotent = True

    def start(self, ctx: ActionContext) -> ActionOutcome:
        ctx.runtime.reset_breaker(ctx.service_id)
        return ActionOutcome.OK

    def rollback(self, ctx: ActionContext) -> None:
        # Resetting a backoff carries no state worth restoring: the
        # breaker re-derives its schedule from subsequent probe outcomes.
        return None


@register_action
class HotSwapDetector(Action):
    """Re-characterize the service's model from recent clean history.

    Root cause: model staleness.  Runs the configured retrain backend
    (default: :meth:`ServingRuntime.reprepare_service`, which refits the
    per-service frequency-subspace pattern memory and the fallback
    reference spectrum) and then forces a re-probe so the refreshed path
    is verified immediately.
    """

    name = "hot_swap_detector"
    timeout_ticks = 16
    idempotent = True

    def start(self, ctx: ActionContext) -> ActionOutcome:
        try:
            if ctx.retrain is not None:
                ctx.retrain(ctx.service_id, ctx.history)
            else:
                if ctx.history is None or ctx.history.shape[0] < 2:
                    return ActionOutcome.FAILED
                ctx.runtime.reprepare_service(ctx.service_id, ctx.history)
        except Exception:   # a broken retrain backend must not crash the loop
            return ActionOutcome.FAILED
        ctx.runtime.reset_breaker(ctx.service_id)
        return ActionOutcome.OK

    def rollback(self, ctx: ActionContext) -> None:
        # prepare_service is idempotent over its input history, so the
        # swap itself needs no undo; re-running the previous
        # characterization would require the stale history we no longer
        # trust.  Verification failure escalates instead.
        return None


@register_action
class QuarantineAndPage(Action):
    """Terminal escalation: pin the fallback path and page a human."""

    name = "quarantine_and_page"
    timeout_ticks = 2
    idempotent = True
    terminal = True

    def start(self, ctx: ActionContext) -> ActionOutcome:
        ctx.runtime.quarantine(ctx.service_id)
        emit("page", service=ctx.service_id, tick=ctx.tick,
             reason="remediation escalated to terminal rung")
        get_registry().counter("remediation.pages",
                               service=ctx.service_id).inc()
        return ActionOutcome.OK


@dataclass
class RunningAction:
    """Runner bookkeeping for one in-flight action."""

    action: Action
    ctx: ActionContext
    started_tick: int
    hung: bool = False       # injected action_hang fault is pinning it


class ActionRunner:
    """Executes actions with tick-based timeout guards and fault hooks.

    ``fault_plan`` (chaos testing only) maps service ids to
    :class:`~repro.runtime.faults.ActionFault`; ``action_fail`` forces
    the next launched action for that service to report FAILED without
    executing, ``action_hang`` pins it PENDING until the declared
    ``timeout_ticks`` expire.  ``recovery_relapse`` is *not* consumed
    here — it fires during verification and is applied by the drill
    harness.
    """

    def __init__(self, fault_plan: Optional[Dict[str, ActionFault]] = None):
        self.fault_plan = dict(fault_plan or {})
        self._fired: Dict[str, int] = {}
        self._running: Dict[str, RunningAction] = {}
        self.launched = 0
        self.timed_out = 0

    def in_flight(self, service_id: str) -> bool:
        return service_id in self._running

    def _draw_fault(self, service_id: str) -> Optional[str]:
        fault = self.fault_plan.get(service_id)
        if fault is None or fault.kind == "recovery_relapse":
            return None
        if not fault.repeat and self._fired.get(service_id, 0) >= 1:
            return None
        self._fired[service_id] = self._fired.get(service_id, 0) + 1
        return fault.kind

    def launch(self, action: Action, ctx: ActionContext
               ) -> Tuple[ActionOutcome, Optional[RunningAction]]:
        """Start an action; returns its immediate outcome.

        A PENDING outcome leaves the action in flight; drive it with
        :meth:`step` each tick until it completes or times out.
        """
        if ctx.service_id in self._running:
            raise RuntimeError(
                f"service {ctx.service_id!r} already has an action in "
                "flight; one remedy at a time per service"
            )
        self.launched += 1
        fault = self._draw_fault(ctx.service_id)
        if fault == "action_fail":
            emit("action_fault", service=ctx.service_id, fault_kind=fault,
                 action=action.name, tick=ctx.tick)
            return ActionOutcome.FAILED, None
        if fault == "action_hang":
            emit("action_fault", service=ctx.service_id, fault_kind=fault,
                 action=action.name, tick=ctx.tick)
            running = RunningAction(action, ctx, ctx.tick, hung=True)
            self._running[ctx.service_id] = running
            return ActionOutcome.PENDING, running
        outcome = action.start(ctx)
        if outcome is ActionOutcome.PENDING:
            running = RunningAction(action, ctx, ctx.tick)
            self._running[ctx.service_id] = running
            return outcome, running
        return outcome, None

    def step(self, service_id: str, tick: int) -> Optional[ActionOutcome]:
        """Advance one service's in-flight action by one tick.

        Returns ``None`` when nothing is in flight, PENDING while the
        action is still inside its budget, and a terminal outcome (OK /
        FAILED / TIMED_OUT) once it leaves flight.
        """
        running = self._running.get(service_id)
        if running is None:
            return None
        budget = running.action.timeout_ticks
        if budget is not None and tick - running.started_tick >= budget:
            del self._running[service_id]
            self.timed_out += 1
            emit("action_timeout", service=service_id,
                 action=running.action.name, tick=tick,
                 started_tick=running.started_tick, budget=budget)
            return ActionOutcome.TIMED_OUT
        if running.hung:
            return ActionOutcome.PENDING
        outcome = running.action.poll(running.ctx)
        if outcome is ActionOutcome.PENDING:
            return outcome
        del self._running[service_id]
        return outcome
