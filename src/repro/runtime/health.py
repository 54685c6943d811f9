"""Per-service health tracking with an exponential-backoff circuit breaker.

One broken service — a model path that throws, or produces NaN scores for
a shape of data it never saw in training — must not take down the fleet
loop.  Each service carries a small state machine:

``HEALTHY``
    Scores flow through the real model; the SPOT threshold adapts.
``DEGRADED``
    Recent failures (below the trip threshold) or heavily sanitized
    inputs.  The real model still scores, but alerts are marked as coming
    from a degraded stream.
``QUARANTINED``
    The breaker tripped: ``failure_threshold`` consecutive model failures.
    Scoring is routed to the cheap fallback path and the real model is
    only *probed* — once per backoff window, with the window doubling on
    every failed probe (capped at ``max_backoff``).  ``probe_successes``
    consecutive successful probes close the breaker again.

Time is measured in update ticks, not wall-clock seconds: the runtime is
driven point-by-point, so tick-based backoff is deterministic and
testable, and maps 1:1 to wall time for a fixed sampling rate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["HealthState", "BreakerConfig", "ServiceHealth"]


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker policy.

    ``failure_threshold`` consecutive failures trip the breaker;
    ``recovery_successes`` consecutive clean scores bring a DEGRADED
    service back to HEALTHY; ``probe_successes`` consecutive successful
    probes close an open breaker.  ``base_backoff`` is the number of
    update ticks before the first probe, doubling per failed probe up to
    ``max_backoff``.
    """

    failure_threshold: int = 3
    recovery_successes: int = 5
    probe_successes: int = 2
    base_backoff: int = 8
    max_backoff: int = 256

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.recovery_successes < 1 or self.probe_successes < 1:
            raise ValueError("success counts must be >= 1")
        if not 1 <= self.base_backoff <= self.max_backoff:
            raise ValueError("need 1 <= base_backoff <= max_backoff")


class ServiceHealth:
    """State machine + breaker for one service.

    The serving loop drives it with exactly four calls per update:
    :meth:`tick` (advance time), :meth:`allow_model` (route decision),
    then :meth:`record_success` / :meth:`record_failure` with the outcome
    of whichever path ran.
    """

    def __init__(self, config: BreakerConfig | None = None):
        self.config = config or BreakerConfig()
        self.state = HealthState.HEALTHY
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.total_failures = 0
        self.transitions: list = []          # (tick, from_state, to_state)
        self._tick = 0
        self._backoff = self.config.base_backoff
        self._next_probe_tick: int | None = None

    def tick(self) -> int:
        """Advance the update clock by one; returns the new tick."""
        self._tick += 1
        return self._tick

    def allow_model(self) -> bool:
        """Should this update try the real model path?

        Always true outside quarantine.  In quarantine, true only when the
        backoff window has elapsed — that attempt is a *probe* and its
        outcome decides whether the breaker closes or the backoff doubles.
        """
        if self.state is not HealthState.QUARANTINED:
            return True
        return (self._next_probe_tick is not None
                and self._tick >= self._next_probe_tick)

    def record_success(self) -> None:
        """The model path produced a finite score this update."""
        self.consecutive_failures = 0
        self.consecutive_successes += 1
        if self.state is HealthState.QUARANTINED:
            if self.consecutive_successes >= self.config.probe_successes:
                self._transition(HealthState.DEGRADED)
                self._backoff = self.config.base_backoff
                self._next_probe_tick = None
                # Probe successes close the breaker, but they must not
                # count toward the HEALTHY dwell: the service still has to
                # earn `recovery_successes` fresh successes in DEGRADED.
                self.consecutive_successes = 0
            else:
                # More probes needed: allow the very next update to probe
                # again rather than waiting out another backoff window.
                self._next_probe_tick = self._tick + 1
        elif self.state is HealthState.DEGRADED:
            if self.consecutive_successes >= self.config.recovery_successes:
                self._transition(HealthState.HEALTHY)

    def record_failure(self) -> None:
        """The model path raised or produced a non-finite score."""
        self.consecutive_successes = 0
        self.consecutive_failures += 1
        self.total_failures += 1
        if self.state is HealthState.QUARANTINED:
            # Failed probe: double the backoff and schedule the next one.
            self._backoff = min(self._backoff * 2, self.config.max_backoff)
            self._next_probe_tick = self._tick + self._backoff
        elif self.consecutive_failures >= self.config.failure_threshold:
            self._transition(HealthState.QUARANTINED)
            self._backoff = self.config.base_backoff
            self._next_probe_tick = self._tick + self._backoff
        elif self.state is HealthState.HEALTHY:
            self._transition(HealthState.DEGRADED)

    def note_degraded_input(self) -> None:
        """Sanitizer had to fabricate data (gap) — degrade a healthy service."""
        if self.state is HealthState.HEALTHY:
            self._transition(HealthState.DEGRADED)
        self.consecutive_successes = 0

    def _transition(self, to_state: HealthState) -> None:
        if to_state is self.state:
            return
        self.transitions.append((self._tick, self.state, to_state))
        self.state = to_state
