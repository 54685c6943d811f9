"""Admission control for the serving gateway: token buckets + overload ladder.

Two layers decide whether a submitted point update may enter a shard
queue, and both answer with an explicit, retryable verdict rather than
unbounded buffering:

* **per-tenant token buckets** — every tenant (a group of services under
  one :class:`TenantPolicy`) spends one token per update and refills at
  its contracted rate.  A dry bucket means *throttled*, with the exact
  ``retry_after`` until the next token.
* **fleet-wide overload ladder** — aggregate queue occupancy drives a
  four-rung state machine.  Pressure sheds the cheapest thing first:
  NORMAL accepts everything; SHED_LOW rejects the lowest-priority
  tenants; DEGRADED keeps accepting but marks updates for the spectral
  fallback scorer (shed model cost, not data); REFUSE rejects all new
  work while queues drain.  Hysteresis keeps the ladder from flapping on
  the boundary.

The clock is injectable (``clock=lambda: ...``), so tests and the seeded
traffic generator can drive both layers on a virtual timeline and assert
exact verdict sequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

__all__ = ["TenantPolicy", "TokenBucket", "AdmissionController",
           "OverloadState", "OverloadLadder"]


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission contract.

    ``rate`` tokens/second sustained, ``burst`` tokens of headroom, and a
    ``priority`` class (higher keeps flowing longer under overload; the
    ladder's SHED_LOW rung rejects the minimum priority present).
    """

    tenant: str
    rate: float = 1000.0
    burst: float = 100.0
    priority: int = 1

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.priority < 0:
            raise ValueError("priority must be >= 0")


class TokenBucket:
    """Classic token bucket against an injectable clock."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(now - self._updated, 0.0)
        self._updated = now
        self._tokens = min(self._tokens + elapsed * self.rate, self.burst)

    def try_acquire(self) -> Tuple[bool, float]:
        """Spend one token if available.

        Returns ``(acquired, retry_after)`` — ``retry_after`` is 0 on
        success, else the seconds until the bucket will hold a token.
        """
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


class AdmissionController:
    """Per-tenant token buckets behind one ``admit`` call."""

    def __init__(self, policies: Dict[str, TenantPolicy],
                 clock: Callable[[], float] = time.monotonic):
        self.policies = dict(policies)
        self._buckets = {
            tenant: TokenBucket(policy.rate, policy.burst, clock)
            for tenant, policy in self.policies.items()
        }

    def admit(self, tenant: str) -> Tuple[bool, float]:
        """Spend one token for ``tenant``; unknown tenants are refused
        outright (a configuration error, not a transient)."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            raise KeyError(f"unknown tenant {tenant!r}; no admission policy")
        return bucket.try_acquire()

    def priority(self, tenant: str) -> int:
        return self.policies[tenant].priority

    def min_priority(self) -> int:
        """The lowest priority class present (what SHED_LOW rejects)."""
        if not self.policies:
            raise RuntimeError("no tenant policies configured")
        return min(policy.priority for policy in self.policies.values())


class OverloadState(Enum):
    """Ladder rung, in escalation order."""

    NORMAL = "normal"
    SHED_LOW = "shed_low"
    DEGRADED = "degraded"
    REFUSE = "refuse"


_LADDER = (OverloadState.NORMAL, OverloadState.SHED_LOW,
           OverloadState.DEGRADED, OverloadState.REFUSE)


class OverloadLadder:
    """Occupancy-driven overload state with hysteresis.

    ``observe(occupancy)`` (aggregate queue fill fraction in ``[0, 1]``)
    moves the ladder: upward immediately when occupancy crosses a rung's
    threshold, downward only after occupancy falls ``hysteresis`` below
    it — a queue hovering at the boundary must not flap between
    accepting and refusing.
    """

    def __init__(self, shed_at: float = 0.60, degrade_at: float = 0.80,
                 refuse_at: float = 0.95, hysteresis: float = 0.10):
        if not 0.0 < shed_at < degrade_at < refuse_at <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < shed_at < degrade_at "
                "< refuse_at <= 1"
            )
        if not 0.0 <= hysteresis < shed_at:
            raise ValueError("hysteresis must be in [0, shed_at)")
        self.thresholds = (shed_at, degrade_at, refuse_at)
        self.hysteresis = hysteresis
        self.state = OverloadState.NORMAL
        self.transitions = 0

    def observe(self, occupancy: float) -> OverloadState:
        """Update and return the ladder state for the given occupancy."""
        occupancy = max(0.0, min(float(occupancy), 1.0))
        target = 0
        for index, threshold in enumerate(self.thresholds):
            if occupancy >= threshold:
                target = index + 1
        current = _LADDER.index(self.state)
        if target < current:
            # Descend one rung at a time, and only once occupancy has
            # cleared the rung's threshold by the hysteresis margin.
            below = self.thresholds[current - 1] - self.hysteresis
            if occupancy < below:
                target = current - 1
            else:
                target = current
        if target != current:
            self.state = _LADDER[target]
            self.transitions += 1
        return self.state
