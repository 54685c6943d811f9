"""Health state machine and circuit-breaker semantics."""

import pytest

from repro.runtime import BreakerConfig, HealthState, ServiceHealth


def _health(**overrides):
    defaults = dict(failure_threshold=3, recovery_successes=3,
                    probe_successes=2, base_backoff=4, max_backoff=32)
    defaults.update(overrides)
    return ServiceHealth(BreakerConfig(**defaults))


def _drive(health, outcomes):
    """Run one tick + route + outcome per entry; returns model-allowed flags."""
    allowed = []
    for ok in outcomes:
        health.tick()
        if health.allow_model():
            allowed.append(True)
            health.record_success() if ok else health.record_failure()
        else:
            allowed.append(False)
    return allowed


class TestConfig:
    def test_validates_thresholds(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(base_backoff=64, max_backoff=8)


class TestTransitions:
    def test_starts_healthy(self):
        assert _health().state is HealthState.HEALTHY

    def test_single_failure_degrades(self):
        health = _health()
        _drive(health, [False])
        assert health.state is HealthState.DEGRADED

    def test_successes_recover_degraded(self):
        health = _health()
        _drive(health, [False, True, True, True])
        assert health.state is HealthState.HEALTHY

    def test_consecutive_failures_quarantine(self):
        health = _health()
        _drive(health, [False, False, False])
        assert health.state is HealthState.QUARANTINED

    def test_interleaved_failures_do_not_quarantine(self):
        health = _health()
        _drive(health, [False, False, True, False, False, True])
        assert health.state is not HealthState.QUARANTINED

    def test_transitions_recorded(self):
        health = _health()
        _drive(health, [False, False, False])
        states = [(src.value, dst.value) for _, src, dst in health.transitions]
        assert states == [("healthy", "degraded"),
                          ("degraded", "quarantined")]

    def test_degraded_input_degrades_healthy(self):
        health = _health()
        health.tick()
        health.note_degraded_input()
        assert health.state is HealthState.DEGRADED


class TestBreaker:
    def test_quarantine_blocks_model_until_backoff(self):
        health = _health(base_backoff=4)
        _drive(health, [False, False, False])       # trips at tick 3
        allowed = _drive(health, [True] * 4)        # ticks 4..7
        # next probe scheduled for tick 3 + 4 = 7: blocked until then
        assert allowed == [False, False, False, True]

    def test_probe_successes_close_breaker(self):
        health = _health(base_backoff=2, probe_successes=2)
        _drive(health, [False, False, False])
        _drive(health, [True] * 6)
        assert health.state in (HealthState.DEGRADED, HealthState.HEALTHY)

    def test_full_recovery_to_healthy(self):
        health = _health(base_backoff=2, probe_successes=2,
                         recovery_successes=3)
        _drive(health, [False, False, False])
        _drive(health, [True] * 10)
        assert health.state is HealthState.HEALTHY

    def test_failed_probe_doubles_backoff(self):
        health = _health(base_backoff=2, max_backoff=64)
        _drive(health, [False, False, False])       # open, probe at +2
        outcomes = _drive(health, [False] * 14)
        probes = [i for i, allowed in enumerate(outcomes) if allowed]
        assert len(probes) >= 2
        # gaps between consecutive probes grow (2 -> 4 -> 8 ...)
        gaps = [b - a for a, b in zip(probes, probes[1:])]
        assert all(later >= earlier for earlier, later in zip(gaps, gaps[1:]))

    def test_backoff_capped(self):
        health = _health(base_backoff=2, max_backoff=4)
        _drive(health, [False, False, False])
        _drive(health, [False] * 40)
        assert health._backoff == 4

    def test_probing_flag(self):
        # In quarantine, a model attempt is allowed only as a probe: not
        # before the backoff window elapses, and once it has.
        health = _health(base_backoff=2)
        _drive(health, [False, False, False])
        assert health.state is HealthState.QUARANTINED
        health.tick()
        assert not health.allow_model()
        health.tick()
        assert health.allow_model()
        assert health.state is HealthState.QUARANTINED

    def test_counters(self):
        health = _health()
        _drive(health, [False, True, False])
        assert health.total_failures == 2
        assert health.consecutive_failures == 1


class TestProbeLifecycle:
    """The breaker's probe ladder end to end: growth, reset, dwell."""

    def test_backoff_grows_exponentially_across_failed_probes(self):
        health = _health(base_backoff=4, max_backoff=32)
        _drive(health, [False, False, False])       # trips at tick 3
        allowed = _drive(health, [False] * 60)      # every probe fails
        probes = [i for i, flag in enumerate(allowed) if flag]
        gaps = [b - a for a, b in zip(probes, probes[1:])]
        # 4-tick base backoff, doubling per failed probe, capped at 32.
        assert gaps[:3] == [8, 16, 32]
        assert all(gap == 32 for gap in gaps[2:])

    def test_backoff_fully_resets_after_verified_recovery(self):
        health = _health(base_backoff=4, max_backoff=64,
                         probe_successes=2, recovery_successes=3)
        _drive(health, [False, False, False])
        _drive(health, [False] * 40)                # inflate the backoff
        assert health._backoff > health.config.base_backoff
        # Ride the next probe window to a full verified recovery.
        _drive(health, [True] * 70)
        assert health.state is HealthState.HEALTHY
        # A fresh outage must start from the base backoff again, not the
        # inflated one left over from the previous quarantine.
        _drive(health, [False, False, False])
        allowed = _drive(health, [False] * 6)
        assert allowed.index(True) == health.config.base_backoff - 1

    def test_probe_successes_cannot_skip_healthy_dwell(self):
        health = _health(base_backoff=2, probe_successes=2,
                         recovery_successes=3)
        _drive(health, [False, False, False])       # trips at tick 3
        # Two successful probes (ticks 5 and 6) close the breaker into
        # DEGRADED...
        _drive(health, [True] * 3)
        assert health.state is HealthState.DEGRADED
        # ...but the probe successes must not count toward the HEALTHY
        # dwell: the service still owes recovery_successes fresh ones.
        assert health.consecutive_successes == 0
        _drive(health, [True, True])
        assert health.state is HealthState.DEGRADED
        _drive(health, [True])
        assert health.state is HealthState.HEALTHY


class TestTelemetryProperties:
    def test_tick_and_transition_counters(self):
        health = _health()
        _drive(health, [True, False, True, True])
        # one transition, healthy -> degraded, stamped with the tick of
        # the second update
        assert health.transitions == [
            (2, HealthState.HEALTHY, HealthState.DEGRADED)]
        assert health.tick() == 5                    # four ticks so far
