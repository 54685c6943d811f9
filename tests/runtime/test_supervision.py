"""repro.runtime.supervision: the helpers both worker supervisors share."""

import time

import numpy as np
import pytest

from repro.runtime.supervision import (
    KILLED_EXIT_CODE,
    Backoff,
    process_context,
    terminate,
)


def _reference_delays(seed, salt, base, cap, jitter, attempts):
    """The per-module backoff both supervisors carried before sharing."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, salt]))
    delays = []
    for failed_attempts in attempts:
        delay = base * (2.0 ** (failed_attempts - 1))
        delay = min(delay, cap)
        delays.append(delay * (1.0 + jitter * float(rng.random())))
    return delays


@pytest.mark.parametrize("seed", [0, 1, 7, -1, 2 ** 40])
@pytest.mark.parametrize("salt,base,cap,jitter", [
    (0x5EED, 0.05, 2.0, 0.25),      # fleet orchestrator defaults
    (0x5EED, 0.01, 0.05, 0.25),     # chaos-train fleet
    (0x6A7E, 0.05, 2.0, 0.25),      # gateway defaults
    (0x6A7E, 0.01, 2.0, 0.25),      # chaos-serve / `repro serve`
])
def test_backoff_matches_reference_bitwise(seed, salt, base, cap, jitter):
    attempts = [1, 2, 3, 1, 4, 5, 6, 7, 8, 2]
    backoff = Backoff(seed, salt, base, cap=cap, jitter=jitter)
    actual = [backoff.delay(n) for n in attempts]
    expected = _reference_delays(seed, salt, base, cap, jitter, attempts)
    assert np.array_equal(np.array(actual), np.array(expected))


def test_killed_exit_code_is_shared():
    from repro.runtime import orchestrator
    from repro.runtime.gateway import worker

    assert orchestrator.KILLED_EXIT_CODE is KILLED_EXIT_CODE
    assert worker.KILLED_EXIT_CODE is KILLED_EXIT_CODE


def test_terminate_stops_a_live_process():
    process = process_context().Process(target=time.sleep, args=(60,),
                                         daemon=True)
    process.start()
    terminate(process)
    assert not process.is_alive()
    assert process.exitcode is not None
    process.close()
