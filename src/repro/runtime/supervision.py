"""Worker-process supervision shared by the fleet trainer and the gateway.

Both supervisors (:mod:`repro.runtime.orchestrator` and
:mod:`repro.runtime.gateway.gateway`) start child processes the same way,
stop them the same way, and space their retries with the same seeded
backoff; this module is the one copy of each.
"""

from __future__ import annotations

import multiprocessing

import numpy as np

__all__ = ["KILLED_EXIT_CODE", "TERM_GRACE", "Backoff", "process_context",
           "terminate"]

# Exit code a worker uses for an injected hard kill (os._exit: no
# cleanup, no result, no ack).
KILLED_EXIT_CODE = 73
# SIGTERM→SIGKILL escalation window, seconds.
TERM_GRACE = 5.0


def process_context():
    """``fork`` where the platform has it (cheap, inherits imports), else
    ``spawn``."""
    available = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in available else "spawn")


def terminate(process) -> None:
    """SIGTERM, wait :data:`TERM_GRACE`, then SIGKILL if still alive."""
    process.terminate()
    process.join(TERM_GRACE)
    if process.is_alive():
        process.kill()
        process.join(TERM_GRACE)


class Backoff:
    """Seeded exponential backoff: ``base * 2**(n-1)``, capped at ``cap``,
    stretched by a ``[0, jitter]`` fraction drawn from a private stream.

    ``salt`` keeps supervisors that share a seed on distinct streams.
    """

    def __init__(self, seed: int, salt: int, base: float,
                 cap: float = 2.0, jitter: float = 0.25):
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self._rng = np.random.default_rng(
            np.random.SeedSequence([seed & 0xFFFFFFFF, salt]))

    def delay(self, failed_attempts: int) -> float:
        """Seconds to wait after the ``failed_attempts``-th failure."""
        delay = self.base * (2.0 ** (failed_attempts - 1))
        delay = min(delay, self.cap)
        jitter = self.jitter * float(self._rng.random())
        return delay * (1.0 + jitter)
