"""Fault-tolerant fleet training orchestrator.

The paper's efficiency story (§V) fits one unified MACE model per group
of ~ten services and scales out across groups.  This module turns that
scale-out into a supervised **fleet run**: per-group ``MaceTrainer.fit``
jobs are sharded across a pool of worker *processes*, and the fleet stays
alive through every worker-level failure mode the chaos suite injects:

* **crashes** — a dead worker (non-zero exit, SIGKILL, OOM) is retried
  with exponential backoff + deterministic jitter, resuming from the
  group's last :class:`~repro.runtime.Checkpointer` epoch instead of
  restarting from scratch;
* **hangs / stragglers** — every attempt runs under a per-task deadline;
  a worker that blows it is terminated and the job re-dispatched;
* **divergence** — inside each worker a
  :class:`~repro.runtime.divergence.DivergenceGuard` rewinds NaN/Inf or
  spiking epochs to the last good checkpoint (escalating to FAILED after
  ``max_rewinds``);
* **exhaustion** — a group that keeps failing is marked FAILED in the
  structured :class:`FleetReport` instead of aborting its siblings.

Results are deterministic: each group's seed is derived from the fleet
seed and the group id alone (:func:`derive_group_seed`), and groups never
share mutable state, so ``workers=4`` produces bitwise-identical final
state dicts to ``workers=1`` — and to a run that was killed halfway and
resumed.

Job lifecycle (DESIGN.md §10)::

    PENDING ──launch──▶ RUNNING ──fit done──▶ DONE
       ▲                   │ │
       │   retry+backoff   │ └─divergence──▶ REWINDING ─▶ RUNNING / FAILED
       └──(crash/timeout)──┘                  (in-worker)
                           └─attempts exhausted / diverged─▶ FAILED
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time
import zlib
from dataclasses import dataclass, field, replace
from enum import Enum
from multiprocessing import connection
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import MaceConfig
from repro.obs.events import EventLog, install_event_log
from repro.obs.metrics import MetricsRegistry, get_registry, install_registry
from repro.obs.tracing import disable_tracing, enable_tracing
from repro.runtime.faults import WorkerFault
from repro.runtime.supervision import (
    KILLED_EXIT_CODE,
    TERM_GRACE,
    Backoff,
    process_context,
    terminate,
)

__all__ = [
    "derive_group_seed",
    "FleetJob",
    "FleetConfig",
    "JobStatus",
    "AttemptRecord",
    "GroupResult",
    "FleetReport",
    "FleetOrchestrator",
    "train_fleet",
]

# How long an injected hang sleeps; always longer than any sane per-task
# timeout, so the orchestrator's deadline is what ends the attempt.
_HANG_SECONDS = 3600.0
_RESULT_NAME = "result.json"
# Scheduler wait granularity, seconds.
_POLL_INTERVAL = 0.05
# Checkpoints kept per group (the resume anchors a rewind can reach).
_KEEP_CHECKPOINTS = 3


def derive_group_seed(fleet_seed: int, group_id: str) -> int:
    """Per-group seed from the fleet seed and the group id alone.

    Scheduling-independent by construction: the derivation never looks at
    worker counts, launch order, or retry history, so any execution of
    the same (fleet_seed, group_id) pair trains with the same stream.
    """
    entropy = zlib.crc32(group_id.encode("utf-8"))
    sequence = np.random.SeedSequence([int(fleet_seed) & 0xFFFFFFFF, entropy])
    return int(sequence.generate_state(1)[0])


@dataclass(frozen=True)
class FleetJob:
    """One unit of fleet work: train a unified model over a service group."""

    group_id: str
    service_ids: Tuple[str, ...]
    train_series: Tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "service_ids", tuple(self.service_ids))
        object.__setattr__(self, "train_series", tuple(self.train_series))
        if len(self.service_ids) != len(self.train_series):
            raise ValueError(
                f"group {self.group_id!r}: service_ids and train_series "
                "must align"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Orchestrator policy knobs (scheduling, retries, divergence)."""

    workers: int = 2
    fleet_seed: int = 0
    timeout: float = 120.0          # per-attempt deadline, seconds
    max_attempts: int = 3           # per group, including the first
    backoff_base: float = 0.05      # seconds; doubles per failed attempt
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.25    # +[0, jitter] fraction, seeded draw
    max_rewinds: int = 3
    # Worker-side telemetry: metrics + spans + a file-backed event
    # log in each group directory, merged back through result.json.  The
    # orchestrator's own events.jsonl is always written (append-only).
    observability: bool = False

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class JobStatus(Enum):
    """Lifecycle of one group job (REWINDING happens inside the worker)."""

    PENDING = "pending"
    RUNNING = "running"
    REWINDING = "rewinding"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class AttemptRecord:
    """Outcome of one dispatched worker attempt."""

    attempt: int
    outcome: str            # "done" | "diverged" | "crash" | "timeout"
    exitcode: Optional[int]
    seconds: float


@dataclass
class GroupResult:
    """Terminal record for one group in the :class:`FleetReport`."""

    group_id: str
    status: JobStatus
    seed: int
    attempts: List[AttemptRecord] = field(default_factory=list)
    epochs: int = 0
    final_loss: float = float("nan")
    rewinds: int = 0
    nonfinite_batches: int = 0
    divergence_events: List[dict] = field(default_factory=list)
    state_path: Optional[str] = None
    error: Optional[str] = None
    # Worker-process metric snapshots (repro.obs.metrics), carried back
    # through the result.json handoff when observability is on.
    metrics: List[dict] = field(default_factory=list)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Final model weights of a DONE group (loads the checkpoint)."""
        from repro.runtime.checkpoint import load_training_checkpoint

        if self.state_path is None:
            raise ValueError(
                f"group {self.group_id!r} has no final state "
                f"(status={self.status.value})"
            )
        return load_training_checkpoint(self.state_path).model_state


@dataclass
class FleetReport:
    """Structured outcome of one fleet run: failures are data, not raises."""

    fleet_seed: int
    groups: List[GroupResult]

    @property
    def done(self) -> List[GroupResult]:
        return [g for g in self.groups if g.status is JobStatus.DONE]

    @property
    def failed(self) -> List[GroupResult]:
        return [g for g in self.groups if g.status is JobStatus.FAILED]

    def group(self, group_id: str) -> GroupResult:
        for result in self.groups:
            if result.group_id == group_id:
                return result
        raise KeyError(f"no such group in this fleet run: {group_id!r}")

    def state_dict(self, group_id: str) -> Dict[str, np.ndarray]:
        return self.group(group_id).state_dict()

    def merged_metrics(self) -> "MetricsRegistry":
        """One registry folding every group's worker metrics together.

        Histogram merge is associative, so the result is independent of
        worker scheduling and group order.
        """
        merged = MetricsRegistry()
        for result in self.groups:
            if result.metrics:
                merged.merge_snapshot(result.metrics)
        return merged

    def summary_rows(self) -> List[tuple]:
        """One row per group, for ``repro.eval.format_table``."""
        rows = []
        for result in self.groups:
            rows.append((
                result.group_id, result.status.value, len(result.attempts),
                result.rewinds, result.nonfinite_batches, result.epochs,
                f"{result.final_loss:.6f}"
                if np.isfinite(result.final_loss) else "-",
                result.error or "",
            ))
        return rows


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _fault_hooks(fault: Optional[WorkerFault], guard):
    """Compose injected worker faults with the divergence guard's hooks."""
    fired = {"boundary": False, "nan": False}

    def epoch_hook(trainer, optimizer, epoch):
        if (fault is not None and epoch == fault.epoch
                and fault.kind in ("worker_kill", "worker_hang")
                and (fault.repeat or not fired["boundary"])):
            fired["boundary"] = True
            if fault.kind == "worker_kill":
                # SIGKILL semantics: no atexit, no result file, no flush.
                os._exit(KILLED_EXIT_CODE)
            time.sleep(_HANG_SECONDS)
        return guard(trainer, optimizer, epoch)

    def batch_hook(epoch, batch_index, loss):
        if (fault is not None and fault.kind == "nan_grad"
                and epoch == fault.epoch and batch_index == fault.batch
                and (fault.repeat or not fired["nan"])):
            fired["nan"] = True
            return loss * float("nan")
        return None

    return epoch_hook, batch_hook


class _WorkerObservability:
    """Worker-process telemetry session (no-op unless enabled).

    When on: a fresh metrics registry and a file-backed event log are
    installed for the worker and tracing records ``fit/epoch/batch``
    spans.  On close the
    registry and spans are dumped to ``metrics.jsonl`` / ``spans.jsonl``
    in the group directory, and :meth:`snapshot` rides home inside
    ``result.json``.
    """

    def __init__(self, directory: Path, enabled: bool):
        self.enabled = enabled
        self.directory = directory
        self.registry = None
        self._log = None
        self._previous_registry = None
        self._previous_log = None

    def __enter__(self) -> "_WorkerObservability":
        if not self.enabled:
            return self
        self.registry = MetricsRegistry()
        self._previous_registry = install_registry(self.registry)
        self._log = EventLog(self.directory / "events.jsonl")
        self._previous_log = install_event_log(self._log)
        enable_tracing()
        return self

    def snapshot(self) -> List[dict]:
        return self.registry.snapshot() if self.registry is not None else []

    def __exit__(self, *exc_info) -> None:
        if not self.enabled:
            return
        tracer = disable_tracing()
        if tracer is not None:
            tracer.dump(self.directory / "spans.jsonl")
        self.registry.dump(self.directory / "metrics.jsonl")
        install_registry(self._previous_registry)
        install_event_log(self._previous_log)
        self._log.close()


def _run_group_job(payload: dict) -> None:
    """Worker entry point: train one group, write ``result.json``.

    Runs in a child process.  A crash (any uncaught exception, an
    injected kill, OOM) simply leaves no result file — the parent treats
    that as a crash and re-dispatches.  Divergence beyond the rewind
    budget is *not* a crash: it writes a ``diverged`` result so the
    parent marks the group FAILED without retrying a hopeless job.
    """
    from repro.core.trainer import MaceTrainer
    from repro.nn.serialization import atomic_replace
    from repro.runtime.checkpoint import Checkpointer
    from repro.runtime.divergence import DivergenceError, DivergenceGuard

    directory = Path(payload["directory"])
    config: MaceConfig = payload["config"]
    checkpointer = Checkpointer(directory, keep=_KEEP_CHECKPOINTS,
                                snapshot_initial=True)
    guard = DivergenceGuard(checkpointer, max_rewinds=payload["max_rewinds"])
    epoch_hook, batch_hook = _fault_hooks(payload["fault"], guard)
    resume = checkpointer.latest()
    trainer = MaceTrainer(config)
    with _WorkerObservability(directory, payload.get("obs", False)) as obs:
        try:
            trainer.fit(
                list(payload["service_ids"]), list(payload["train_series"]),
                checkpointer=checkpointer, resume=resume,
                epoch_hook=epoch_hook, batch_hook=batch_hook,
            )
        except DivergenceError as error:
            result = {
                "status": "diverged",
                "error": str(error),
                "rewinds": guard.rewinds,
                "divergence_events": [dataclasses.asdict(e)
                                      for e in guard.events],
                "nonfinite_batches": len(trainer.history.nonfinite_batches),
                "metrics": obs.snapshot(),
            }
            atomic_replace(directory / _RESULT_NAME,
                           json.dumps(result).encode("utf-8"))
            return
        result = {
            "status": "done",
            "epochs": config.epochs,
            "final_loss": trainer.history.final_loss,
            "rewinds": guard.rewinds,
            "divergence_events": [dataclasses.asdict(e) for e in guard.events],
            "nonfinite_batches": len(trainer.history.nonfinite_batches),
            "state_path": str(checkpointer.latest()),
            "metrics": obs.snapshot(),
        }
    atomic_replace(directory / _RESULT_NAME,
                   json.dumps(result).encode("utf-8"))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class _JobRun:
    """Parent-side bookkeeping for one group job."""

    job: FleetJob
    result: GroupResult
    fault: Optional[WorkerFault] = None
    process: Optional[multiprocessing.process.BaseProcess] = None
    started_at: float = 0.0
    deadline: float = 0.0
    eligible_at: float = 0.0  # backoff gate for the next launch


class FleetOrchestrator:
    """Shard per-group training jobs across a supervised worker pool.

    Parameters
    ----------
    directory:
        Root of the fleet run; each group checkpoints under
        ``<directory>/<group_id>/`` (the resume anchor across retries).
    base_config:
        Template :class:`~repro.core.model.MaceConfig`; each group trains
        under ``replace(base_config, seed=derive_group_seed(...))``.
    fleet:
        :class:`FleetConfig` policy knobs.
    """

    def __init__(self, directory: str | Path, base_config: MaceConfig,
                 fleet: Optional[FleetConfig] = None):
        self.directory = Path(directory)
        self.base_config = base_config
        self.fleet = fleet if fleet is not None else FleetConfig()
        self._context = process_context()
        self._backoff = Backoff(self.fleet.fleet_seed, 0x5EED,
                                self.fleet.backoff_base,
                                cap=self.fleet.backoff_cap,
                                jitter=self.fleet.backoff_jitter).delay
        self.registry = get_registry()
        self._events: Optional[EventLog] = None

    def _emit(self, kind: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(kind, **fields)

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[FleetJob],
            faults: Optional[Dict[str, WorkerFault]] = None) -> FleetReport:
        """Execute the fleet; always returns a report, never raises for a
        failing *group* (programming errors in the orchestrator itself of
        course still surface)."""
        faults = dict(faults or {})
        seen = set()
        for job in jobs:
            if job.group_id in seen:
                raise ValueError(f"duplicate group id: {job.group_id!r}")
            seen.add(job.group_id)
        runs = {
            job.group_id: _JobRun(
                job=job,
                result=GroupResult(
                    group_id=job.group_id, status=JobStatus.PENDING,
                    seed=derive_group_seed(self.fleet.fleet_seed,
                                           job.group_id),
                ),
                fault=faults.get(job.group_id),
            )
            for job in jobs
        }
        pending: List[str] = [job.group_id for job in jobs]
        running: List[str] = []

        self.directory.mkdir(parents=True, exist_ok=True)
        self._events = EventLog(self.directory / "events.jsonl")
        try:
            while pending or running:
                now = time.monotonic()  # effects: ok TIME reason=deadline supervision only; job results carry no wall time
                self._launch_eligible(runs, pending, running, now)
                if not running:
                    # Everything pending is gated on backoff; sleep to the
                    # nearest eligibility instant.
                    wake = min(runs[g].eligible_at for g in pending)
                    time.sleep(min(max(wake - now, 0.0) + 1e-3,
                                   _POLL_INTERVAL))
                    continue
                self._wait(runs, running)
                now = time.monotonic()  # effects: ok TIME reason=deadline supervision only; job results carry no wall time
                for group_id in list(running):
                    run = runs[group_id]
                    if not run.process.is_alive():
                        running.remove(group_id)
                        self._reap(run, pending, timed_out=False)
                    elif now >= run.deadline:
                        terminate(run.process)
                        running.remove(group_id)
                        self._reap(run, pending, timed_out=True)
        finally:
            self._events.close()
            self._events = None

        report = FleetReport(
            fleet_seed=self.fleet.fleet_seed,
            groups=[runs[job.group_id].result for job in jobs],
        )
        return report

    # ------------------------------------------------------------------
    def _launch_eligible(self, runs, pending: List[str],
                         running: List[str], now: float) -> None:
        launchable = [g for g in pending if runs[g].eligible_at <= now]
        while launchable and len(running) < self.fleet.workers:
            group_id = launchable.pop(0)
            pending.remove(group_id)
            running.append(group_id)
            self._launch(runs[group_id])

    def _launch(self, run: _JobRun) -> None:
        group_dir = self.directory / run.job.group_id
        group_dir.mkdir(parents=True, exist_ok=True)
        # A result file can only exist from a *finished* prior attempt, in
        # which case we would not be here — but stale files from a
        # re-used directory must not masquerade as this attempt's result.
        (group_dir / _RESULT_NAME).unlink(missing_ok=True)
        attempt = len(run.result.attempts) + 1
        fault = run.fault
        if fault is not None and not fault.repeat and attempt > 1:
            # Transient boundary faults fire once: the first attempt died
            # to them, the retry runs clean.  (nan_grad additionally
            # self-limits inside the worker via its fired flag.)
            fault = None
        payload = {
            "directory": str(group_dir),
            "config": replace(self.base_config, seed=run.result.seed),
            "service_ids": run.job.service_ids,
            "train_series": run.job.train_series,
            "fault": fault,
            "max_rewinds": self.fleet.max_rewinds,
            "obs": self.fleet.observability,
        }
        process = self._context.Process(
            target=_run_group_job, args=(payload,),
            name=f"fleet-{run.job.group_id}-a{attempt}", daemon=True,
        )
        process.start()
        run.process = process
        run.started_at = time.monotonic()  # effects: ok TIME reason=deadline supervision only; job results carry no wall time
        run.deadline = run.started_at + self.fleet.timeout
        run.result.status = JobStatus.RUNNING
        self._emit("attempt_start", group=run.job.group_id, attempt=attempt)

    def _wait(self, runs, running: List[str]) -> None:
        """Block until a worker exits, a deadline passes, or a poll tick."""
        now = time.monotonic()  # effects: ok TIME reason=deadline supervision only; job results carry no wall time
        nearest = min(runs[g].deadline for g in running)
        timeout = max(min(nearest - now, _POLL_INTERVAL), 0.0)
        connection.wait([runs[g].process.sentinel for g in running],
                        timeout=timeout)

    # ------------------------------------------------------------------
    def _reap(self, run: _JobRun, pending: List[str],
              timed_out: bool) -> None:
        process = run.process
        process.join(TERM_GRACE)
        exitcode = process.exitcode
        seconds = time.monotonic() - run.started_at  # effects: ok TIME reason=deadline supervision only; job results carry no wall time
        process.close()
        run.process = None
        attempt = len(run.result.attempts) + 1

        result_path = self.directory / run.job.group_id / _RESULT_NAME
        result = None
        if not timed_out and result_path.is_file():
            try:
                result = json.loads(result_path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                result = None  # torn write: treat the attempt as a crash

        if result is not None and result.get("status") == "done":
            run.result.attempts.append(AttemptRecord(
                attempt, "done", exitcode, seconds))
            self._note_attempt(run, attempt, "done", exitcode, seconds)
            self._finish_done(run, result)
            return
        if result is not None and result.get("status") == "diverged":
            run.result.attempts.append(AttemptRecord(
                attempt, "diverged", exitcode, seconds))
            self._note_attempt(run, attempt, "diverged", exitcode, seconds)
            self._finish_failed(run, result.get("error", "diverged"), result)
            return

        outcome = "timeout" if timed_out else "crash"
        run.result.attempts.append(AttemptRecord(
            attempt, outcome, exitcode, seconds))
        self._note_attempt(run, attempt, outcome, exitcode, seconds)
        if attempt >= self.fleet.max_attempts:
            self._finish_failed(
                run,
                f"{outcome} on attempt {attempt}/{self.fleet.max_attempts} "
                f"(exitcode={exitcode})",
                None,
            )
            return
        backoff = self._backoff(attempt)
        run.result.status = JobStatus.PENDING
        run.eligible_at = time.monotonic() + backoff  # effects: ok TIME reason=deadline supervision only; job results carry no wall time
        pending.append(run.job.group_id)
        self.registry.counter("fleet.retries").inc()
        self._emit("retry", group=run.job.group_id, attempt=attempt,
                   backoff_seconds=backoff)

    def _note_attempt(self, run: _JobRun, attempt: int, outcome: str,
                      exitcode: Optional[int], seconds: float) -> None:
        self.registry.counter("fleet.attempts", outcome=outcome).inc()
        self.registry.histogram("fleet.attempt_seconds").observe(seconds)
        self._emit("attempt_end", group=run.job.group_id, attempt=attempt,
                   outcome=outcome, exitcode=exitcode, seconds=seconds)

    def _finish_done(self, run: _JobRun, result: dict) -> None:
        run.result.status = JobStatus.DONE
        run.result.epochs = int(result.get("epochs", 0))
        run.result.final_loss = float(result.get("final_loss", float("nan")))
        run.result.rewinds = int(result.get("rewinds", 0))
        run.result.nonfinite_batches = int(result.get("nonfinite_batches", 0))
        run.result.divergence_events = list(result.get("divergence_events",
                                                       []))
        run.result.state_path = result.get("state_path")
        self._absorb_metrics(run, result)
        self._emit("group_done", group=run.job.group_id,
                   epochs=run.result.epochs, final_loss=run.result.final_loss,
                   rewinds=run.result.rewinds)

    def _finish_failed(self, run: _JobRun, error: str,
                       result: Optional[dict]) -> None:
        run.result.status = JobStatus.FAILED
        run.result.error = error
        if result is not None:
            run.result.rewinds = int(result.get("rewinds", 0))
            run.result.nonfinite_batches = int(
                result.get("nonfinite_batches", 0))
            run.result.divergence_events = list(
                result.get("divergence_events", []))
            self._absorb_metrics(run, result)
        self._emit("group_failed", group=run.job.group_id, error=error)

    def _absorb_metrics(self, run: _JobRun, result: dict) -> None:
        """Merge the worker's metric snapshots into the fleet registry."""
        snapshots = result.get("metrics") or []
        run.result.metrics = list(snapshots)
        if snapshots:
            try:
                self.registry.merge_snapshot(snapshots)
            except (TypeError, ValueError, KeyError):
                # A malformed snapshot from a torn worker must not take
                # down the fleet; the raw list is still on the result.
                pass


def train_fleet(jobs: Sequence[FleetJob], base_config: MaceConfig,
                directory: str | Path,
                fleet: Optional[FleetConfig] = None,
                faults: Optional[Dict[str, WorkerFault]] = None
                ) -> FleetReport:
    """One-call convenience wrapper around :class:`FleetOrchestrator`."""
    orchestrator = FleetOrchestrator(directory, base_config, fleet)
    return orchestrator.run(jobs, faults=faults)
