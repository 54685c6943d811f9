"""Crash-safe persistence for training runs and live serving state.

Training checkpoints capture *everything* the optimisation trajectory
depends on — model weights, Adam moment estimates, the epoch counter and
the batch-shuffle RNG state — so ``fit(..., resume=path)`` replays the
uninterrupted run bit for bit.  A process killed mid-epoch loses at most
the epochs since the last snapshot, never the run.

All files are written via write-temp-then-atomic-rename (see
:mod:`repro.nn.serialization`), so a kill mid-write leaves either the
previous complete checkpoint or nothing — never a truncated archive that
a later resume would half-load.

Streaming snapshots serialise a :class:`~repro.core.streaming
.StreamingDetector`'s ring buffers + SPOT state so a serving process can
restart without re-running per-service calibration.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.serialization import (
    SerializationError,
    atomic_replace,
    fsync_directory,
    load_state,
    save_state,
)
from repro.obs.tracing import span

__all__ = [
    "CheckpointError",
    "TrainingCheckpoint",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "restore_trainer",
    "Checkpointer",
    "save_streaming_state",
    "load_streaming_state",
]

_FORMAT = "repro.training-checkpoint.v1"
_STREAM_FORMAT = "repro.streaming-state.v1"
_SERVING_FORMAT = "repro.serving-state.v1"
_MODEL_PREFIX = "model/"
_OPTIM_PREFIX = "optim/"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupted, or does not match the run."""


@dataclass(frozen=True)
class TrainingCheckpoint:
    """Decoded contents of one training checkpoint file."""

    epoch: int
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, np.ndarray]
    rng_state: dict
    epoch_losses: List[float]
    grad_norms: List[float]
    nonfinite_batches: List[Tuple[int, int]]
    config: dict


def save_training_checkpoint(path: str | Path, trainer, optimizer,
                             epoch: int) -> Path:
    """Snapshot a :class:`~repro.core.trainer.MaceTrainer` mid-``fit``."""
    meta = {
        "format": _FORMAT,
        "epoch": int(epoch),
        "rng_state": trainer.rng.bit_generator.state,
        "epoch_losses": list(trainer.history.epoch_losses),
        "grad_norms": list(trainer.history.grad_norms),
        "nonfinite_batches": [list(event)
                              for event in trainer.history.nonfinite_batches],
        "config": dataclasses.asdict(trainer.config),
    }
    payload: Dict[str, np.ndarray] = {"meta": np.array(json.dumps(meta))}
    for name, value in trainer.model.state_dict().items():
        payload[_MODEL_PREFIX + name] = value
    for name, value in optimizer.state_dict().items():
        payload[_OPTIM_PREFIX + name] = value
    path = Path(path)
    save_state(payload, path)
    return path


def load_training_checkpoint(path: str | Path) -> TrainingCheckpoint:
    """Read and validate a checkpoint written by
    :func:`save_training_checkpoint`.

    Raises :class:`CheckpointError` on a missing, truncated, or
    wrong-format file.
    """
    try:
        payload = load_state(path)
    except SerializationError as error:
        raise CheckpointError(str(error)) from error
    if "meta" not in payload:
        raise CheckpointError(
            f"{path} is not a training checkpoint (no meta record)"
        )
    try:
        meta = json.loads(str(payload["meta"]))
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"{path} has a corrupted meta record: {error}"
        ) from error
    if meta.get("format") != _FORMAT:
        raise CheckpointError(
            f"{path} has unrecognised checkpoint format "
            f"{meta.get('format')!r}"
        )
    model_state = {name[len(_MODEL_PREFIX):]: value
                   for name, value in payload.items()
                   if name.startswith(_MODEL_PREFIX)}
    optimizer_state = {name[len(_OPTIM_PREFIX):]: value
                       for name, value in payload.items()
                       if name.startswith(_OPTIM_PREFIX)}
    return TrainingCheckpoint(
        epoch=int(meta["epoch"]),
        model_state=model_state,
        optimizer_state=optimizer_state,
        rng_state=meta["rng_state"],
        epoch_losses=[float(x) for x in meta["epoch_losses"]],
        grad_norms=[float(x) for x in meta["grad_norms"]],
        nonfinite_batches=[(int(e), int(b))
                           for e, b in meta.get("nonfinite_batches", [])],
        # Checkpoints written before MaceConfig.dtype existed ran in float64.
        config={"dtype": "float64", **meta["config"]},
    )


def restore_trainer(trainer, optimizer, path: str | Path) -> int:
    """Load a checkpoint into a live trainer/optimizer pair.

    Returns the epoch to continue from.  The checkpoint's config must
    match the trainer's — resuming a run under different hyperparameters
    would silently produce a hybrid model.
    """
    checkpoint = load_training_checkpoint(path)
    current = dataclasses.asdict(trainer.config)
    if checkpoint.config != current:
        changed = sorted(
            key for key in set(checkpoint.config) | set(current)
            if checkpoint.config.get(key) != current.get(key)
        )
        raise CheckpointError(
            f"checkpoint {path} was written under a different config "
            f"(fields differ: {changed}); refusing to resume"
        )
    try:
        trainer.model.load_state_dict(checkpoint.model_state)
        optimizer.load_state_dict(checkpoint.optimizer_state)
    except (KeyError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint {path} does not match the model/optimizer "
            f"being resumed: {error}"
        ) from error
    # JSON round-trips the PCG64 state dict losslessly (Python ints are
    # arbitrary precision), so the shuffle stream continues exactly.
    trainer.rng.bit_generator.state = checkpoint.rng_state
    trainer.history.epoch_losses = list(checkpoint.epoch_losses)
    trainer.history.grad_norms = list(checkpoint.grad_norms)
    trainer.history.nonfinite_batches = list(checkpoint.nonfinite_batches)
    return checkpoint.epoch


class Checkpointer:
    """Epoch-boundary snapshotting policy for ``MaceTrainer.fit``.

    Pass an instance as ``fit(..., checkpointer=...)``; every ``every``
    completed epochs it writes ``ckpt-epoch####.npz`` into ``directory``
    (atomically, with the directory fsynced after the rename so the entry
    itself survives a power cut) and prunes all but the ``keep`` newest
    snapshots — rewind can therefore never land on a half-written file or
    an unboundedly growing snapshot set.

    With ``snapshot_initial=True`` the pristine pre-training state is also
    written (as ``ckpt-epoch0000.npz``) before the first epoch, so a
    :class:`~repro.runtime.divergence.DivergenceGuard` always has an
    anchor to rewind to even when epoch 1 itself diverges.
    """

    _PATTERN = re.compile(r"ckpt-epoch(\d+)\.npz$")

    def __init__(self, directory: str | Path, every: int = 1, keep: int = 2,
                 snapshot_initial: bool = False):
        if every < 1:
            raise ValueError("every must be >= 1")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
        self.snapshot_initial = snapshot_initial
        self.saved: List[Path] = []

    def on_fit_start(self, trainer, optimizer) -> Optional[Path]:
        """Hook called by the trainer once before the first epoch."""
        if not self.snapshot_initial:
            return None
        return self._save(trainer, optimizer, 0)

    def after_epoch(self, trainer, optimizer, epoch: int) -> Optional[Path]:
        """Hook called by the trainer after each completed epoch."""
        if epoch % self.every and epoch != trainer.config.epochs:
            return None
        return self._save(trainer, optimizer, epoch)

    def _save(self, trainer, optimizer, epoch: int) -> Path:
        from repro.obs.events import emit
        from repro.obs.metrics import get_registry

        path = self.directory / f"ckpt-epoch{epoch:04d}.npz"
        with span("checkpoint.save"):
            save_training_checkpoint(path, trainer, optimizer, epoch)
            self.saved.append(path)
            self._prune()
            fsync_directory(self.directory)
        get_registry().counter("checkpoint.saves").inc()
        emit("checkpoint_save", path=str(path), epoch=epoch)
        return path

    def latest(self) -> Optional[Path]:
        """Newest checkpoint in the directory, or ``None``."""
        existing = self.existing()
        return existing[-1] if existing else None

    def existing(self) -> List[Path]:
        """All checkpoints in the directory, oldest first."""
        if not self.directory.is_dir():
            return []
        found = [(int(match.group(1)), entry)
                 for entry in self.directory.iterdir()
                 if (match := self._PATTERN.match(entry.name))]
        return [entry for _, entry in sorted(found)]

    def _prune(self) -> None:
        for stale in self.existing()[:-self.keep]:
            stale.unlink(missing_ok=True)


def save_streaming_state(streaming, path: str | Path) -> Path:
    """Snapshot a live :class:`~repro.core.streaming.StreamingDetector`.

    The snapshot holds ring buffers and SPOT state for every started
    service; restoring it skips the per-service calibration pass entirely.

    A :class:`~repro.runtime.serving.ServingRuntime` (anything with a
    ``.streaming`` attribute) may be passed instead, in which case the
    snapshot additionally records the per-service applied-sequence
    high-water marks so at-least-once duplicate detection survives a
    restart — the property WAL replay into a restored runtime depends on.
    """
    path = Path(path)
    atomic_replace(
        path,
        json.dumps(streaming.state_dict()).encode("utf-8"),
    )
    return path


def load_streaming_state(streaming, path: str | Path) -> None:
    """Restore a snapshot written by :func:`save_streaming_state`.

    Both snapshot formats load into either target: a serving snapshot
    restored into a bare :class:`StreamingDetector` simply discards the
    sequence marks, and a streaming snapshot restored into a
    :class:`ServingRuntime` leaves the marks at their current values.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"streaming state file does not exist: {path}")
    try:
        state = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CheckpointError(
            f"streaming state {path} is corrupted: {error}"
        ) from error
    if not isinstance(state, dict):
        raise CheckpointError(f"{path} is not a streaming state snapshot")
    fmt = state.get("format")
    is_serving_target = hasattr(streaming, "streaming")
    if fmt == _SERVING_FORMAT and not is_serving_target:
        state = state["streaming"]              # discard sequence marks
        fmt = state.get("format") if isinstance(state, dict) else None
    elif fmt == _STREAM_FORMAT and is_serving_target:
        streaming = streaming.streaming         # marks stay as they are
    if fmt not in (_STREAM_FORMAT, _SERVING_FORMAT):
        raise CheckpointError(
            f"{path} is not a streaming state snapshot"
        )
    try:
        streaming.load_state_dict(state)
    except (KeyError, ValueError, TypeError) as error:
        raise CheckpointError(
            f"streaming state {path} does not match this detector: {error}"
        ) from error
