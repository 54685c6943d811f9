"""Saving and loading fitted MACE detectors.

A fitted detector is (i) the shared network weights, (ii) the per-service
subspaces, and (iii) the config.  Weights go to ``<stem>.npz`` via
:mod:`repro.nn.serialization`; config + subspaces go to ``<stem>.json``.

Crash safety: both artifacts are written to temporary files and atomically
renamed, weights **before** manifest.  The manifest is the commit record —
if the process dies mid-save, the destination either still holds the
previous complete pair or holds no manifest at all; it never holds a
manifest that points at truncated weights.  Loads raise typed errors
(:class:`MissingArtifactError`, :class:`CorruptArtifactError`,
:class:`StateMismatchError`) instead of raw ``KeyError``/``ValueError``
surfacing from deep inside ``load_state``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.core.detector import MaceDetector
from repro.core.model import MaceConfig
from repro.core.trainer import MaceTrainer
from repro.nn.serialization import (
    SerializationError,
    atomic_replace,
    load_state,
    save_state,
)

__all__ = [
    "DetectorPersistenceError",
    "MissingArtifactError",
    "CorruptArtifactError",
    "StateMismatchError",
    "save_detector",
    "load_detector",
]

_MANIFEST_KEYS = ("format", "config", "score_stride", "subspaces",
                  "weights_file")


class DetectorPersistenceError(ValueError):
    """Base class for detector save/load failures.

    Subclasses ``ValueError`` so pre-existing callers that caught the old
    untyped errors keep working.
    """


class MissingArtifactError(DetectorPersistenceError):
    """The manifest or the weights file it references does not exist."""


class CorruptArtifactError(DetectorPersistenceError):
    """An artifact exists but cannot be parsed (truncated/corrupted)."""


class StateMismatchError(DetectorPersistenceError):
    """Manifest and weights disagree (missing keys or shape mismatch)."""


def save_detector(detector: MaceDetector, path: str | Path) -> Path:
    """Persist a fitted detector; returns the JSON manifest path.

    The write is atomic at the pair level: the weights archive lands first,
    the manifest (which references it) last, each via write-temp-then-rename.
    """
    trainer = detector.trainer
    if trainer is None:
        raise ValueError("detector is not fitted; nothing to save")
    path = Path(path)
    stem = path.with_suffix("")
    weights_path = stem.with_suffix(".npz")
    manifest_path = stem.with_suffix(".json")
    save_state(trainer.model.state_dict(), weights_path)
    manifest = {
        "format": "repro.mace-detector.v1",
        "config": dataclasses.asdict(detector.config),
        "score_stride": detector.score_stride,
        "subspaces": trainer.extractor.to_dict(),
        "weights_file": weights_path.name,
    }
    atomic_replace(manifest_path,
                   json.dumps(manifest, indent=2).encode("utf-8"))
    return manifest_path


def load_detector(path: str | Path) -> MaceDetector:
    """Restore a detector saved by :func:`save_detector` (ready to score).

    Raises
    ------
    MissingArtifactError
        Manifest or weights file absent.
    CorruptArtifactError
        Manifest is not valid JSON / not a detector manifest, or the
        weights archive is unreadable.
    StateMismatchError
        Weights archive does not match the model the manifest describes
        (missing/unexpected parameters or a shape mismatch).
    """
    manifest_path = Path(path).with_suffix(".json")
    if not manifest_path.is_file():
        raise MissingArtifactError(
            f"detector manifest does not exist: {manifest_path}"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CorruptArtifactError(
            f"detector manifest {manifest_path} is not valid JSON "
            f"(truncated write?): {error}"
        ) from error
    if not isinstance(manifest, dict) or manifest.get("format") != "repro.mace-detector.v1":
        raise CorruptArtifactError(
            f"unrecognised manifest format in {manifest_path}: "
            f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}"
        )
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise CorruptArtifactError(
            f"manifest {manifest_path} is missing keys {missing}"
        )

    try:
        # Detectors saved before MaceConfig.dtype existed ran in float64.
        config = MaceConfig(**{"dtype": "float64", **manifest["config"]})
    except TypeError as error:
        raise CorruptArtifactError(
            f"manifest {manifest_path} has an invalid config block: {error}"
        ) from error
    detector = MaceDetector(config, score_stride=manifest["score_stride"])
    trainer = MaceTrainer(config)

    weights_path = manifest_path.parent / manifest["weights_file"]
    try:
        state = load_state(weights_path)
    except SerializationError as error:
        if not weights_path.is_file():
            raise MissingArtifactError(str(error)) from error
        raise CorruptArtifactError(str(error)) from error
    try:
        trainer.model.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise StateMismatchError(
            f"weights in {weights_path} do not match the model described "
            f"by {manifest_path}: {error}"
        ) from error
    trainer.model.eval()

    try:
        trainer.extractor.load_dict(manifest["subspaces"])
    except (KeyError, TypeError, ValueError) as error:
        raise CorruptArtifactError(
            f"manifest {manifest_path} has an invalid subspaces block: {error}"
        ) from error
    detector.trainer = trainer
    return detector
