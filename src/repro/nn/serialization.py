"""Saving and loading module state dicts via ``numpy.savez``.

Writes are **crash-safe**: the archive is serialized in memory, written
to a temporary sibling file, fsynced and atomically renamed into place
(:func:`atomic_replace`), so neither a process killed mid-save nor a
power cut can leave a truncated ``.npz`` at the destination path.
Loads raise a typed :class:`SerializationError` (with the path in the
message) instead of whatever ``zipfile``/``numpy`` internals happen to
throw on a missing or corrupted archive.
"""

from __future__ import annotations

import io
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Dict

import numpy as np

from repro.nn.modules.base import Module

__all__ = [
    "SerializationError",
    "atomic_replace",
    "fsync_directory",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
]


class SerializationError(RuntimeError):
    """A state archive is missing, truncated, or otherwise unreadable."""


def fsync_directory(directory: str | Path) -> None:
    """Flush a directory's entry table to disk (best effort).

    ``os.replace`` makes the *content* swap atomic, but the new directory
    entry itself only survives a power cut once the directory inode is
    synced.  No-ops on platforms/filesystems that cannot fsync a
    directory handle.
    """
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def atomic_replace(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives in the destination directory so the final
    rename never crosses a filesystem boundary.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
    return path


def save_state(state: Dict[str, np.ndarray], path: str | Path) -> None:
    """Write a state dict to ``path`` (``.npz``) through :func:`atomic_replace`."""
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    atomic_replace(path, buffer.getvalue())


def load_state(path: str | Path) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`.

    Raises
    ------
    SerializationError
        When the archive does not exist or cannot be parsed (truncated
        write, disk corruption, wrong file type).
    """
    path = Path(path)
    if not path.is_file():
        raise SerializationError(f"state archive does not exist: {path}")
    try:
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, OSError, EOFError, ValueError, KeyError) as error:
        raise SerializationError(
            f"state archive {path} is corrupted or unreadable: {error}"
        ) from error


def save_module(module: Module, path: str | Path) -> None:
    """Persist a module's parameters and buffers."""
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str | Path, strict: bool = True) -> Module:
    """Restore a module in place and return it."""
    module.load_state_dict(load_state(path), strict=strict)
    return module
