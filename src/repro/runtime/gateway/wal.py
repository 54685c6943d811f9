"""Crash-safe per-shard write-ahead log (CRC-framed, fsync'd segments).

The gateway's durability contract — *an acknowledged update is never
lost* — rests entirely on this file.  Every accepted point update is
appended here **before** the client sees ``accepted``; if the shard's
worker then dies, the respawned worker is rebuilt from its last snapshot
plus a replay of these records.  Because each record carries the
client's per-service sequence number and
:meth:`~repro.runtime.serving.ServingRuntime.update` skips
already-applied sequences, replay is idempotent: re-delivering the whole
log after a partial apply converges on the same state bit for bit.

On-disk format (one ``wal-NNNNNNNN.seg`` file per segment)::

    [b"RW"][length u32 LE][crc32 u32 LE][payload bytes]  x N records

``payload`` is UTF-8 JSON.  Floats survive the JSON round-trip exactly
(``repr`` is shortest-round-trip in Python 3), so a replayed observation
is the same float64s that were acknowledged — the bitwise chaos gate
depends on this.

Entry payloads are themselves versioned: schema-2 entries (written
since distributed tracing landed) carry ``{"schema": 2, "trace": {...}}``
alongside the update fields, so a post-failover replay re-parents its
spans under the trace that originally admitted the update.  Schema-1
entries predate tracing, have neither key, and replay untraced — old
logs stay fully replayable.

Failure stance mirrors the repo's checkpoint layer: a torn *final*
record in the *last* segment is a crash mid-append and is silently
discarded (it was never acknowledged — the fsync that would have made it
durable never returned).  Any other damage — CRC mismatch, bad magic, a
tear anywhere else — is real corruption and raises
:class:`WalCorruptionError` rather than silently serving a hole in the
history.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List

from repro.nn.serialization import fsync_directory

__all__ = ["ENTRY_SCHEMA", "WalCorruptionError", "WalRecord",
           "WriteAheadLog", "read_wal"]

# Version of the *entry payload* shape the gateway writes today (the
# frame format above is unversioned and unchanged).  Bumped to 2 when
# entries grew the embedded trace context; readers treat entries with no
# "schema" key as schema 1.
ENTRY_SCHEMA = 2

_MAGIC = b"RW"
_HEADER_BYTES = len(_MAGIC) + 4 + 4       # magic + length + crc32
_SEGMENT_PATTERN = re.compile(r"wal-(\d{8})\.seg$")


class WalCorruptionError(RuntimeError):
    """A WAL segment is damaged beyond the torn-final-record allowance."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded record: its log sequence number and JSON payload."""

    lsn: int
    payload: dict


def _encode(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return (_MAGIC + len(body).to_bytes(4, "little")
            + zlib.crc32(body).to_bytes(4, "little") + body)


def _segment_paths(directory: Path) -> List[Path]:
    """The directory's segment files, in segment-index order."""
    found = [(int(match.group(1)), entry)
             for entry in directory.iterdir()
             if (match := _SEGMENT_PATTERN.match(entry.name))]
    return [entry for _, entry in sorted(found)]


def _decode_segment(data: bytes, path: Path, start_lsn: int,
                    final_segment: bool) -> List[WalRecord]:
    """Decode one segment's bytes; tolerate a torn tail only when allowed."""
    records: List[WalRecord] = []
    offset = 0
    lsn = start_lsn
    while offset < len(data):
        header = data[offset:offset + _HEADER_BYTES]
        if len(header) < _HEADER_BYTES:
            if final_segment:
                break                       # torn header mid-append
            raise WalCorruptionError(
                f"{path}: truncated record header at offset {offset} in "
                "a non-final segment"
            )
        if not header.startswith(_MAGIC):
            raise WalCorruptionError(
                f"{path}: bad record magic at offset {offset}"
            )
        length = int.from_bytes(header[2:6], "little")
        crc = int.from_bytes(header[6:10], "little")
        body = data[offset + _HEADER_BYTES:offset + _HEADER_BYTES + length]
        if len(body) < length:
            if final_segment:
                break                       # torn body mid-append
            raise WalCorruptionError(
                f"{path}: truncated record at offset {offset} in a "
                "non-final segment"
            )
        if zlib.crc32(body) != crc:
            raise WalCorruptionError(
                f"{path}: CRC mismatch at offset {offset} "
                f"(record lsn {lsn})"
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise WalCorruptionError(
                f"{path}: record lsn {lsn} passed CRC but is not JSON: "
                f"{error}"
            ) from error
        records.append(WalRecord(lsn=lsn, payload=payload))
        lsn += 1
        offset += _HEADER_BYTES + length
    return records


class WriteAheadLog:
    """Appendable, segment-rotated WAL over one directory.

    ``append`` buffers a record; ``commit`` makes everything appended so
    far durable (flush + fsync) and returns the last durable LSN.  The
    gateway acknowledges a submit only after ``commit`` covers its
    record, coalescing concurrent submitters into one fsync (group
    commit).

    Opening an existing directory recovers: prior segments are scanned,
    a torn final record is dropped (and physically truncated so the next
    append never writes after garbage), and appends continue at the next
    LSN.
    """

    def __init__(self, directory: str | Path,
                 segment_bytes: int = 1 << 20):
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        self.directory = Path(directory)
        self.segment_bytes = segment_bytes
        self.directory.mkdir(parents=True, exist_ok=True)
        self._file = None
        self._segment_index = 0
        self._segment_size = 0
        self.next_lsn = 0
        self._durable_lsn = -1              # last fsync-covered LSN
        self._recover()

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        segments = _segment_paths(self.directory)
        lsn = 0
        for position, segment in enumerate(segments):
            final = position == len(segments) - 1
            records = _decode_segment(segment.read_bytes(), segment, lsn,
                                      final_segment=final)
            lsn += len(records)
            if final:
                # Physically drop any torn tail so future appends start
                # clean at a record boundary.
                valid_bytes = sum(
                    _HEADER_BYTES + len(json.dumps(r.payload, sort_keys=True)
                                        .encode("utf-8"))
                    for r in records
                )
                if valid_bytes < segment.stat().st_size:
                    with open(segment, "rb+") as handle:
                        handle.truncate(valid_bytes)
                        handle.flush()
                        os.fsync(handle.fileno())
        self.next_lsn = lsn
        self._durable_lsn = lsn - 1
        if segments:
            last = segments[-1]
            self._segment_index = int(_SEGMENT_PATTERN.match(last.name)
                                      .group(1))
            self._segment_size = last.stat().st_size
            self._file = open(last, "ab")
        else:
            self._open_segment(1)

    def _open_segment(self, index: int) -> None:
        self._segment_index = index
        self._segment_size = 0
        path = self.directory / f"wal-{index:08d}.seg"
        self._file = open(path, "ab")
        fsync_directory(self.directory)

    # ------------------------------------------------------------------
    def append(self, payload: dict) -> int:
        """Buffer one record; returns its LSN (durable only after
        :meth:`commit` reaches it)."""
        if self._file is None:
            raise RuntimeError("WAL is closed")
        if self._segment_size >= self.segment_bytes:
            self._rotate()
        frame = _encode(payload)
        self._file.write(frame)
        self._segment_size += len(frame)
        lsn = self.next_lsn
        self.next_lsn += 1
        return lsn

    def commit(self) -> int:
        """Flush + fsync everything appended; returns last durable LSN."""
        if self._file is None:
            raise RuntimeError("WAL is closed")
        if self._durable_lsn < self.next_lsn - 1:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._durable_lsn = self.next_lsn - 1
        return self._durable_lsn

    @property
    def durable_lsn(self) -> int:
        """Last LSN covered by a completed :meth:`commit` (-1: none)."""
        return self._durable_lsn

    def _rotate(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self._durable_lsn = self.next_lsn - 1
        self._file.close()
        self._open_segment(self._segment_index + 1)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._file is not None:
            self.commit()
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_wal(directory: str | Path, start_lsn: int = 0) -> List[WalRecord]:
    """Decode every record under a WAL directory, in LSN order.

    A torn final record in the last segment is dropped; any other damage
    raises :class:`WalCorruptionError`.
    """
    segments = _segment_paths(Path(directory))
    records: List[WalRecord] = []
    for position, segment in enumerate(segments):
        records.extend(_decode_segment(
            segment.read_bytes(), segment, len(records),
            final_segment=position == len(segments) - 1,
        ))
    return [record for record in records if record.lsn >= start_lsn]
