"""Crash-safe per-tenant dispatch journals — write-ahead wire records.

The service's durability layer: every accepted wire request is appended
to the tenant's journal *before* it is applied, so a service process
killed mid-run can be restarted and every tenant session rebuilt
bit-identically by replaying the journal through the one request path
(:meth:`~repro.api.session.DispatchSession.apply`) the live service
uses.  Sessions are deterministic functions of their accepted record
sequence — that is the wire-equivalence property the test suite pins —
so replay *is* recovery; no session state is ever serialized.

On-disk format (``<journal_dir>/<quoted tenant>.wal``): one framed
line per entry ::

    <length:08x> <crc32:08x> {"record": {...}, "seq": N}\\n

``length`` and ``crc32`` cover the JSON payload bytes, so a torn tail —
the half-written line a crash leaves behind — fails its frame check and
is truncated away on open instead of poisoning the replay.  Sequence
numbers are per-tenant, strictly increasing, and deduplicated on read:
a client retry of an already-journaled request is a no-op.

The write-ahead log is the only file the service writes: an append is
one framed write plus the configured group-commit fsync, whatever the
tenant's age.  A ``.ckpt`` file in the same framing — left by an older
version that folded the log into it, or by an explicit
:meth:`TenantJournal.checkpoint` — is still read first on replay, then
the log, skipping any sequence number already seen, and is removed with
the journal.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Mapping
from urllib.parse import quote, unquote

from repro.errors import ConfigurationError, JournalError

__all__ = ["TenantJournal", "journal_tenants"]

#: Bytes of ``"<length:08x> <crc32:08x> "`` preceding every payload.
_FRAME_HEADER = 18


def _frame(payload: bytes) -> bytes:
    """One framed journal line: length + crc32 guard the payload."""
    return b"%08x %08x " % (len(payload), zlib.crc32(payload)) + payload + b"\n"


def _encode_entry(seq: int, record: Mapping[str, Any]) -> bytes:
    payload = json.dumps(
        {"record": dict(record), "seq": seq},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return _frame(payload)


def _parse_frames(data: bytes) -> "tuple[list[Any], int]":
    """Decode framed lines; returns ``(payloads, clean_byte_length)``.

    Parsing stops at the first frame that fails any check — a short
    header, a length or crc32 mismatch, or unparsable JSON.  That is
    the torn tail a crash mid-append leaves; everything before it was
    fully written (each frame self-verifies), everything at and after
    it is suspect and must be truncated, never replayed.
    """
    payloads: list[Any] = []
    offset = 0
    while offset < len(data):
        end = data.find(b"\n", offset)
        if end < 0:
            break
        line = data[offset:end]
        if len(line) < _FRAME_HEADER or line[8:9] != b" " or line[17:18] != b" ":
            break
        try:
            length = int(line[0:8], 16)
            checksum = int(line[9:17], 16)
        except ValueError:
            break
        body = line[_FRAME_HEADER:]
        if len(body) != length or zlib.crc32(body) != checksum:
            break
        try:
            payloads.append(json.loads(body.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        offset = end + 1
    return payloads, offset


def journal_tenants(directory: "str | Path") -> list[str]:
    """Tenant names with journal files under ``directory``, sorted.

    The inverse of the filename quoting: a tenant named ``"a/b"``
    journals to ``a%2Fb.wal`` and comes back as ``"a/b"`` here.
    """
    root = Path(directory)
    if not root.is_dir():
        return []
    names = {
        unquote(path.stem)
        for path in root.iterdir()
        if path.suffix in (".wal", ".ckpt")
    }
    return sorted(names)


class TenantJournal:
    """One tenant's append-only write-ahead journal.

    Not thread-safe — the service's per-tenant consumer is the single
    writer, which is exactly the ordering the journal must capture.

    ``fsync_every`` batches fsyncs: 1 (the default) syncs every append
    before it returns — an acknowledged request is durable; larger
    values trade the tail of a crash (at most ``fsync_every - 1``
    acknowledged entries) for fewer disk round-trips.
    """

    def __init__(
        self,
        directory: "str | Path",
        tenant: str,
        *,
        fsync_every: int = 1,
    ):
        if fsync_every < 1:
            raise ConfigurationError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        self.tenant = tenant
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise JournalError(
                f"cannot create journal directory {self.directory}: {exc}"
            ) from exc
        stem = quote(tenant, safe="")
        self.wal_path = self.directory / (stem + ".wal")
        self.ckpt_path = self.directory / (stem + ".ckpt")
        self.fsync_every = fsync_every
        #: Highest sequence number written or replayed so far.
        self.last_seq = 0
        self._handle: Any = None
        self._pending = 0

    # -- reading -----------------------------------------------------------

    def entries(self) -> "list[tuple[int, dict[str, Any]]]":
        """Every journaled ``(seq, wire_record_dict)`` in replay order.

        Reads the checkpoint then the write-ahead log, truncating any
        torn tail in place and skipping duplicate sequence numbers.
        Updates :attr:`last_seq` to the highest sequence seen.
        """
        combined: list[tuple[int, dict[str, Any]]] = []
        last = 0
        for path in (self.ckpt_path, self.wal_path):
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue
            payloads, clean = _parse_frames(data)
            if clean < len(data):
                with open(path, "r+b") as handle:
                    handle.truncate(clean)
            for payload in payloads:
                if (
                    not isinstance(payload, dict)
                    or not isinstance(payload.get("seq"), int)
                    or not isinstance(payload.get("record"), dict)
                ):
                    # A checksummed frame with the wrong shape is a
                    # writer bug, not a crash — refuse to guess.
                    raise JournalError(
                        f"tenant {self.tenant!r} journal entry is not a "
                        f"seq/record pair: {payload!r}"
                    )
                seq = payload["seq"]
                if seq > last:
                    combined.append((seq, payload["record"]))
                    last = seq
        self.last_seq = max(self.last_seq, last)
        return combined

    # -- writing -----------------------------------------------------------

    def append(self, seq: int, record: Mapping[str, Any]) -> None:
        """Journal one accepted wire record under sequence ``seq``.

        Sequence numbers must strictly increase — deduplicating retries
        is the caller's (the service's) admission job, so a regression
        here is a bug, not a retry.
        """
        if seq <= self.last_seq:
            raise JournalError(
                f"tenant {self.tenant!r} journal sequence must increase: "
                f"got {seq} after {self.last_seq}"
            )
        if self._handle is None:
            self._handle = open(self.wal_path, "ab")
        self._handle.write(_encode_entry(seq, record))
        self.last_seq = seq
        self._pending += 1
        if self._pending >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Flush buffered appends to disk (fsync)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._pending = 0

    def checkpoint(self) -> None:
        """Fold the write-ahead log into the checkpoint file.

        The service never calls this: it rewrites every entry since the
        tenant opened, so its cost grows with the tenant's age, while
        replay still reads every entry.  The new checkpoint is written
        to a temp file, fsynced, and atomically renamed over the old one
        before the log is truncated — a crash at any point leaves either
        the old checkpoint + full log or the new checkpoint (+ a log
        whose entries the sequence dedup skips on replay).
        """
        self.sync()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        entries = self.entries()
        tmp = self.ckpt_path.with_name(self.ckpt_path.name + ".tmp")
        with open(tmp, "wb") as handle:
            for seq, record in entries:
                handle.write(_encode_entry(seq, record))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.ckpt_path)
        with open(self.wal_path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Sync and release the write handle (files stay for recovery)."""
        self.sync()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        """Remove the tenant's journal files (the session finished)."""
        self.close()
        for path in (self.wal_path, self.ckpt_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "TenantJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
