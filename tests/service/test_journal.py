"""Unit tests for the crash-safe tenant journal (framing, torn tails,
checkpoint files, sequence dedup, no rewrite while serving)."""

import asyncio
import json
import zlib

import pytest

from repro.api.wire import Advance, OpenSession, encode_record
from repro.errors import ConfigurationError, JournalError
from repro.service import DispatchService, ServiceConfig, TenantJournal, journal_tenants


def open_record():
    return encode_record(OpenSession(method="GRD"))


def advance_record(to_time=1.0):
    return encode_record(Advance(to_time=to_time))


def frame(seq, record):
    """One journal line, framed by hand (length + crc32 + payload)."""
    payload = json.dumps({"record": record, "seq": seq}).encode()
    return b"%08x %08x " % (len(payload), zlib.crc32(payload)) + payload + b"\n"


class TestFraming:
    def test_append_entries_round_trip(self, tmp_path):
        journal = TenantJournal(tmp_path, "acme")
        journal.append(1, open_record())
        journal.append(2, advance_record(0.5))
        journal.append(3, advance_record(1.0))
        journal.close()

        fresh = TenantJournal(tmp_path, "acme")
        entries = fresh.entries()
        assert [seq for seq, _ in entries] == [1, 2, 3]
        assert entries[0][1] == open_record()
        assert entries[2][1] == advance_record(1.0)
        assert fresh.last_seq == 3

    def test_every_line_carries_length_and_crc(self, tmp_path):
        journal = TenantJournal(tmp_path, "acme")
        journal.append(1, open_record())
        journal.close()
        line = journal.wal_path.read_bytes().splitlines()[0]
        payload = line[18:]
        assert int(line[0:8], 16) == len(payload)
        assert int(line[9:17], 16) == zlib.crc32(payload)
        assert json.loads(payload) == {"record": open_record(), "seq": 1}

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        journal = TenantJournal(tmp_path, "acme")
        journal.append(1, open_record())
        journal.append(2, advance_record())
        journal.close()
        # A crash mid-append leaves half a line behind.
        with open(journal.wal_path, "ab") as handle:
            handle.write(b"00000042 deadbeef {\"seq\": 3, \"rec")

        fresh = TenantJournal(tmp_path, "acme")
        entries = fresh.entries()
        assert [seq for seq, _ in entries] == [1, 2]
        # The torn bytes are gone from disk: the next append is clean.
        fresh.append(3, advance_record(2.0))
        fresh.close()
        again = TenantJournal(tmp_path, "acme")
        assert [seq for seq, _ in again.entries()] == [1, 2, 3]

    def test_corrupted_crc_truncates_from_that_frame(self, tmp_path):
        journal = TenantJournal(tmp_path, "acme")
        journal.append(1, open_record())
        journal.append(2, advance_record())
        journal.close()
        data = bytearray(journal.wal_path.read_bytes())
        data[-3] ^= 0xFF  # flip a payload byte of the last frame
        journal.wal_path.write_bytes(bytes(data))

        fresh = TenantJournal(tmp_path, "acme")
        assert [seq for seq, _ in fresh.entries()] == [1]

    def test_checksummed_frame_with_wrong_shape_is_a_writer_bug(self, tmp_path):
        journal = TenantJournal(tmp_path, "acme")
        payload = json.dumps(["not", "a", "mapping"]).encode()
        with open(journal.wal_path, "wb") as handle:
            handle.write(b"%08x %08x " % (len(payload), zlib.crc32(payload)))
            handle.write(payload + b"\n")
        with pytest.raises(JournalError):
            journal.entries()


class TestSequencing:
    def test_sequence_must_strictly_increase(self, tmp_path):
        journal = TenantJournal(tmp_path, "acme")
        journal.append(1, open_record())
        with pytest.raises(JournalError):
            journal.append(1, advance_record())

    def test_duplicate_sequences_across_files_are_deduped(self, tmp_path):
        # A crash between checkpoint-replace and wal-truncate leaves the
        # same entries in both files; replay must not double-apply.
        journal = TenantJournal(tmp_path, "acme")
        journal.append(1, open_record())
        journal.append(2, advance_record())
        journal.checkpoint()
        journal.close()
        # Simulate the torn checkpoint window: re-write the wal with the
        # already-checkpointed entries still in it.
        stale = TenantJournal(tmp_path / "other", "acme")
        stale.append(1, open_record())
        stale.append(2, advance_record())
        stale.close()
        journal.wal_path.write_bytes(stale.wal_path.read_bytes())

        fresh = TenantJournal(tmp_path, "acme")
        assert [seq for seq, _ in fresh.entries()] == [1, 2]

    def test_fsync_every_validates(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TenantJournal(tmp_path, "acme", fsync_every=0)


class TestCheckpoint:
    def test_checkpoint_folds_wal_and_truncates(self, tmp_path):
        journal = TenantJournal(tmp_path, "acme")
        journal.append(1, open_record())
        journal.append(2, advance_record(0.5))
        journal.checkpoint()
        assert journal.wal_path.stat().st_size == 0
        assert journal.ckpt_path.stat().st_size > 0
        journal.append(3, advance_record(1.0))
        journal.close()

        fresh = TenantJournal(tmp_path, "acme")
        assert [seq for seq, _ in fresh.entries()] == [1, 2, 3]

    def test_delete_removes_both_files(self, tmp_path):
        journal = TenantJournal(tmp_path, "acme")
        journal.append(1, open_record())
        journal.checkpoint()
        journal.append(2, advance_record())
        journal.delete()
        assert not journal.wal_path.exists()
        assert not journal.ckpt_path.exists()
        assert journal_tenants(tmp_path) == []


class TestLegacyCheckpoint:
    def test_legacy_ckpt_is_read_once_and_deleted_with_the_wal(self, tmp_path):
        # Older versions folded the WAL into a `.ckpt` file; a crash
        # between that fold and the WAL truncation left the same entries
        # in both.  Replay must apply each sequence number once.
        journal = TenantJournal(tmp_path, "acme")
        journal.ckpt_path.write_bytes(
            frame(1, open_record()) + frame(2, advance_record(0.5))
        )
        journal.wal_path.write_bytes(
            frame(1, open_record())
            + frame(2, advance_record(0.5))
            + frame(3, advance_record(1.0))
        )
        assert journal_tenants(tmp_path) == ["acme"]

        entries = journal.entries()
        assert [seq for seq, _ in entries] == [1, 2, 3]
        assert entries[2][1] == advance_record(1.0)
        assert journal.last_seq == 3

        journal.delete()
        assert not journal.wal_path.exists()
        assert not journal.ckpt_path.exists()
        assert journal_tenants(tmp_path) == []


class TestServiceWrites:
    def test_serving_appends_frames_and_never_rewrites(self, tmp_path, monkeypatch):
        # More appends than any fold cadence: serving must only ever
        # append to the WAL, never read the journal back.
        appends = 300
        reads = []
        read_entries = TenantJournal.entries

        def spy(journal):
            reads.append(journal.tenant)
            return read_entries(journal)

        monkeypatch.setattr(TenantJournal, "entries", spy)

        async def serve():
            service = DispatchService(
                ServiceConfig(journal_dir=str(tmp_path), journal_fsync_every=8)
            )
            await service.open_session("acme", OpenSession(method="GRD"))
            for seq in range(2, appends + 1):
                await service.submit("acme", Advance(to_time=0.01 * seq), seq=seq)
            await service.close()

        asyncio.run(serve())
        monkeypatch.undo()
        assert reads == []

        journal = TenantJournal(tmp_path, "acme")
        assert not journal.ckpt_path.exists()
        data = journal.wal_path.read_bytes()
        lines = data.splitlines()
        assert len(lines) == appends
        assert len(data) == sum(18 + int(line[0:8], 16) + 1 for line in lines)
        entries = journal.entries()
        assert [seq for seq, _ in entries] == list(range(1, appends + 1))
        assert entries[-1][1] == advance_record(0.01 * appends)


class TestDiscovery:
    def test_tenant_names_round_trip_through_quoting(self, tmp_path):
        for tenant in ("plain", "with space", "a/b", "pct%40sign"):
            journal = TenantJournal(tmp_path, tenant)
            journal.append(1, open_record())
            journal.close()
        assert journal_tenants(tmp_path) == sorted(
            ["plain", "with space", "a/b", "pct%40sign"]
        )

    def test_missing_directory_is_empty(self, tmp_path):
        assert journal_tenants(tmp_path / "nope") == []
