"""Journal tail streaming: live follow, rotation, torn lines, buffers.

:func:`~repro.store.base.store_tail_lines` is the replication export
path (a follower polls a live journal with the last seq it holds) and
:meth:`JournalWriter.recent_lines` is the synchronous-replication fast
path (ship the just-appended bytes without touching the disk).  Both
must behave under rotation, torn final lines and ``fsync="never"``
buffering.
"""

import os

import pytest

from repro.session.journal import (
    JournalCorrupt,
    JournalTailGap,
    JournalWriter,
    encode_entry,
)
from repro.store import FileSessionStore, store_tail_lines


class Follower:
    """A follower's position over one journal directory."""

    def __init__(self, directory, after_seq=0):
        self.store = FileSessionStore(str(directory))
        self.position = after_seq

    def poll(self, **kwargs):
        pairs = store_tail_lines(self.store, after_seq=self.position,
                                 **kwargs)
        if pairs:
            self.position = pairs[-1][0]
        return pairs


def append_n(writer, count, start=0):
    for index in range(count):
        writer.append({"op": "assign", "var": "v:x",
                       "value": start + index})


def polled(reader, **kwargs):
    return [seq for seq, _line in reader.poll(**kwargs)]


class TestLiveFollow:
    def test_incremental_poll_sees_each_append(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        reader = Follower(str(tmp_path))
        assert polled(reader) == []
        append_n(writer, 3)
        assert polled(reader) == [1, 2, 3]
        assert polled(reader) == []
        append_n(writer, 2, start=3)
        assert polled(reader) == [4, 5]
        assert reader.position == 5
        writer.close()

    def test_lines_are_the_exact_journal_bytes(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        seq = writer.append({"op": "assign", "var": "v:x", "value": 1})
        pairs = Follower(str(tmp_path)).poll()
        assert pairs == [(seq, encode_entry(
            {"op": "assign", "seq": seq, "var": "v:x", "value": 1}))]
        writer.close()

    def test_follow_across_rotation(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always",
                               segment_max_bytes=120)
        reader = Follower(str(tmp_path))
        total = 12
        seen = []
        for index in range(total):
            writer.append({"op": "assign", "var": "v:x", "value": index})
            seen.extend(polled(reader))
        assert seen == list(range(1, total + 1))
        segments = [name for name in os.listdir(tmp_path)
                    if name.startswith("wal-")]
        assert len(segments) > 1, "rotation did not happen; test is moot"
        writer.close()

    def test_after_seq_resumes_mid_stream(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always",
                               segment_max_bytes=120)
        append_n(writer, 10)
        assert polled(Follower(str(tmp_path), after_seq=7)) \
            == [8, 9, 10]
        writer.close()

    def test_limit_and_max_bytes_chunk_the_stream(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        append_n(writer, 6)
        reader = Follower(str(tmp_path))
        assert polled(reader, limit=2) == [1, 2]
        assert polled(reader, limit=2) == [3, 4]
        rest = reader.poll(max_bytes=1)  # at least one line per poll
        assert [seq for seq, _line in rest] == [5]
        assert polled(reader) == [6]
        writer.close()


class TestTornTails:
    def test_torn_final_line_means_wait_not_corrupt(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        append_n(writer, 2)
        writer.close()
        (segment,) = [os.path.join(tmp_path, name)
                      for name in os.listdir(tmp_path)
                      if name.startswith("wal-")]
        with open(segment, "ab") as handle:
            handle.write(b"deadbeef {\"torn")  # no newline: mid-write
        reader = Follower(str(tmp_path))
        assert polled(reader) == [1, 2]  # waits for the rest, no raise
        assert polled(reader) == []

    def test_corrupt_complete_line_at_tail_waits_for_repair(self, tmp_path):
        """A CRC-failing line *with* newline at the very tail is still
        'a write in progress' from the reader's side — recovery on the
        writer side will truncate it; the reader must not declare the
        journal corrupt."""
        writer = JournalWriter(str(tmp_path), fsync="always")
        append_n(writer, 2)
        writer.close()
        (segment,) = [os.path.join(tmp_path, name)
                      for name in os.listdir(tmp_path)
                      if name.startswith("wal-")]
        with open(segment, "ab") as handle:
            handle.write(b"00000000 {\"bad\":1}\n")
        reader = Follower(str(tmp_path))
        assert polled(reader) == [1, 2]

    def test_corruption_before_the_tail_raises(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        append_n(writer, 3)
        writer.close()
        (segment,) = [os.path.join(tmp_path, name)
                      for name in os.listdir(tmp_path)
                      if name.startswith("wal-")]
        data = open(segment, "rb").read().splitlines(keepends=True)
        data[1] = b"00000000 " + data[1][9:]  # break line 2's CRC
        open(segment, "wb").write(b"".join(data))
        with pytest.raises(JournalCorrupt):
            Follower(str(tmp_path)).poll()

    def test_sequence_gap_inside_journal_raises(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        append_n(writer, 1)
        writer.close()
        (segment,) = [os.path.join(tmp_path, name)
                      for name in os.listdir(tmp_path)
                      if name.startswith("wal-")]
        with open(segment, "ab") as handle:
            handle.write(encode_entry({"op": "assign", "seq": 5}))
            handle.write(encode_entry({"op": "assign", "seq": 6}))
        with pytest.raises(JournalCorrupt):
            Follower(str(tmp_path)).poll()


class TestFsyncNeverBuffering:
    def test_buffered_lines_invisible_until_sync(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="never")
        reader = Follower(str(tmp_path))
        append_n(writer, 3)
        assert polled(reader) == []  # still in the writer's buffer
        writer.sync()
        assert polled(reader) == [1, 2, 3]
        writer.close()

    def test_recent_lines_sees_buffered_appends(self, tmp_path):
        """The in-memory tail covers exactly the fsync="never" blind
        spot: replication ships acknowledged lines the disk does not
        show yet."""
        writer = JournalWriter(str(tmp_path), fsync="never")
        append_n(writer, 3)
        lines = writer.recent_lines(0)
        assert [line for line in lines] \
            == [encode_entry({"op": "assign", "seq": seq, "var": "v:x",
                              "value": seq - 1}) for seq in (1, 2, 3)]
        writer.close()


class TestRecentLines:
    def test_caught_up_returns_empty(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        append_n(writer, 2)
        assert writer.recent_lines(2) == []
        assert writer.recent_lines(99) == []
        writer.close()

    def test_partial_tail_returns_the_delta(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        append_n(writer, 4)
        lines = writer.recent_lines(2)
        assert len(lines) == 2
        writer.close()

    def test_overflowed_buffer_returns_none(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always",
                               tail_lines=2)
        append_n(writer, 5)
        assert writer.recent_lines(1) is None  # seqs 2,3 fell out
        assert len(writer.recent_lines(3)) == 2
        writer.close()

    def test_empty_journal_has_no_delta(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always")
        assert writer.recent_lines(0) == []
        writer.close()


class TestPrunedPast:
    def test_reader_behind_pruned_segments_gets_gap(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always",
                               segment_max_bytes=120)
        append_n(writer, 12)
        writer.prune(10)
        assert len([name for name in os.listdir(tmp_path)
                    if name.startswith("wal-")]) >= 1
        with pytest.raises(JournalTailGap):
            Follower(str(tmp_path)).poll()

    def test_reader_at_pruned_boundary_continues(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="always",
                               segment_max_bytes=120)
        append_n(writer, 12)
        writer.prune(10)
        remaining_first = min(
            int(name[4:-6]) for name in os.listdir(tmp_path)
            if name.startswith("wal-"))
        reader = Follower(str(tmp_path),
                                   after_seq=remaining_first - 1)
        assert polled(reader)[-1] == 12
        writer.close()
