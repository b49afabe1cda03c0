"""Write-ahead journal: format, durability, rotation, damage handling."""

import json
import math
import os
import zlib

import pytest

from repro.session.journal import (
    JournalCorrupt,
    JournalWriter,
    encode_entry,
    read_entries,
    scan_segments,
)


def entries_of(directory, **kwargs):
    return list(read_entries(directory, **kwargs))


class TestFormat:
    def test_line_format_crc_space_json_newline(self):
        line = encode_entry({"op": "assign", "seq": 1})
        assert line.endswith(b"\n")
        crc_hex, body = line[:-1].split(b" ", 1)
        assert len(crc_hex) == 8
        assert int(crc_hex, 16) == zlib.crc32(body) & 0xFFFFFFFF
        assert json.loads(body) == {"op": "assign", "seq": 1}

    def test_entries_are_compact_and_key_sorted(self):
        line = encode_entry({"z": 1, "a": 2, "seq": 3})
        body = line[9:-1].decode()
        assert body == '{"a":2,"seq":3,"z":1}'

    @pytest.mark.parametrize("entry", [
        {"op": "assign", "var": "v:x", "value": 9, "just": "USER"},
        {"op": "assign", "var": "v:x", "value": 2.5, "just": "USER"},
        {"op": "assign", "var": "v:x", "value": 'quote " slash \\',
         "just": "USER"},
        {"op": "assign", "var": "v:x", "value": "ünïcode", "just": "USER"},
        {"op": "assign", "var": "v:x", "value": True, "just": "USER"},
        {"op": "assign", "var": "v:x", "value": None, "just": "USER"},
        {"op": "assign", "var": "v:x", "value": {"__tuple__": [1, 2]},
         "just": "USER"},
        {"op": "assign", "var": "v:x", "value": math.inf, "just": "USER"},
        {"op": "assign", "var": "v:x", "value": -math.inf, "just": "USER"},
        {"op": "assign", "var": "v:x", "value": math.nan, "just": "USER"},
    ])
    def test_all_encoder_paths_round_trip(self, entry, monkeypatch):
        """Fast path, orjson and the stdlib fallback must agree on the
        decoded entry (escaping, floats, non-finite floats, nesting)."""
        from repro.session import journal as journal_module
        lines = [encode_entry(dict(entry, seq=7))]
        monkeypatch.setattr(journal_module, "_orjson", None)
        lines.append(encode_entry(dict(entry, seq=7)))
        for line in lines:
            crc_hex, body = line[:-1].split(b" ", 1)
            assert int(crc_hex, 16) == zlib.crc32(body) & 0xFFFFFFFF
            decoded, expected = json.loads(body), dict(entry, seq=7)
            value = entry["value"]
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(decoded.pop("value"))
                del expected["value"]
            assert decoded == expected

    def test_stdlib_fallback_matches_accelerated_encoder(self, monkeypatch):
        """With orjson unavailable the stdlib path must produce entries
        that decode identically (bytes may differ only in non-ASCII
        escaping, which CRC and decode both absorb)."""
        from repro.session import journal as journal_module
        samples = [
            {"op": "assign", "var": "v:x", "value": 9, "just": "USER",
             "seq": 1},
            {"op": "assign", "var": "v:x", "value": 'q"\\', "just": "USER",
             "seq": 2},
            {"op": "assign", "var": "v:x", "value": {"__list__": [1, "a"]},
             "just": "USER", "seq": 3},
        ]
        accelerated = [encode_entry(dict(s)) for s in samples]
        monkeypatch.setattr(journal_module, "_orjson", None)
        fallback = [encode_entry(dict(s)) for s in samples]
        for fast_line, slow_line in zip(accelerated, fallback):
            assert json.loads(fast_line[9:-1]) == json.loads(slow_line[9:-1])

    def test_append_assign_fast_path_is_byte_identical(self, tmp_path):
        fast_dir, slow_dir = tmp_path / "fast", tmp_path / "slow"
        with JournalWriter(str(fast_dir), fsync="never") as fast, \
                JournalWriter(str(slow_dir), fsync="never") as slow:
            for var, value_json, value in [("v:x", "7", 7),
                                           ("c:INV:w", '"hi"', "hi"),
                                           ("v:y", "2.5", 2.5)]:
                fast.append_assign(var, value_json, "USER")
                slow.append({"op": "assign", "var": var, "value": value,
                             "just": "USER"})
        fast_bytes = scan_segments(str(fast_dir))[0][1]
        slow_bytes = scan_segments(str(slow_dir))[0][1]
        with open(fast_bytes, "rb") as f, open(slow_bytes, "rb") as s:
            assert f.read() == s.read()


class TestAppendAndRead:
    def test_round_trip_preserves_order_and_sequence(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never") as writer:
            for i in range(10):
                assert writer.append({"op": "assign", "i": i}) == i + 1
        got = entries_of(str(tmp_path))
        assert [e["seq"] for e in got] == list(range(1, 11))
        assert [e["i"] for e in got] == list(range(10))

    def test_after_seq_skips_prefix(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never") as writer:
            for i in range(5):
                writer.append({"i": i})
        got = entries_of(str(tmp_path), after_seq=3)
        assert [e["seq"] for e in got] == [4, 5]

    def test_writer_resumes_existing_tail_segment(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never") as writer:
            writer.append({"i": 0})
        with JournalWriter(str(tmp_path), next_seq=2,
                           fsync="never") as writer:
            writer.append({"i": 1})
        assert len(scan_segments(str(tmp_path))) == 1
        assert [e["seq"] for e in entries_of(str(tmp_path))] == [1, 2]

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            JournalWriter(str(tmp_path), fsync="sometimes")


class TestRotation:
    def test_rotates_past_segment_threshold(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never",
                           segment_max_bytes=128) as writer:
            for i in range(20):
                writer.append({"op": "assign", "i": i})
        segments = scan_segments(str(tmp_path))
        assert len(segments) > 1
        # segment names carry their first sequence number
        firsts = [first for first, _path in segments]
        assert firsts == sorted(firsts)
        assert firsts[0] == 1
        # reading spans all segments seamlessly
        assert [e["i"] for e in entries_of(str(tmp_path))] == list(range(20))

    def test_prune_drops_only_fully_covered_segments(self, tmp_path):
        writer = JournalWriter(str(tmp_path), fsync="never",
                               segment_max_bytes=128)
        for i in range(20):
            writer.append({"op": "assign", "i": i})
        before = scan_segments(str(tmp_path))
        last_first_seq = before[-1][0]
        writer.prune(writer.position - 1)  # everything is covered...
        after = scan_segments(str(tmp_path))
        writer.close()
        # ...but the current segment must survive
        assert [first for first, _ in after] == [last_first_seq]
        assert [e["seq"] for e in entries_of(str(tmp_path))] \
            == list(range(last_first_seq, 21))


class TestDamage:
    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never") as writer:
            for i in range(3):
                writer.append({"i": i})
        _, path = scan_segments(str(tmp_path))[-1]
        with open(path, "ab") as handle:
            handle.write(b'0badc0de {"torn')  # partial final line
        got = entries_of(str(tmp_path))
        assert [e["i"] for e in got] == [0, 1, 2]
        # the torn bytes are gone from disk: future appends extend cleanly
        with JournalWriter(str(tmp_path), next_seq=4,
                           fsync="never") as writer:
            writer.append({"i": 3})
        assert [e["i"] for e in entries_of(str(tmp_path))] == [0, 1, 2, 3]

    def test_crc_mismatch_in_tail_is_truncated(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never") as writer:
            writer.append({"i": 0})
            writer.append({"i": 1})
        _, path = scan_segments(str(tmp_path))[-1]
        data = open(path, "rb").read()
        lines = data.splitlines(keepends=True)
        # flip a byte inside the last line's JSON body
        corrupted = lines[-1][:-3] + b"X" + lines[-1][-2:]
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:-1]) + corrupted)
        assert [e["i"] for e in entries_of(str(tmp_path))] == [0]

    def test_damage_in_non_tail_segment_raises(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never",
                           segment_max_bytes=64) as writer:
            for i in range(10):
                writer.append({"op": "assign", "i": i})
        segments = scan_segments(str(tmp_path))
        assert len(segments) > 2
        _, middle = segments[1]
        with open(middle, "r+b") as handle:
            handle.write(b"garbage")
        with pytest.raises(JournalCorrupt, match="non-tail"):
            entries_of(str(tmp_path))

    def test_sequence_gap_raises(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never") as writer:
            for i in range(4):
                writer.append({"i": i})
        _, path = scan_segments(str(tmp_path))[-1]
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(lines[0] + lines[2] + lines[3])  # drop seq 2
        with pytest.raises(JournalCorrupt, match="sequence gap"):
            entries_of(str(tmp_path))

    def test_hole_after_the_replay_position_raises(self, tmp_path):
        """Replay from seq ``n`` needs seq ``n + 1`` next: a journal that
        now starts later has lost entries, and replaying it would
        silently diverge."""
        with JournalWriter(str(tmp_path), fsync="never",
                           segment_max_bytes=64) as writer:
            for i in range(10):
                writer.append({"op": "assign", "i": i})
        segments = scan_segments(str(tmp_path))
        os.remove(segments[0][1])
        first = segments[1][0]
        for after_seq in (0, first - 2):
            with pytest.raises(JournalCorrupt, match="sequence gap"):
                entries_of(str(tmp_path), after_seq=after_seq)
        assert [e["seq"] for e in entries_of(str(tmp_path),
                                             after_seq=first - 1)] \
            == list(range(first, 11))

    def test_gap_below_the_replay_position_is_not_replayed(self,
                                                           tmp_path):
        """A covered segment that reappears after a crash interrupted
        its pruning leaves a gap replay never reaches."""
        with JournalWriter(str(tmp_path), fsync="never",
                           segment_max_bytes=64) as writer:
            for i in range(10):
                writer.append({"op": "assign", "i": i})
        segments = scan_segments(str(tmp_path))
        assert len(segments) > 3
        os.remove(segments[1][1])
        after_seq = segments[3][0] - 1
        assert [e["seq"] for e in entries_of(str(tmp_path),
                                             after_seq=after_seq)] \
            == list(range(after_seq + 1, 11))
        with pytest.raises(JournalCorrupt, match="sequence gap"):
            entries_of(str(tmp_path))

    def test_no_repair_leaves_torn_bytes_in_place(self, tmp_path):
        with JournalWriter(str(tmp_path), fsync="never") as writer:
            writer.append({"i": 0})
        _, path = scan_segments(str(tmp_path))[-1]
        with open(path, "ab") as handle:
            handle.write(b"torn")
        size = os.path.getsize(path)
        assert [e["i"] for e in entries_of(str(tmp_path),
                                           repair=False)] == [0]
        assert os.path.getsize(path) == size
