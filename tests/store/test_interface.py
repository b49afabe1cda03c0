"""The SessionStore contract, proven on every backend.

Every durable touch the session layer makes goes through this
interface; these tests pin the semantics each backend must share —
segment round-trips, ordering, truncation, transactional checkpoint
publish, pruning, namespace listing — plus the ``--store`` resolution
grammar that maps CLI specs onto backends.
"""

import os

import pytest

from repro.store import (
    FileStore,
    ObjectStore,
    SqliteStore,
    STORE_BACKENDS,
    load_latest_checkpoint,
    prune_checkpoints,
    prune_to_checkpoints,
    read_store_entries,
    resolve_store,
    store_tail_lines,
)
from repro.store.base import checkpoint_name, encode_checkpoint, segment_name


def make_root(kind, tmp_path):
    return resolve_store(kind, str(tmp_path))


BACKENDS = [pytest.param(kind, id=kind) for kind in STORE_BACKENDS]


def line(seq, payload="x"):
    """A CRC-framed journal line the store helpers can decode."""
    import json
    import zlib
    body = json.dumps({"seq": seq, "p": payload},
                      separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n".encode("utf-8")


def append(store, first_seq, count, *, durable=True):
    appender = store.create_segment(first_seq, durable=durable)
    for seq in range(first_seq, first_seq + count):
        appender.write(line(seq))
    appender.flush()
    if durable:
        appender.sync()
    appender.close()
    return appender.key


@pytest.mark.parametrize("kind", BACKENDS)
class TestSegmentContract:
    def test_segment_round_trip_and_ordering(self, kind, tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            append(store, 1, 3)
            append(store, 4, 2)
            segments = store.segments()
            assert [first for first, _key in segments] == [1, 4]
            assert segments[0][1] == segment_name(1)
            data = store.read_segment(segments[0][1])
            assert data == line(1) + line(2) + line(3)
            assert store.segment_size(segments[0][1]) == len(data)
            entries = [entry["seq"]
                       for entry in read_store_entries(store)]
            assert entries == [1, 2, 3, 4, 5]
        finally:
            root.close()

    def test_truncate_cuts_the_torn_suffix(self, kind, tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            key = append(store, 1, 2)
            keep = len(line(1))
            store.truncate_segment(key, keep)
            assert store.read_segment(key) == line(1)
            assert store.segment_size(key) == keep
        finally:
            root.close()

    def test_delete_segment_removes_it_from_the_listing(self, kind,
                                                        tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            key = append(store, 1, 1)
            append(store, 2, 1)
            store.delete_segment(key)
            assert [first for first, _key in store.segments()] == [2]
        finally:
            root.close()

    def test_open_segment_appends_to_the_existing_tail(self, kind,
                                                       tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            key = append(store, 1, 1)
            appender = store.open_segment(key)
            appender.write(line(2))
            appender.flush()
            appender.sync()
            appender.close()
            assert store.read_segment(key) == line(1) + line(2)
        finally:
            root.close()

    def test_tail_lines_preserve_raw_bytes(self, kind, tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            append(store, 1, 4)
            tail = store_tail_lines(store, after_seq=2)
            assert [seq for seq, _raw in tail] == [3, 4]
            assert tail[0][1] == line(3)
        finally:
            root.close()


@pytest.mark.parametrize("kind", BACKENDS)
class TestCheckpointContract:
    def test_publish_and_read_round_trip(self, kind, tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            state = {"seq": 7, "variables": {}}
            published = store.publish_checkpoint(7, encode_checkpoint(state))
            assert published.endswith(checkpoint_name(7))
            assert store.checkpoints() == [(7, checkpoint_name(7))]
            assert load_latest_checkpoint(store) == state
        finally:
            root.close()

    def test_prune_keeps_only_the_newest(self, kind, tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            for seq in (3, 6, 9):
                store.publish_checkpoint(seq, encode_checkpoint(
                    {"seq": seq}))
            prune_checkpoints(store, 2)
            assert [seq for seq, _key in store.checkpoints()] == [6, 9]
            with pytest.raises(ValueError, match="keep_checkpoints"):
                prune_checkpoints(store, 0)
            assert [seq for seq, _key in store.checkpoints()] == [6, 9]
        finally:
            root.close()

    def test_prune_keeps_the_journal_of_the_oldest_survivor(self, kind,
                                                            tmp_path):
        """Segments go only once the oldest retained checkpoint covers
        every entry in them, and the newest segment always stays."""
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            for first in (1, 4, 7, 10):
                append(store, first, 3)
            for seq in (3, 6, 9, 12):
                store.publish_checkpoint(seq, encode_checkpoint(
                    {"seq": seq}))
            assert prune_to_checkpoints(store, 2) == [segment_name(1),
                                                      segment_name(4),
                                                      segment_name(7)]
            assert [seq for seq, _key in store.checkpoints()] == [9, 12]
            assert [first for first, _key in store.segments()] == [10]
            assert [e["seq"] for e in read_store_entries(
                store, after_seq=9)] == [10, 11, 12]
            assert prune_to_checkpoints(store, 1) == []
            assert [first for first, _key in store.segments()] == [10]
        finally:
            root.close()

    def test_republish_over_same_seq_replaces(self, kind, tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            store.prepare()
            store.publish_checkpoint(5, encode_checkpoint({"seq": 5}))
            store.publish_checkpoint(5, encode_checkpoint(
                {"seq": 5, "v": 1}))
            assert len(store.checkpoints()) == 1
            assert load_latest_checkpoint(store) == {"seq": 5, "v": 1}
        finally:
            root.close()


@pytest.mark.parametrize("kind", BACKENDS)
class TestNamespace:
    def test_exists_and_session_names(self, kind, tmp_path):
        root = make_root(kind, tmp_path)
        try:
            store = root.session("alpha")
            assert not store.exists()
            store.prepare()
            append(store, 1, 1)
            assert store.exists()
            other = root.session("beta")
            other.prepare()
            append(other, 1, 1)
            assert set(root.session_names()) >= {"alpha", "beta"}
            assert not root.session("ghost").exists()
        finally:
            root.close()

    def test_backend_and_location_identify_the_store(self, kind,
                                                     tmp_path):
        root = make_root(kind, tmp_path)
        try:
            assert root.backend == (kind or "file")
            store = root.session("alpha")
            assert store.backend == root.backend
            assert store.location
        finally:
            root.close()


class TestResolveStore:
    def test_none_and_file_map_to_the_file_layout(self, tmp_path):
        for spec in (None, "file"):
            store = resolve_store(spec, str(tmp_path))
            assert isinstance(store, FileStore)
            assert store.root == str(tmp_path)
            store.close()

    def test_explicit_locations_override_the_root(self, tmp_path):
        store = resolve_store(f"file:{tmp_path}/elsewhere", str(tmp_path))
        assert isinstance(store, FileStore)
        assert store.root == f"{tmp_path}/elsewhere"
        store.close()

    def test_sqlite_defaults_to_sessions_db_under_root(self, tmp_path):
        store = resolve_store("sqlite", str(tmp_path))
        try:
            assert isinstance(store, SqliteStore)
            assert store.path == os.path.join(str(tmp_path),
                                              "sessions.db")
        finally:
            store.close()

    def test_object_defaults_to_dot_objects_under_root(self, tmp_path):
        store = resolve_store("object", str(tmp_path))
        try:
            assert isinstance(store, ObjectStore)
            assert store.root == os.path.join(str(tmp_path), ".objects")
        finally:
            store.close()

    def test_unknown_backend_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            resolve_store("postgres:wat", str(tmp_path))
