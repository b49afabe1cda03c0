"""Tiered snapshot compaction: fold cold segments into a checkpoint.

Per backend: compaction publishes a boundary checkpoint, prunes every
covered segment, and leaves the recovered fingerprint untouched; the
publish window is crash-covered (a kill mid-compaction loses nothing).
"""

import os

import pytest

from repro.faults import CrashPoint, FaultPlan
from repro.session import Session
from repro.store import (
    FileStore,
    ObjectStore,
    SqliteStore,
    STORE_BACKENDS,
    load_latest_checkpoint,
    resolve_store,
)
from repro.store.compact import compact_session

PARAMS = [pytest.param(kind, id=kind) for kind in STORE_BACKENDS]


def grow(root_store, name="session", assigns=40):
    """A session rotated into many tiny segments, then closed."""
    session = Session(name, store=root_store.session(name),
                      segment_max_bytes=200)
    session.make_variable("x")
    for value in range(assigns):
        session.assign("v:x", value)
    session.close()


def fingerprint(kind, root, name="session"):
    """What a healthy process recovers from the root's bytes."""
    store = resolve_store(kind, str(root))
    try:
        session = Session(name, store=store.session(name),
                          read_only=True)
        try:
            return session.fingerprint(include_stats=False)
        finally:
            session.close()
    finally:
        store.close()


def faulty_root(kind, root, plan):
    """The backend over ``root``'s bytes with ``plan`` gating its I/O,
    at the same default location ``resolve_store`` would pick."""
    if kind == "file":
        return FileStore(str(root), plan=plan)
    if kind == "sqlite":
        return SqliteStore(os.path.join(str(root), "sessions.db"),
                           plan=plan)
    return ObjectStore(os.path.join(str(root), ".objects"), plan=plan)


@pytest.mark.parametrize("kind", PARAMS)
class TestCompactSession:
    def test_folds_cold_segments_and_preserves_the_state(self, kind,
                                                         tmp_path):
        root = resolve_store(kind, str(tmp_path))
        try:
            grow(root)
            store = root.session("session")
            before = fingerprint(kind, tmp_path)
            cold = len(store.segments())
            assert cold > 3, "rotation did not produce enough segments"

            report = compact_session(store, keep_segments=2)
            assert report["performed"]
            assert len(store.segments()) == 2
            assert len(report["pruned_segments"]) == cold - 2
            checkpoint = load_latest_checkpoint(store)
            assert checkpoint["seq"] == report["checkpoint_seq"]
            assert fingerprint(kind, tmp_path) == before
        finally:
            root.close()

    def test_compaction_is_idempotent(self, kind, tmp_path):
        root = resolve_store(kind, str(tmp_path))
        try:
            grow(root)
            store = root.session("session")
            first = compact_session(store, keep_segments=2)
            assert first["performed"]
            again = compact_session(store, keep_segments=2)
            assert not again["performed"]
        finally:
            root.close()

    def test_noop_when_nothing_is_cold(self, kind, tmp_path):
        root = resolve_store(kind, str(tmp_path))
        try:
            grow(root, assigns=2)
            store = root.session("session")
            report = compact_session(store,
                                     keep_segments=len(store.segments()))
            assert not report["performed"]
            assert report["checkpoint_seq"] is None
        finally:
            root.close()

    def test_noop_when_a_designer_checkpoint_already_covers(self, kind,
                                                            tmp_path):
        root = resolve_store(kind, str(tmp_path))
        try:
            session = Session("session", store=root.session("session"),
                              segment_max_bytes=200)
            session.make_variable("x")
            for value in range(40):
                session.assign("v:x", value)
            session.checkpoint()  # covers everything up to the tail
            session.close()
            report = compact_session(root.session("session"),
                                     keep_segments=1)
            assert not report["performed"]
        finally:
            root.close()

    def test_keep_segments_must_leave_a_tail(self, kind, tmp_path):
        root = resolve_store(kind, str(tmp_path))
        try:
            with pytest.raises(ValueError):
                compact_session(root.session("session"), keep_segments=0)
        finally:
            root.close()

    def test_keep_checkpoints_zero_is_refused_untouched(self, kind,
                                                        tmp_path):
        """Keeping no checkpoint would delete the one that covers the
        pruned segments; the request fails before anything changes."""
        root = resolve_store(kind, str(tmp_path))
        try:
            grow(root, assigns=30)
            store = root.session("session")
            before = fingerprint(kind, tmp_path)
            segments = store.segments()
            with pytest.raises(ValueError, match="keep_checkpoints"):
                compact_session(store, keep_checkpoints=0)
            assert store.segments() == segments
            assert store.checkpoints() == []
            assert fingerprint(kind, tmp_path) == before
        finally:
            root.close()


class TestCompactionKeepsCheckpointJournals:
    def test_an_older_kept_checkpoint_still_replays(self, tmp_path):
        """Compaction keeps ``keep_checkpoints`` checkpoints, so it must
        keep the journal after the oldest of them: with the newest one
        damaged, recovery falls back and replays to the live state."""
        root = FileStore(str(tmp_path))
        try:
            store = root.session("session")
            session = Session("session", store=store,
                              segment_max_bytes=200)
            session.make_variable("x")
            for value in range(5):
                session.assign("v:x", value)
            session.checkpoint()
            for value in range(40):
                session.assign("v:x", 100 + value)
            live = session.fingerprint(include_stats=False)
            session.close()

            report = compact_session(store)
            assert report["performed"]
            assert [seq for seq, _key in store.checkpoints()] == [7, 46]
            open(os.path.join(str(tmp_path), "session",
                              "ckpt-0000000046.json"), "w").close()
            assert fingerprint("file", tmp_path) == live
        finally:
            root.close()


class TestCompactionCrashWindows:
    """A kill during the compaction publish must lose nothing — the
    same windows the checkpoint fault matrix covers, entered via
    compaction instead of a designer checkpoint."""

    @pytest.mark.parametrize("window", ["replace", "replace-done"])
    @pytest.mark.parametrize("kind", PARAMS)
    def test_crash_around_the_publish(self, kind, window, tmp_path):
        plainroot = resolve_store(kind, str(tmp_path))
        grow(plainroot)
        before = fingerprint(kind, tmp_path)
        plainroot.close()

        plan = FaultPlan()
        plan.crash_on(window, "*ckpt-*")
        faulty = faulty_root(kind, tmp_path, plan)
        try:
            with pytest.raises(CrashPoint):
                compact_session(faulty.session("session"),
                                keep_segments=2)
        finally:
            faulty.close()

        assert fingerprint(kind, tmp_path) == before

    @pytest.mark.parametrize("kind", PARAMS)
    def test_crash_mid_checkpoint_write(self, kind, tmp_path):
        plainroot = resolve_store(kind, str(tmp_path))
        grow(plainroot)
        before = fingerprint(kind, tmp_path)
        plainroot.close()

        plan = FaultPlan()
        plan.torn_write("*.tmp", at_byte=20)
        faulty = faulty_root(kind, tmp_path, plan)
        try:
            with pytest.raises(CrashPoint):
                compact_session(faulty.session("session"),
                                keep_segments=2)
        finally:
            faulty.close()

        assert fingerprint(kind, tmp_path) == before
