"""The file backend's fault gate at real paths.

``FileStore(root, plan=plan)`` owns one
:class:`~repro.store.base.StoreGate`, shared by every session store it
hands out; each file-system touch consults it first.  A torn or
crashing write lands its surviving bytes before the gate raises, and a
crashed gate never touches the disk again.
"""

import errno
import os

import pytest

from repro.faults import CrashPoint, FaultPlan
from repro.store import FileSessionStore, FileStore
from repro.store.base import checkpoint_name, segment_name

WAL = segment_name(1)


def session_store(tmp_path, plan, name="s"):
    store = FileStore(str(tmp_path), plan=plan).session(name)
    store.prepare()
    return store


class TestFileStoreGate:
    def test_uninstalled_plan_is_passthrough(self, tmp_path):
        store = session_store(tmp_path, FaultPlan())  # decides None
        appender = store.create_segment(1)
        appender.write(b"hello")
        appender.flush()
        appender.sync()
        appender.close()
        assert store.segment_size(WAL) == 5
        assert store.read_segment(WAL) == b"hello"
        store.publish_checkpoint(3, b"{}")
        assert store.read_checkpoint(checkpoint_name(3)) == b"{}"
        store.sync_root()
        store.delete_checkpoint(checkpoint_name(3))
        store.delete_segment(WAL)
        assert store.segments() == [] and store.checkpoints() == []
        assert os.listdir(store.directory) == []
        assert not store.gate.crashed

    def test_torn_write_keeps_prefix_then_crashes(self, tmp_path):
        plan = FaultPlan()
        plan.torn_write(at_byte=3)
        root = FileStore(str(tmp_path), plan=plan)
        store = root.session("s")
        store.prepare()
        appender = store.create_segment(1)
        with pytest.raises(CrashPoint):
            appender.write(b"abcdef")
        assert store.gate.crashed
        # The surviving prefix reached the OS before the "kill".
        assert store.read_segment(WAL) == b"abc"
        # A dead gate never touches disk again, for any session of the
        # root.
        with pytest.raises(CrashPoint):
            store.open_segment(WAL)
        with pytest.raises(CrashPoint):
            store.sync_root()
        with pytest.raises(CrashPoint):
            root.session("other").segment_size(WAL)
        appender.close()
        assert store.read_segment(WAL) == b"abc"

    def test_error_actions_raise_oserror_with_errno(self, tmp_path):
        plan = FaultPlan()
        plan.enospc("write")
        store = session_store(tmp_path, plan)
        appender = store.create_segment(1)
        with pytest.raises(OSError) as info:
            appender.write(b"x")
        assert info.value.errno == errno.ENOSPC
        assert not store.gate.crashed
        appender.close()
        assert store.read_segment(WAL) == b""

    def test_replace_crash_windows(self, tmp_path):
        """A crash before the rename keeps the old checkpoint set and
        the staged file; one after it keeps the new set."""
        for window, survivors in (("replace", [2]),
                                  ("replace-done", [2, 5])):
            directory = tmp_path / window
            seeded = FileSessionStore(str(directory))
            seeded.prepare()
            seeded.publish_checkpoint(2, b'{"seq":2}')
            plan = FaultPlan()
            plan.crash_on(window)
            store = FileStore(str(tmp_path), plan=plan).session(window)
            with pytest.raises(CrashPoint):
                store.publish_checkpoint(5, b'{"seq":5}')
            assert [seq for seq, _key in store.checkpoints()] == survivors
            staged = os.path.join(str(directory),
                                  checkpoint_name(5) + ".tmp")
            assert os.path.exists(staged) == (window == "replace")
