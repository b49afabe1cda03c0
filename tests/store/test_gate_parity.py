"""One fault recipe drives every backend: the gate is consulted alike.

A :class:`~repro.faults.plan.FaultPlan` that logs every ``decide``
call watches one scripted history — 200-byte segments, assigns, three
checkpoints and their prunes — on each backend.  The
``(op, file name, byte count)`` sequences must be equal, so a rule
written against one backend fires at the same point on the others.
The one difference is the file backend's ``fsync-dir`` after each
checkpoint rename, which syncs the renamed directory entry.
"""

import os

import pytest

from repro.faults import FaultPlan
from repro.session import Session
from repro.store import FileStore, ObjectStore, SqliteStore

NAME = "parity"


class RecordingPlan(FaultPlan):
    """A plan that never fires and logs every consult."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def decide(self, op, target="", nbytes=0):
        self.calls.append((op, os.path.basename(target), nbytes))
        return super().decide(op, target, nbytes)


def open_root(kind, tmp_path, plan):
    if kind == "file":
        return FileStore(str(tmp_path), plan=plan)
    if kind == "sqlite":
        return SqliteStore(str(tmp_path / "sessions.db"), plan=plan)
    return ObjectStore(str(tmp_path / ".objects"), plan=plan)


def consults(kind, tmp_path):
    """Every gate consult of the scripted history on ``kind``."""
    plan = RecordingPlan()
    root = open_root(kind, tmp_path / kind, plan)
    try:
        session = Session(NAME, store=root.session(NAME),
                          segment_max_bytes=200)
        session.make_variable("x")
        session.make_variable("y")
        for value in range(6):
            session.assign("v:x" if value % 2 else "v:y", value)
            if value % 2:
                session.checkpoint()
        session.close()
    finally:
        root.close()
    return plan.calls


def without_checkpoint_dir_syncs(calls):
    """``calls`` less each ``fsync-dir`` right after a ``replace-done``."""
    kept = []
    for index, call in enumerate(calls):
        if (call[0] == "fsync-dir" and index > 0
                and calls[index - 1][0] == "replace-done"):
            continue
        kept.append(call)
    return kept


@pytest.fixture()
def file_calls(tmp_path):
    return consults("file", tmp_path)


class TestGateParity:
    def test_history_exercises_every_fault_point(self, file_calls):
        ops = {op for op, _name, _nbytes in file_calls}
        assert ops == {"open", "write", "flush", "fsync", "fsync-dir",
                       "replace", "replace-done", "remove"}
        replaces = [call for call in file_calls
                    if call[0] == "replace-done"]
        assert len(replaces) == 3
        rotations = [call for call in file_calls
                     if call[0] == "open" and call[1].startswith("wal-")]
        assert len(rotations) > 3, "segments did not rotate"

    @pytest.mark.parametrize("kind", ["sqlite", "object"])
    def test_backend_consults_as_the_file_backend(self, kind, tmp_path,
                                                  file_calls):
        calls = consults(kind, tmp_path)
        assert calls == without_checkpoint_dir_syncs(file_calls)
        assert len(file_calls) - len(calls) == 3
