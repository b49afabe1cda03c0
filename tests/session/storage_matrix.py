"""Reusable cross-backend fault-matrix harness.

The byte-exhaustive crash scenarios of ``test_fault_matrix.py`` —
simulated ``kill -9`` at every byte of an append or checkpoint write,
ENOSPC, fsync failure, crashes around the atomic publish — expressed
once, parameterized by storage backend.  ``test_fault_matrix.py`` runs
them against the ``file`` backend; ``tests/store/test_backend_matrix``
runs the same scenarios against ``sqlite`` and ``object``.  Every
backend is built with the plan, and its
:class:`~repro.store.base.StoreGate` injects the faults.

The invariant everywhere: recovery lands fingerprint-identical to the
last *committed* (acknowledged) state, never a hybrid — whichever
backend holds the bytes.
"""

import os
import shutil

import pytest

from repro.faults import CrashPoint, FaultPlan
from repro.session import JournalDegraded, Session

SESSION_NAME = "matrix"


class Opened:
    """A live session plus the gate that injects its faults."""

    def __init__(self, session, gate, root_store=None):
        self.session = session
        self.gate = gate
        self._root_store = root_store

    @property
    def crashed(self):
        return self.gate.crashed

    def close(self):
        self.session.close()
        if self._root_store is not None:
            self._root_store.close()


class MatrixBackend:
    """One storage backend under the matrix: open, measure, clone."""

    name = "?"

    def open_session(self, root, *, plan=None, read_only=False, **kw):
        raise NotImplementedError

    def _store(self, root):
        """A fresh, fault-free session store over ``root``'s bytes."""
        raise NotImplementedError

    def journal_bytes(self, root):
        store = self._store(root)
        return sum(store.segment_size(key)
                   for _first, key in store.segments())

    def checkpoint_size(self, root):
        store = self._store(root)
        checkpoints = store.checkpoints()
        assert checkpoints, f"no checkpoint in {root}"
        return len(store.read_checkpoint(checkpoints[-1][1]))

    def checkpoint_count(self, root):
        return len(self._store(root).checkpoints())

    def tmp_residue(self, root):
        raise NotImplementedError

    def clone(self, root, dst):
        """Copy the durable bytes — a crash image of ``root``."""
        shutil.copytree(str(root), str(dst))


class FileBackend(MatrixBackend):
    """The original layout: ``root`` is the session directory itself."""

    name = "file"

    def open_session(self, root, *, plan=None, read_only=False, **kw):
        from repro.store import FileStore
        parent, name = os.path.split(str(root))
        store = FileStore(parent, plan=plan)
        session = Session(SESSION_NAME, store=store.session(name),
                          read_only=read_only, **kw)
        return Opened(session, store.gate)

    def _store(self, root):
        from repro.store import FileSessionStore
        return FileSessionStore(str(root))

    def tmp_residue(self, root):
        return sum(1 for name in os.listdir(str(root))
                   if name.endswith(".tmp"))


class SqliteBackend(MatrixBackend):
    name = "sqlite"

    def _db(self, root):
        return os.path.join(str(root), "sessions.db")

    def open_session(self, root, *, plan=None, read_only=False, **kw):
        from repro.store import SqliteStore
        store = SqliteStore(self._db(root), plan=plan)
        session = Session(SESSION_NAME,
                          store=store.session(SESSION_NAME),
                          read_only=read_only, **kw)
        return Opened(session, store.gate, root_store=store)

    def _store(self, root):
        from repro.store import SqliteStore
        return SqliteStore(self._db(root)).session(SESSION_NAME)

    def tmp_residue(self, root):
        return self._store(root).tmp_residue()


class ObjectBackend(MatrixBackend):
    name = "object"

    def open_session(self, root, *, plan=None, read_only=False, **kw):
        from repro.store import ObjectStore
        store = ObjectStore(str(root), plan=plan)
        session = Session(SESSION_NAME,
                          store=store.session(SESSION_NAME),
                          read_only=read_only, **kw)
        return Opened(session, store.gate, root_store=store)

    def _store(self, root):
        from repro.store import ObjectStore
        return ObjectStore(str(root)).session(SESSION_NAME)

    def tmp_residue(self, root):
        return self._store(root).tmp_residue()


FILE = FileBackend()
SQLITE = SqliteBackend()
OBJECT = ObjectBackend()
ALL_BACKENDS = (FILE, SQLITE, OBJECT)


# -- building blocks ---------------------------------------------------------

def build(backend, root, plan=None):
    """The standard small design: three vars and a sum constraint."""
    opened = backend.open_session(root, plan=plan)
    session = opened.session
    session.make_variable("x")
    session.make_variable("y")
    session.make_variable("total")
    session.add_constraint("sum", ["v:total", "v:x", "v:y"])
    session.assign("v:x", 3)
    session.assign("v:y", 4)
    return opened


def recovered_fingerprint(backend, root):
    """What a healthy process sees after recovering ``root``."""
    opened = backend.open_session(root, read_only=True)
    try:
        return opened.session.fingerprint(include_stats=False)
    finally:
        opened.close()


def journal_growth(backend, root, op):
    """Journal bytes before ``op`` and the bytes it appends (pilot run)."""
    opened = build(backend, root)
    before = backend.journal_bytes(root)
    op(opened.session)
    after = backend.journal_bytes(root)
    opened.close()
    return before, after - before


def _sweep_points(size, stride):
    """Byte offsets to test: every ``stride``-th plus both edges and
    the off-by-one boundaries (always including ``size`` itself)."""
    if stride <= 1:
        return list(range(size + 1))
    points = set(range(0, size + 1, stride))
    points.update((0, 1, max(size - 1, 0), size))
    return sorted(points)


# -- scenarios ---------------------------------------------------------------

def scenario_journal_tear_matrix(backend, tmp_path, stride=1):
    """Tear the final ``assign`` at byte k for every k.

    k < line length: the entry was never acknowledged — recovery
    truncates the torn tail and lands on the committed prefix.
    k == line length: the entry is whole — recovery keeps it.
    """
    base, line_len = journal_growth(backend, tmp_path / "pilot",
                                    lambda s: s.assign("v:x", 55))
    assert line_len > 0

    committed = build(backend, tmp_path / "committed")
    fp_committed = committed.session.fingerprint(include_stats=False)
    committed.close()
    final = build(backend, tmp_path / "final")
    final.session.assign("v:x", 55)
    fp_final = final.session.fingerprint(include_stats=False)
    final.close()

    for k in _sweep_points(line_len, stride):
        root = tmp_path / f"tear-{k}"
        plan = FaultPlan()
        plan.torn_write("*wal-*", at_byte=base + k)
        opened = build(backend, root, plan=plan)
        if k < line_len:
            with pytest.raises(CrashPoint):
                opened.session.assign("v:x", 55)
            assert opened.crashed
            expected = fp_committed
        else:
            # The tear point sits exactly past the line: the append
            # survives whole and no fault fires.
            opened.session.assign("v:x", 55)
            opened.close()
            expected = fp_final
        assert recovered_fingerprint(backend, root) == expected, \
            f"[{backend.name}] tear at byte {k}/{line_len} recovered " \
            f"a hybrid state"


def scenario_checkpoint_tear_matrix(backend, tmp_path, stride=1):
    """A checkpoint torn at any byte must be invisible to recovery."""
    template = tmp_path / "template"
    build(backend, template).close()

    # Expected state: the same root checkpointed successfully.
    clean = tmp_path / "clean"
    backend.clone(template, clean)
    opened = backend.open_session(clean)
    opened.session.checkpoint()
    expected = opened.session.fingerprint(include_stats=False)
    opened.close()
    assert backend.checkpoint_count(clean) == 1
    size = backend.checkpoint_size(clean)

    for k in _sweep_points(size, stride):
        root = tmp_path / f"ckpt-{k}"
        backend.clone(template, root)
        plan = FaultPlan()
        plan.torn_write("*.tmp", at_byte=k)
        opened = backend.open_session(root, plan=plan)
        if k < size:
            with pytest.raises(CrashPoint):
                opened.session.checkpoint()
        else:
            opened.session.checkpoint()  # boundary past the file: no fault
            opened.close()
        assert recovered_fingerprint(backend, root) == expected, \
            f"[{backend.name}] checkpoint torn at byte {k}/{size} " \
            f"corrupted recovery"


def scenario_checkpoint_rename_crash(backend, tmp_path, window):
    """Crash immediately before/after the atomic checkpoint publish."""
    template = tmp_path / "template"
    build(backend, template).close()
    clean = tmp_path / "clean"
    backend.clone(template, clean)
    opened = backend.open_session(clean)
    opened.session.checkpoint()
    expected = opened.session.fingerprint(include_stats=False)
    opened.close()

    root = tmp_path / window
    backend.clone(template, root)
    plan = FaultPlan()
    plan.crash_on(window, "*ckpt-*")
    opened = backend.open_session(root, plan=plan)
    with pytest.raises(CrashPoint):
        opened.session.checkpoint()
    assert recovered_fingerprint(backend, root) == expected


def scenario_checkpoint_enospc(backend, tmp_path):
    """A non-fatal disk error during checkpoint: the old state stays
    recoverable, staged residue is cleaned up, the session goes on."""
    plan = FaultPlan()
    plan.enospc("write", pattern="*.tmp", persistent=False)
    opened = build(backend, tmp_path, plan=plan)
    session = opened.session
    fp_before = session.fingerprint(include_stats=False)
    with pytest.raises(OSError):
        session.checkpoint()
    assert backend.tmp_residue(tmp_path) == 0
    # The session keeps working — and can checkpoint once space is back.
    session.assign("v:x", 6)
    assert session.checkpoint() is not None
    opened.close()
    recovered = recovered_fingerprint(backend, tmp_path)
    assert recovered["variables"]["v:x"]["value"] == 6
    assert recovered["position"] > fp_before["position"]


def scenario_degraded_enospc(backend, tmp_path):
    """Persistent ENOSPC on the journal: degraded read-only mode."""
    plan = FaultPlan()
    opened = build(backend, tmp_path, plan=plan)
    session = opened.session
    fp_committed = session.fingerprint(include_stats=False)
    plan.enospc("write", pattern="*wal-*")  # persistent from now on

    with pytest.raises(JournalDegraded):
        session.assign("v:x", 99)
    assert session.degraded
    # The failed mutation never applied (write-ahead discipline).
    assert session.get("v:x")[0] == 3
    # Mutations stay refused; reads and fingerprints keep working.
    with pytest.raises(JournalDegraded):
        session.assign("v:y", 1)
    with pytest.raises(JournalDegraded):
        session.make_variable("z")
    assert session.fingerprint(include_stats=False) == fp_committed
    # A healthy process recovers the committed state exactly.
    assert recovered_fingerprint(backend, tmp_path) == fp_committed


def scenario_degraded_fsync(backend, tmp_path):
    """A failing fsync degrades the session and rolls the line back."""
    plan = FaultPlan()
    opened = build(backend, tmp_path, plan=plan)
    session = opened.session
    fp_committed = session.fingerprint(include_stats=False)
    size_committed = backend.journal_bytes(tmp_path)
    plan.fail_fsync("*wal-*", persistent=True)

    with pytest.raises(JournalDegraded):
        session.assign("v:x", 99)
    assert session.degraded
    # The un-acknowledged line was rolled back off the segment: the
    # fsync gray zone must not leave bytes a recovery would trust.
    assert backend.journal_bytes(tmp_path) == size_committed
    assert recovered_fingerprint(backend, tmp_path) == fp_committed


def scenario_torn_write_error_rollback(backend, tmp_path):
    """A torn write surfacing as an error (not a crash) rolls the
    partial line back before the session degrades."""
    base, line_len = journal_growth(backend, tmp_path / "pilot",
                                    lambda s: s.assign("v:x", 55))
    plan = FaultPlan()
    plan.torn_write("*wal-*", at_byte=base + line_len // 2, then="error")
    root = tmp_path / "torn"
    opened = build(backend, root, plan=plan)
    session = opened.session
    fp_committed = session.fingerprint(include_stats=False)
    with pytest.raises(JournalDegraded):
        session.assign("v:x", 55)
    assert session.degraded
    assert backend.journal_bytes(root) == base  # partial line truncated
    assert recovered_fingerprint(backend, root) == fp_committed


def scenario_replay_determinism_under_budget(backend, tmp_path):
    """A budget-aborted round must replay identically from the store."""
    from repro.core import RoundBudget

    opened = backend.open_session(tmp_path)
    session = opened.session
    for i in range(12):
        session.make_variable(f"x{i}")
    for i in range(11):
        session.add_constraint("equality", [f"v:x{i}", f"v:x{i + 1}"])
    session.context.round_budget = RoundBudget(max_steps=4)
    assert session.assign("v:x0", 7) is False  # watchdog abort
    assert session.violations[-1]["kind"] == "budget"
    session.context.round_budget = None
    assert session.assign("v:x11", 3) is True
    fp_live = session.fingerprint()  # include stats: the strong claim
    opened.close()

    twin = backend.open_session(tmp_path, read_only=True)
    assert twin.session.fingerprint() == fp_live
    assert twin.session.violations[-1]["kind"] == "budget"
    twin.close()
