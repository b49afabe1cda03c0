"""Sqlite storage backend — one database per session root.

Journal lines are rows (``journal(session, segment, idx, line)``), so a
segment is the ordered concatenation of its rows and a torn write lands
a partial row exactly where a torn file write lands a partial line.
Checkpoint publish is transactional: the payload is inserted
``published=0`` (the sqlite twin of the ``*.tmp`` file, invisible to
recovery), and a single committed ``UPDATE ... SET published=1`` is the
atomic rename.  The database runs in WAL mode with
``synchronous=FULL``, so every commit is on stable storage — an
acknowledged append under ``fsync="always"`` has the same power-loss
guarantee the file backend gives, and the ``"rotate"``/``"never"``
policies only relax *when* buffered lines commit, never the atomicity
of what did.

Fault injection flows through a :class:`~repro.store.base.StoreGate`
consulted at virtual paths shaped like the files the file backend gates
(``<dbdir>/<session>/wal-XXXXXXXXXX.jsonl``, ``....json.tmp``), so one
:class:`~repro.faults.plan.FaultPlan` drives every backend.
Every ``sqlite3.Error`` surfaces as ``OSError`` — the session layer's
degradation paths are backend-agnostic.
"""

from __future__ import annotations

import errno
import os
import sqlite3
import threading
from typing import Any, List, Optional, Tuple

from ..faults.plan import FaultPlan
from .base import (
    SegmentAppender,
    SegmentStore,
    SessionStore,
    StoreGate,
    checkpoint_name,
    segment_name,
)

__all__ = ["SqliteSessionStore", "SqliteStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    name TEXT PRIMARY KEY);
CREATE TABLE IF NOT EXISTS segments (
    session TEXT NOT NULL,
    key TEXT NOT NULL,
    PRIMARY KEY (session, key));
CREATE TABLE IF NOT EXISTS journal (
    session TEXT NOT NULL,
    segment TEXT NOT NULL,
    idx INTEGER NOT NULL,
    line BLOB NOT NULL,
    PRIMARY KEY (session, segment, idx));
CREATE TABLE IF NOT EXISTS checkpoints (
    session TEXT NOT NULL,
    key TEXT NOT NULL,
    seq INTEGER NOT NULL,
    data BLOB NOT NULL,
    published INTEGER NOT NULL,
    PRIMARY KEY (session, key));
"""


def _wrap(error: sqlite3.Error) -> OSError:
    return OSError(errno.EIO, f"sqlite backend error: {error}")


class SqliteStore(SegmentStore):
    """A session root stored in one sqlite database file."""

    backend = "sqlite"

    def __init__(self, path: str, *,
                 plan: Optional[FaultPlan] = None) -> None:
        self.path = path
        self.location = path
        self.gate = StoreGate(plan)
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection ---------------------------------------------------------

    def connect(self) -> sqlite3.Connection:
        with self._lock:
            if self._conn is None:
                parent = os.path.dirname(self.path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                try:
                    conn = sqlite3.connect(self.path,
                                           check_same_thread=False)
                    conn.execute("PRAGMA journal_mode=WAL")
                    conn.execute("PRAGMA synchronous=FULL")
                    conn.executescript(_SCHEMA)
                    conn.commit()
                except sqlite3.Error as error:
                    raise _wrap(error) from error
                self._conn = conn
            return self._conn

    def close(self) -> None:
        with self._lock:
            conn, self._conn = self._conn, None
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass

    # -- root interface -----------------------------------------------------

    def session(self, name: str) -> "SqliteSessionStore":
        return SqliteSessionStore(self, name)

    def session_names(self) -> List[str]:
        with self._lock:
            try:
                rows = self.connect().execute(
                    "SELECT name FROM sessions ORDER BY name").fetchall()
            except sqlite3.Error as error:
                raise _wrap(error) from error
        return [row[0] for row in rows]


class _SqliteAppender(SegmentAppender):
    """Buffered row appender over one segment.

    ``write`` lands lines in a process buffer (gated per line, like the
    file backend's per-write fault point); ``flush`` commits the buffer
    as rows — with ``synchronous=FULL`` a committed row is on stable
    storage, so ``sync`` has nothing left to make durable and only
    visits its fault point.
    """

    __slots__ = ("key", "_store", "_vpath", "_next_idx", "_buffer",
                 "_closed")

    def __init__(self, store: "SqliteSessionStore", key: str,
                 next_idx: int) -> None:
        self.key = key
        self._store = store
        self._vpath = store.describe(key)
        self._next_idx = next_idx
        self._buffer: List[bytes] = []
        self._closed = False

    def write(self, line: bytes) -> None:
        gate = self._store.gate
        action = gate.write_action(self._vpath, len(line))
        if action is None:
            self._buffer.append(line)
            return
        # Land what a real disk would have kept — everything already
        # buffered, plus the torn prefix of this line — durably, then
        # let the gate raise.
        if action.kind == "torn" and action.keep > 0:
            self._buffer.append(line[:action.keep])
        if self._buffer:
            self._commit_buffer()
        gate.finish_write(self._vpath, action, len(line))

    def flush(self) -> None:
        self._store.gate.point("flush", self._vpath)
        if self._buffer:
            self._commit_buffer()

    def sync(self) -> None:
        self._store.gate.point("fsync", self._vpath)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # A closing file handle flushes its buffer; so does this one.
        if self._buffer and not self._store.gate.crashed:
            self._commit_buffer()

    def _commit_buffer(self) -> None:
        buffered, self._buffer = self._buffer, []
        start = self._next_idx
        self._next_idx += len(buffered)
        self._store.insert_lines(self.key, start, buffered)


class SqliteSessionStore(SessionStore):
    """One session's view of the root database."""

    backend = "sqlite"

    def __init__(self, root: SqliteStore, name: str) -> None:
        self._root = root
        self.name = name
        # Virtual directory for fault-plan globs: shaped like the file
        # layout would be next to the database.
        self._vdir = os.path.join(os.path.dirname(root.path) or ".", name)
        self.location = f"{root.path}#{name}"

    @property
    def gate(self) -> StoreGate:
        return self._root.gate

    def _execute(self, sql: str, args: Tuple[Any, ...] = (),
                 *, commit: bool = False) -> Any:
        root = self._root
        with root._lock:
            conn = root.connect()
            try:
                cursor = conn.execute(sql, args)
                if commit:
                    conn.commit()
                return cursor
            except sqlite3.Error as error:
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                raise _wrap(error) from error

    # -- lifecycle ----------------------------------------------------------

    def prepare(self) -> None:
        self._execute("INSERT OR IGNORE INTO sessions (name) VALUES (?)",
                      (self.name,), commit=True)

    def exists(self) -> bool:
        row = self._execute("SELECT 1 FROM sessions WHERE name = ?",
                            (self.name,)).fetchone()
        return row is not None

    # -- journal segments ---------------------------------------------------

    def insert_lines(self, key: str, start_idx: int,
                     lines: List[bytes]) -> None:
        root = self._root
        with root._lock:
            conn = root.connect()
            try:
                conn.executemany(
                    "INSERT INTO journal (session, segment, idx, line) "
                    "VALUES (?, ?, ?, ?)",
                    [(self.name, key, start_idx + offset,
                      sqlite3.Binary(line))
                     for offset, line in enumerate(lines)])
                conn.commit()
            except sqlite3.Error as error:
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                raise _wrap(error) from error

    def segments(self) -> List[Tuple[int, str]]:
        from ..session.journal import _segment_first_seq
        rows = self._execute(
            "SELECT key FROM segments WHERE session = ? "
            "UNION SELECT DISTINCT segment FROM journal WHERE session = ?",
            (self.name, self.name)).fetchall()
        found = []
        for (key,) in rows:
            first = _segment_first_seq(key)
            if first is not None:
                found.append((first, key))
        found.sort()
        return found

    def segment_size(self, key: str) -> int:
        row = self._execute(
            "SELECT COALESCE(SUM(LENGTH(line)), 0) FROM journal "
            "WHERE session = ? AND segment = ?",
            (self.name, key)).fetchone()
        return int(row[0])

    def read_segment(self, key: str) -> bytes:
        rows = self._execute(
            "SELECT line FROM journal WHERE session = ? AND segment = ? "
            "ORDER BY idx", (self.name, key)).fetchall()
        return b"".join(bytes(row[0]) for row in rows)

    def delete_segment(self, key: str) -> None:
        self.gate.point("remove", self.describe(key))
        self._execute("DELETE FROM journal WHERE session = ? "
                      "AND segment = ?", (self.name, key))
        self._execute("DELETE FROM segments WHERE session = ? AND key = ?",
                      (self.name, key), commit=True)

    def truncate_segment(self, key: str, size: int) -> None:
        # Repair path — deliberately ungated, like the file backend's
        # plain-open truncate.
        rows = self._execute(
            "SELECT idx, line FROM journal WHERE session = ? "
            "AND segment = ? ORDER BY idx", (self.name, key)).fetchall()
        pos = 0
        for idx, line in rows:
            line = bytes(line)
            end = pos + len(line)
            if end <= size:
                pos = end
                continue
            if pos < size:
                self._execute(
                    "UPDATE journal SET line = ? WHERE session = ? "
                    "AND segment = ? AND idx = ?",
                    (sqlite3.Binary(line[:size - pos]), self.name, key,
                     idx))
            else:
                self._execute(
                    "DELETE FROM journal WHERE session = ? "
                    "AND segment = ? AND idx = ?", (self.name, key, idx))
            pos = end
        self._execute("SELECT 1", (), commit=True)

    def rollback_segment(self, key: str, size: int) -> None:
        self.truncate_segment(key, size)

    def create_segment(self, first_seq: int, *,
                       durable: bool = True) -> _SqliteAppender:
        key = segment_name(first_seq)
        vpath = self.describe(key)
        gate = self.gate
        gate.point("open", vpath)
        self._execute("INSERT OR IGNORE INTO segments (session, key) "
                      "VALUES (?, ?)", (self.name, key), commit=True)
        if durable:
            gate.point("fsync", vpath)
            gate.point("fsync-dir", self._vdir)
        return _SqliteAppender(self, key, 0)

    def open_segment(self, key: str) -> _SqliteAppender:
        self.gate.point("open", self.describe(key))
        row = self._execute(
            "SELECT COALESCE(MAX(idx) + 1, 0) FROM journal "
            "WHERE session = ? AND segment = ?",
            (self.name, key)).fetchone()
        return _SqliteAppender(self, key, int(row[0]))

    def sync_root(self) -> None:
        self.gate.point("fsync-dir", self._vdir)

    def describe(self, key: str) -> str:
        return os.path.join(self._vdir, key)

    # -- checkpoints --------------------------------------------------------

    def checkpoints(self) -> List[Tuple[int, str]]:
        rows = self._execute(
            "SELECT seq, key FROM checkpoints WHERE session = ? "
            "AND published = 1 ORDER BY seq, key",
            (self.name,)).fetchall()
        return [(int(seq), key) for seq, key in rows]

    def read_checkpoint(self, key: str) -> Optional[bytes]:
        row = self._execute(
            "SELECT data FROM checkpoints WHERE session = ? AND key = ? "
            "AND published = 1", (self.name, key)).fetchone()
        return bytes(row[0]) if row is not None else None

    def publish_checkpoint(self, seq: int, data: bytes) -> str:
        key = checkpoint_name(seq)
        tmp_key = key + ".tmp"
        vfinal = self.describe(key)
        vtmp = vfinal + ".tmp"
        gate = self.gate
        try:
            gate.point("open", vtmp)
            action = gate.write_action(vtmp, len(data))
            if action is not None:
                kept = (data[:action.keep] if action.kind == "torn"
                        else b"")
                self._stage(tmp_key, seq, kept)
                gate.finish_write(vtmp, action, len(data))
            self._stage(tmp_key, seq, data)
            gate.point("flush", vtmp)
            gate.point("fsync", vtmp)
            gate.point("replace", vfinal)
            self._rename(tmp_key, key)
            gate.point_after("replace-done", vfinal)
        except OSError:
            # Mirror the file backend's best-effort temp removal: an
            # unpublished staging row is the ``.tmp`` residue.
            try:
                self._execute(
                    "DELETE FROM checkpoints WHERE session = ? "
                    "AND key = ? AND published = 0",
                    (self.name, tmp_key), commit=True)
            except OSError:
                pass
            raise
        return vfinal

    def _stage(self, key: str, seq: int, data: bytes) -> None:
        """Land (or overwrite) the unpublished staging row durably."""
        self._execute(
            "INSERT INTO checkpoints (session, key, seq, data, published)"
            " VALUES (?, ?, ?, ?, 0) "
            "ON CONFLICT (session, key) DO UPDATE "
            "SET seq = excluded.seq, data = excluded.data, published = 0",
            (self.name, key, seq, sqlite3.Binary(data)), commit=True)

    def _rename(self, tmp_key: str, key: str) -> None:
        """The atomic rename: one committed transaction swaps the
        staging row in as the published checkpoint."""
        root = self._root
        with root._lock:
            conn = root.connect()
            try:
                conn.execute(
                    "DELETE FROM checkpoints WHERE session = ? "
                    "AND key = ?", (self.name, key))
                conn.execute(
                    "UPDATE checkpoints SET key = ?, published = 1 "
                    "WHERE session = ? AND key = ?",
                    (key, self.name, tmp_key))
                conn.commit()
            except sqlite3.Error as error:
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                raise _wrap(error) from error

    def delete_checkpoint(self, key: str) -> None:
        self.gate.point("remove", self.describe(key))
        self._execute("DELETE FROM checkpoints WHERE session = ? "
                      "AND key = ?", (self.name, key), commit=True)

    # -- fault-matrix helpers ----------------------------------------------

    def tmp_residue(self) -> int:
        """Unpublished staging rows — the sqlite twin of ``*.tmp``."""
        row = self._execute(
            "SELECT COUNT(*) FROM checkpoints WHERE session = ? "
            "AND published = 0", (self.name,)).fetchone()
        return int(row[0])
