"""The original file-per-segment layout, behind the store interface.

Byte-identical on disk to what the pre-interface journal and checkpoint
writers produced: segments are ``wal-<firstseq:010d>.jsonl`` files,
checkpoints ``ckpt-<seq:010d>.json``, one directory per session.  Every
file-system touch consults the store's
:class:`~repro.store.base.StoreGate` at its real path, in the order the
writers performed it before the refactor, so one
:class:`~repro.faults.plan.FaultPlan` drives this backend exactly as it
drives the sqlite and object ones.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Tuple

from ..faults.plan import FaultPlan
from ..session.journal import scan_segments
from .base import (
    SegmentAppender,
    SegmentStore,
    SessionStore,
    StoreGate,
    checkpoint_name,
    checkpoint_seq,
    segment_name,
)

__all__ = ["FileSessionStore", "FileStore"]


# ---------------------------------------------------------------------------
# Gated file operations
# ---------------------------------------------------------------------------

def _open(gate: StoreGate, path: str, mode: str) -> Any:
    gate.point("open", path)
    return open(path, mode)


def _write(gate: StoreGate, handle: Any, path: str, data: bytes) -> None:
    """Buffer ``data`` in ``handle``, or land the fault the gate decides.

    A torn write keeps its prefix and a crash keeps what is already
    buffered: either reaches the OS before the gate raises, as the bytes
    of a killed process would.
    """
    action = gate.write_action(path, len(data))
    if action is None:
        handle.write(data)
        return
    if action.kind == "torn":
        handle.write(data[:action.keep])
        handle.flush()
    elif action.kind == "crash":
        handle.flush()
    gate.finish_write(path, action, len(data))


def _flush(gate: StoreGate, handle: Any, path: str) -> None:
    gate.point("flush", path)
    handle.flush()


def _fsync(gate: StoreGate, handle: Any, path: str) -> None:
    gate.point("fsync", path)
    os.fsync(handle.fileno())


def _fsync_dir(gate: StoreGate, directory: str) -> None:
    """Persist directory entries (new/renamed files) where supported."""
    gate.point("fsync-dir", directory)
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. Windows: directories are not fsync-able
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _remove(gate: StoreGate, path: str) -> None:
    gate.point("remove", path)
    os.remove(path)


class _FileAppender(SegmentAppender):
    """An open segment file.

    Only journal appends go through it: the traced benchmark server
    (``perfbench/traced_serve.py``) counts journal bytes and fsyncs at
    its ``write`` and ``sync``, so the checkpoint file and a new
    segment's first fsync call the gated helpers directly.
    """

    __slots__ = ("key", "_handle", "_path", "_gate")

    def __init__(self, key: str, handle: Any, path: str,
                 gate: StoreGate) -> None:
        self.key = key
        self._handle = handle
        self._path = path
        self._gate = gate

    def write(self, line: bytes) -> None:
        _write(self._gate, self._handle, self._path, line)

    def flush(self) -> None:
        _flush(self._gate, self._handle, self._path)

    def sync(self) -> None:
        _fsync(self._gate, self._handle, self._path)

    def close(self) -> None:
        # Closing never faults: the degradation paths close handles
        # while cleaning up after an injected error, and a second
        # failure there would mask the first.
        self._handle.close()


class FileSessionStore(SessionStore):
    """One session directory of segment and checkpoint files."""

    backend = "file"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.location = directory
        #: The fault gate; a :class:`FileStore` shares its own with
        #: every session it hands out.
        self.gate = StoreGate()

    # -- lifecycle ----------------------------------------------------------

    def prepare(self) -> None:
        os.makedirs(self.directory, exist_ok=True)

    def exists(self) -> bool:
        return os.path.isdir(self.directory)

    # -- journal segments ---------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key)

    def segments(self) -> List[Tuple[int, str]]:
        return [(first, os.path.basename(path))
                for first, path in scan_segments(self.directory)]

    def segment_size(self, key: str) -> int:
        self.gate.check_alive()
        return os.path.getsize(self._path(key))

    def read_segment(self, key: str) -> bytes:
        with open(self._path(key), "rb") as handle:
            return handle.read()

    def delete_segment(self, key: str) -> None:
        _remove(self.gate, self._path(key))

    def truncate_segment(self, key: str, size: int) -> None:
        with open(self._path(key), "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def create_segment(self, first_seq: int, *,
                       durable: bool = True) -> _FileAppender:
        key = segment_name(first_seq)
        path = self._path(key)
        gate = self.gate
        handle = _open(gate, path, "ab")
        if durable:
            try:
                _fsync(gate, handle, path)
                _fsync_dir(gate, self.directory)
            except BaseException:
                handle.close()
                raise
        return _FileAppender(key, handle, path, gate)

    def open_segment(self, key: str) -> _FileAppender:
        path = self._path(key)
        return _FileAppender(key, _open(self.gate, path, "ab"), path,
                             self.gate)

    def rollback_segment(self, key: str, size: int) -> None:
        # Deliberately ungated: this is the best-effort degradation
        # backstop running after the gate's disk already "failed".
        self.truncate_segment(key, size)

    def sync_root(self) -> None:
        _fsync_dir(self.gate, self.directory)

    def describe(self, key: str) -> str:
        return self._path(key)

    # -- checkpoints --------------------------------------------------------

    def checkpoints(self) -> List[Tuple[int, str]]:
        found: List[Tuple[int, str]] = []
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return found
        for name in names:
            seq = checkpoint_seq(name)
            if seq is not None:
                found.append((seq, name))
        found.sort()
        return found

    def read_checkpoint(self, key: str) -> Optional[bytes]:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def publish_checkpoint(self, seq: int, data: bytes) -> str:
        path = self._path(checkpoint_name(seq))
        temp = path + ".tmp"
        gate = self.gate
        try:
            with _open(gate, temp, "wb") as handle:
                _write(gate, handle, temp, data)
                _flush(gate, handle, temp)
                _fsync(gate, handle, temp)
            gate.point("replace", path)
            os.replace(temp, path)
            gate.point_after("replace-done", path)
        except OSError:
            try:
                os.remove(temp)
            except OSError:
                pass
            raise
        _fsync_dir(gate, self.directory)
        return path

    def delete_checkpoint(self, key: str) -> None:
        _remove(self.gate, self._path(key))


class FileStore(SegmentStore):
    """A session root: one subdirectory per session."""

    backend = "file"

    def __init__(self, root: str, *,
                 plan: Optional[FaultPlan] = None) -> None:
        self.root = root
        self.location = root
        self.gate = StoreGate(plan)

    def session(self, name: str) -> FileSessionStore:
        store = FileSessionStore(os.path.join(self.root, name))
        store.gate = self.gate
        return store

    def session_names(self) -> List[str]:
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(name for name in names
                      if os.path.isdir(os.path.join(self.root, name)))
