"""S3-style object storage backend over a local-directory emulator.

The emulator models the object-store contract the interface must
survive, not a POSIX file system:

* ``put`` is atomic per object (temp + rename) — there are no appends,
  so a journal segment is a *sequence of chunk objects*
  (``<session>/<segment>/<idx:06d>``, one chunk per flush batch) and
  "appending" means putting the next chunk;
* listings can lag writes (``list_lag``): a freshly-put key stays
  invisible to ``list`` for that many listing calls while ``get`` on
  the exact key already works (read-your-writes) — the
  eventual-visibility semantics of real object stores.  A *fresh*
  emulator over the same directory sees everything, which is exactly
  the post-crash recovery picture;
* injectable ``latency`` and ``fault`` hooks fire on every emulator
  operation, independent of the :class:`~repro.store.base.StoreGate`
  that drives the byte-exact crash matrix;
* a torn upload lands a truncated chunk object — the partial-upload
  shape recovery's torn-tail repair must absorb.

Checkpoint publish stages ``ckpt-XXXX.json.tmp`` and renames it over
the final key, so recovery (which only considers ``ckpt-*.json`` keys)
never sees a half-uploaded checkpoint.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..faults.plan import FaultPlan
from ..session.journal import _segment_first_seq
from .base import (
    SegmentAppender,
    SegmentStore,
    SessionStore,
    StoreGate,
    checkpoint_name,
    checkpoint_seq,
    segment_name,
)

__all__ = ["ObjectEmulator", "ObjectSessionStore", "ObjectStore"]

#: Marker object recording a segment's existence before its first chunk.
_SEGMENT_MARKER = ".seg"
#: Marker object recording a session's existence.
_SESSION_MARKER = ".session"


class ObjectEmulator:
    """put/get/list/delete over a local directory, with object-store
    quirks: atomic puts, listing lag, injectable latency and faults."""

    def __init__(self, root: str, *, list_lag: int = 0,
                 latency: Optional[Callable[[str, str], None]] = None,
                 fault: Optional[Callable[[str, str], None]] = None) -> None:
        self.root = root
        self.list_lag = list_lag
        self.latency = latency
        self.fault = fault
        #: key -> remaining ``list`` calls before it becomes visible.
        self._pending: Dict[str, int] = {}
        os.makedirs(root, exist_ok=True)

    def _touch(self, op: str, key: str) -> None:
        if self.latency is not None:
            self.latency(op, key)
        if self.fault is not None:
            self.fault(op, key)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    def put(self, key: str, data: bytes) -> None:
        self._touch("put", key)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        temp = path + ".inflight"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        if self.list_lag > 0:
            self._pending[key] = self.list_lag

    def get(self, key: str) -> Optional[bytes]:
        """Read-your-writes: works even while the key is list-pending."""
        self._touch("get", key)
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def size(self, key: str) -> Optional[int]:
        try:
            return os.path.getsize(self._path(key))
        except OSError:
            return None

    def list(self, prefix: str = "") -> List[str]:
        """Visible keys under ``prefix``; each call ages pending keys."""
        self._touch("list", prefix)
        keys: List[str] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".inflight"):
                    continue
                full = os.path.join(dirpath, name)
                key = os.path.relpath(full, self.root).replace(os.sep, "/")
                if key.startswith(prefix):
                    keys.append(key)
        visible = [key for key in keys if self._pending.get(key, 0) <= 0]
        for key in list(self._pending):
            self._pending[key] -= 1
            if self._pending[key] <= 0:
                del self._pending[key]
        return sorted(visible)

    def delete(self, key: str) -> None:
        self._touch("delete", key)
        self._pending.pop(key, None)
        try:
            os.remove(self._path(key))
        except FileNotFoundError:
            pass

    def rename(self, src: str, dst: str) -> None:
        self._touch("rename", src)
        os.replace(self._path(src), self._path(dst))
        if self._pending.pop(src, None) is not None or self.list_lag > 0:
            if self.list_lag > 0:
                self._pending[dst] = self.list_lag

    def settle(self) -> None:
        """Make every pending key visible now (the steady state)."""
        self._pending.clear()


class _ObjectAppender(SegmentAppender):
    """Chunk-per-flush appender over one segment's object prefix."""

    __slots__ = ("key", "_store", "_vpath", "_next_idx", "_buffer",
                 "_closed")

    def __init__(self, store: "ObjectSessionStore", key: str,
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
        if action.kind == "torn" and action.keep > 0:
            self._buffer.append(line[:action.keep])
        if self._buffer:
            self._put_chunk()
        gate.finish_write(self._vpath, action, len(line))

    def flush(self) -> None:
        self._store.gate.point("flush", self._vpath)
        if self._buffer:
            self._put_chunk()

    def sync(self) -> None:
        self._store.gate.point("fsync", self._vpath)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._buffer and not self._store.gate.crashed:
            self._put_chunk()

    def _put_chunk(self) -> None:
        buffered, self._buffer = self._buffer, []
        idx = self._next_idx
        self._next_idx = idx + 1
        self._store.put_chunk(self.key, idx, b"".join(buffered))


class ObjectSessionStore(SessionStore):
    """One session's prefix of the bucket."""

    backend = "object"

    def __init__(self, root: "ObjectStore", name: str) -> None:
        self._root = root
        self._emulator = root.emulator
        self.name = name
        self._prefix = name + "/"
        self._vdir = os.path.join(root.root, name)
        self.location = f"{root.root}#{name}"

    @property
    def gate(self) -> StoreGate:
        return self._root.gate

    def _chunk_key(self, segment: str, idx: int) -> str:
        return f"{self.name}/{segment}/{idx:06d}"

    def _chunks(self, segment: str) -> List[Tuple[int, str]]:
        """Chunk objects of a segment, in order, stopping at the first
        index gap (a later chunk with a hole before it is not durably
        part of the segment)."""
        prefix = f"{self.name}/{segment}/"
        found: List[Tuple[int, str]] = []
        for key in self._emulator.list(prefix):
            name = key[len(prefix):]
            if name.isdigit():
                found.append((int(name), key))
        found.sort()
        chunks: List[Tuple[int, str]] = []
        for index, (idx, key) in enumerate(found):
            if index > 0 and idx != found[index - 1][0] + 1:
                break
            chunks.append((idx, key))
        return chunks

    def put_chunk(self, segment: str, idx: int, data: bytes) -> None:
        self._emulator.put(self._chunk_key(segment, idx), data)

    # -- lifecycle ----------------------------------------------------------

    def prepare(self) -> None:
        marker = f"{self.name}/{_SESSION_MARKER}"
        if self._emulator.get(marker) is None:
            self._emulator.put(marker, b"")

    def exists(self) -> bool:
        if self._emulator.get(f"{self.name}/{_SESSION_MARKER}") is not None:
            return True
        return bool(self._emulator.list(self._prefix))

    # -- journal segments ---------------------------------------------------

    def segments(self) -> List[Tuple[int, str]]:
        names = set()
        for key in self._emulator.list(self._prefix):
            rest = key[len(self._prefix):]
            head, _, _tail = rest.partition("/")
            if _segment_first_seq(head) is not None:
                names.add(head)
        found = [(_segment_first_seq(name), name) for name in names]
        found.sort()
        return found

    def segment_size(self, key: str) -> int:
        total = 0
        for _idx, chunk in self._chunks(key):
            total += self._emulator.size(chunk) or 0
        return total

    def read_segment(self, key: str) -> bytes:
        parts = []
        for _idx, chunk in self._chunks(key):
            data = self._emulator.get(chunk)
            if data is None:
                break
            parts.append(data)
        return b"".join(parts)

    def delete_segment(self, key: str) -> None:
        self.gate.point("remove", self.describe(key))
        prefix = f"{self.name}/{key}/"
        for chunk in self._emulator.list(prefix):
            self._emulator.delete(chunk)
        self._emulator.delete(prefix + _SEGMENT_MARKER)

    def truncate_segment(self, key: str, size: int) -> None:
        # Repair path — ungated, like the file backend's plain truncate.
        pos = 0
        doomed = False
        for idx, chunk in self._chunks(key):
            data = self._emulator.get(chunk) or b""
            end = pos + len(data)
            if doomed or pos >= size:
                self._emulator.delete(chunk)
            elif end > size:
                self._emulator.put(chunk, data[:size - pos])
                doomed = True
            pos = end

    def rollback_segment(self, key: str, size: int) -> None:
        self.truncate_segment(key, size)

    def create_segment(self, first_seq: int, *,
                       durable: bool = True) -> _ObjectAppender:
        key = segment_name(first_seq)
        vpath = self.describe(key)
        gate = self.gate
        gate.point("open", vpath)
        self._emulator.put(f"{self.name}/{key}/{_SEGMENT_MARKER}", b"")
        if durable:
            gate.point("fsync", vpath)
            gate.point("fsync-dir", self._vdir)
        return _ObjectAppender(self, key, 0)

    def open_segment(self, key: str) -> _ObjectAppender:
        self.gate.point("open", self.describe(key))
        chunks = self._chunks(key)
        next_idx = chunks[-1][0] + 1 if chunks else 0
        return _ObjectAppender(self, key, next_idx)

    def sync_root(self) -> None:
        self.gate.point("fsync-dir", self._vdir)

    def describe(self, key: str) -> str:
        return os.path.join(self._vdir, key)

    # -- checkpoints --------------------------------------------------------

    def checkpoints(self) -> List[Tuple[int, str]]:
        found: List[Tuple[int, str]] = []
        for key in self._emulator.list(self._prefix):
            rest = key[len(self._prefix):]
            if "/" in rest:
                continue
            seq = checkpoint_seq(rest)
            if seq is not None:
                found.append((seq, rest))
        found.sort()
        return found

    def read_checkpoint(self, key: str) -> Optional[bytes]:
        return self._emulator.get(f"{self.name}/{key}")

    def publish_checkpoint(self, seq: int, data: bytes) -> str:
        key = checkpoint_name(seq)
        tmp_key = f"{self.name}/{key}.tmp"
        final_key = f"{self.name}/{key}"
        vfinal = self.describe(key)
        vtmp = vfinal + ".tmp"
        gate = self.gate
        try:
            gate.point("open", vtmp)
            action = gate.write_action(vtmp, len(data))
            if action is not None:
                kept = (data[:action.keep] if action.kind == "torn"
                        else b"")
                self._emulator.put(tmp_key, kept)
                gate.finish_write(vtmp, action, len(data))
            self._emulator.put(tmp_key, data)
            gate.point("flush", vtmp)
            gate.point("fsync", vtmp)
            gate.point("replace", vfinal)
            self._emulator.rename(tmp_key, final_key)
            gate.point_after("replace-done", vfinal)
        except OSError:
            try:
                self._emulator.delete(tmp_key)
            except OSError:
                pass
            raise
        return vfinal

    def delete_checkpoint(self, key: str) -> None:
        self.gate.point("remove", self.describe(key))
        self._emulator.delete(f"{self.name}/{key}")

    # -- fault-matrix helpers ----------------------------------------------

    def tmp_residue(self) -> int:
        """Staged-but-unpublished checkpoint objects."""
        return sum(1 for key in self._emulator.list(self._prefix)
                   if key.endswith(".tmp"))


class ObjectStore(SegmentStore):
    """A session root in one emulated bucket directory."""

    backend = "object"

    def __init__(self, root: str, *, plan: Optional[FaultPlan] = None,
                 list_lag: int = 0,
                 latency: Optional[Callable[[str, str], None]] = None,
                 fault: Optional[Callable[[str, str], None]] = None,
                 emulator: Optional[ObjectEmulator] = None) -> None:
        self.root = root
        self.location = root
        self.gate = StoreGate(plan)
        self.emulator = emulator if emulator is not None else ObjectEmulator(
            root, list_lag=list_lag, latency=latency, fault=fault)

    def session(self, name: str) -> ObjectSessionStore:
        return ObjectSessionStore(self, name)

    def session_names(self) -> List[str]:
        names = set()
        for key in self.emulator.list(""):
            head, sep, _rest = key.partition("/")
            if sep:
                names.add(head)
        return sorted(names)
