"""Follower-side storage of shipped WAL lines and checkpoints.

A :class:`ReplicaStore` receives the raw journal lines and checkpoint
snapshots a primary worker exports (``repl-export``) and lands them in
the worker's session store in **exactly** the live session layout —
``wal-*.jsonl`` segments of verbatim framed lines plus ``ckpt-*.json``
snapshots.  Promotion after a primary death is therefore not a special
code path at all: opening the session through the ordinary
:class:`~repro.session.manager.SessionManager` replays checkpoint +
tail exactly as crash recovery does, and replay determinism (the Apt
fixpoint argument behind ``fingerprint``) guarantees the follower
reaches the identical state the primary acknowledged.

The landing goes through the :class:`~repro.store.base.SessionStore`
interface, so a follower replicates into whichever backend its worker
runs on (``file``, ``sqlite``, ``object``) — and its replica doubles
as the healthy *source* for the anti-entropy scrub
(:mod:`repro.store.scrub`) when the primary's copy is damaged.

Apply is idempotent and gap-refusing: lines at or below the replica's
position are skipped (re-ships are harmless), a line that would skip a
sequence number raises :class:`ReplicaGap` so the router falls back to
a full export loop.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Iterable, List, Optional

from ..session.codec import check_name
from ..session.journal import DEFAULT_SEGMENT_BYTES, _decode_line
from ..store.base import (
    SegmentAppender,
    SessionStore,
    check_keep_checkpoints,
    encode_checkpoint,
    load_latest_checkpoint,
    prune_to_checkpoints,
)

__all__ = ["ReplicaError", "ReplicaGap", "ReplicaStore"]


class ReplicaError(RuntimeError):
    """A shipped line or checkpoint that cannot be applied."""


class ReplicaGap(ReplicaError):
    """Shipped lines skip ahead of the replica's position.

    The router must fall back to a full ``repl-export`` catch-up loop
    (and possibly a checkpoint) to close the hole.
    """


class _SessionState:
    __slots__ = ("position", "checkpoint_seq", "segment_key",
                 "segment_size")

    def __init__(self, position: int, checkpoint_seq: int,
                 segment_key: Optional[str], segment_size: int) -> None:
        self.position = position
        self.checkpoint_seq = checkpoint_seq
        self.segment_key = segment_key
        self.segment_size = segment_size


class ReplicaStore:
    """Land shipped session state under ``root`` in live-session layout."""

    def __init__(self, root: str, *,
                 store: Optional[Any] = None,
                 segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
                 keep_checkpoints: int = 2) -> None:
        check_keep_checkpoints(keep_checkpoints)
        self.root = root
        self.segment_max_bytes = segment_max_bytes
        self.keep_checkpoints = keep_checkpoints
        if store is None:
            from ..store.filestore import FileStore
            store = FileStore(root)
        self.store = store
        self._states: Dict[str, _SessionState] = {}
        self._lock = threading.Lock()
        os.makedirs(root, exist_ok=True)

    def session_dir(self, name: str) -> str:
        check_name(name, "session name")
        return os.path.join(self.root, name)

    def session_store(self, name: str) -> SessionStore:
        """The per-session store view — scrub's repair source."""
        check_name(name, "session name")
        return self.store.session(name)

    # -- state --------------------------------------------------------------

    def _state(self, name: str) -> _SessionState:
        state = self._states.get(name)
        if state is None:
            state = self._scan(name)
            self._states[name] = state
        return state

    def _scan(self, name: str) -> _SessionState:
        """Rebuild the replica position for ``name`` from the store.

        A torn final line (this process killed mid-append) is truncated
        off the last segment so later appends extend a clean journal —
        the same repair crash recovery performs.
        """
        store = self.session_store(name)
        checkpoint = load_latest_checkpoint(store)
        checkpoint_seq = checkpoint["seq"] if checkpoint else 0
        position = checkpoint_seq
        segment_key: Optional[str] = None
        segment_size = 0
        segments = store.segments()
        if segments:
            last_seq: Optional[int] = None
            for index, (_first, key) in enumerate(segments):
                data = store.read_segment(key)
                valid_bytes = 0
                pos = 0
                while pos < len(data):
                    newline = data.find(b"\n", pos)
                    line = (data[pos:newline + 1] if newline >= 0
                            else data[pos:])
                    pos = newline + 1 if newline >= 0 else len(data)
                    entry = _decode_line(line)
                    if entry is None \
                            or not isinstance(entry.get("seq"), int):
                        break
                    valid_bytes += len(line)
                    last_seq = entry["seq"]
                if index == len(segments) - 1:
                    if valid_bytes < len(data):
                        store.truncate_segment(key, valid_bytes)
                    segment_key = key
                    segment_size = valid_bytes
            if last_seq is not None:
                position = max(position, last_seq)
        return _SessionState(position, checkpoint_seq, segment_key,
                             segment_size)

    def forget(self, name: str) -> None:
        """Drop the cached state (e.g. after the session was promoted
        to a live primary on this worker and the journal moved on)."""
        with self._lock:
            self._states.pop(name, None)

    def position(self, name: str) -> int:
        """Highest applied sequence number for ``name``."""
        with self._lock:
            return self._state(name).position

    def checkpoint_seq(self, name: str) -> int:
        with self._lock:
            return self._state(name).checkpoint_seq

    def names(self) -> List[str]:
        try:
            return sorted(self.store.session_names())
        except OSError:
            return []

    # -- apply --------------------------------------------------------------

    def apply(self, name: str, lines: Iterable[str],
              checkpoint: Optional[Dict[str, Any]] = None) -> int:
        """Land shipped raw lines (and optionally a checkpoint snapshot).

        Returns the replica position afterwards.  Lines must be the
        framed journal lines exactly as exported (trailing newline
        optional in transport); each is CRC-verified before landing.
        """
        with self._lock:
            state = self._state(name)
            store = self.session_store(name)
            if checkpoint is not None:
                self._apply_checkpoint(name, store, state, checkpoint)
            appender: Optional[SegmentAppender] = None
            try:
                for text in lines:
                    raw = text.encode("utf-8")
                    if not raw.endswith(b"\n"):
                        raw += b"\n"
                    entry = _decode_line(raw)
                    if entry is None \
                            or not isinstance(entry.get("seq"), int):
                        raise ReplicaError(
                            f"shipped line for {name!r} fails its "
                            f"checksum or carries no seq")
                    seq = entry["seq"]
                    if seq <= state.position:
                        continue  # idempotent re-ship
                    if seq != state.position + 1:
                        raise ReplicaGap(
                            f"replica of {name!r} is at "
                            f"{state.position}, shipped line has seq "
                            f"{seq}")
                    if appender is not None and (
                            state.segment_size >= self.segment_max_bytes):
                        appender.flush()
                        appender.close()
                        appender = None
                    if appender is None:
                        appender = self._segment_appender(store, state, seq)
                    appender.write(raw)
                    state.segment_size += len(raw)
                    state.position = seq
            finally:
                if appender is not None:
                    appender.flush()
                    appender.close()
            return state.position

    def _segment_appender(self, store: SessionStore, state: _SessionState,
                          next_seq: int) -> SegmentAppender:
        store.prepare()
        if state.segment_key is not None \
                and state.segment_size < self.segment_max_bytes \
                and any(key == state.segment_key
                        for _first, key in store.segments()):
            return store.open_segment(state.segment_key)
        appender = store.create_segment(next_seq, durable=False)
        state.segment_key = appender.key
        state.segment_size = 0
        return appender

    def _apply_checkpoint(self, name: str, store: SessionStore,
                          state: _SessionState,
                          checkpoint: Dict[str, Any]) -> None:
        seq = checkpoint.get("seq")
        if not isinstance(seq, int):
            raise ReplicaError(
                f"shipped checkpoint for {name!r} carries no seq")
        if seq <= state.checkpoint_seq:
            return  # stale re-ship
        store.prepare()
        store.publish_checkpoint(seq, encode_checkpoint(checkpoint))
        state.checkpoint_seq = seq
        if seq > state.position:
            # The snapshot supersedes everything we hold: recovery
            # starts from it, and any journal line at or below it is
            # covered.  Lines beyond it cannot exist locally (they
            # would have implied a higher position), so drop the lot.
            for _first, key in store.segments():
                try:
                    store.delete_segment(key)
                except OSError:
                    pass
            state.position = seq
        # Seal, as the primary does at a checkpoint: the next shipped
        # line starts a new segment, which a later checkpoint can prune.
        state.segment_key = None
        state.segment_size = 0
        prune_to_checkpoints(store, self.keep_checkpoints)

    # -- promotion sanity ---------------------------------------------------

    def verify(self, name: str) -> int:
        """Re-scan ``name`` from the store and return its durable position.

        Used before promoting a replica: the cached state is dropped so
        the answer reflects exactly what recovery will see.
        """
        with self._lock:
            self._states.pop(name, None)
            state = self._state(name)
            return state.position
