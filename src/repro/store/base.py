"""The storage seam — every durable touch the session layer makes.

A :class:`SegmentStore` owns one *session root* (the thing ``repro
serve --root`` points at) and hands out :class:`SessionStore` views,
one per named session.  A session store abstracts exactly the
operations the journal and checkpoint writers perform:

* append / rotate / fsync journal segments (via :class:`SegmentAppender`),
* atomic checkpoint publish,
* list / read / delete segments and checkpoints (replay and pruning),
* torn-tail repair (truncate a segment to its valid prefix).

Three backends implement the contract — the original file-per-segment
layout (:mod:`repro.store.filestore`, byte-identical on disk), a sqlite
database (:mod:`repro.store.sqlitestore`) and an S3-style object store
(:mod:`repro.store.objectstore`).  The journal's recovery semantics are
therefore properties of *this interface*, not of one backend, and the
PR 5 fault matrix runs against all three.

Fault injection
---------------
The file backend keeps its :class:`~repro.session.journal.FileOpener`
seam.  The other backends have no file handles to wrap, so they consult
the same :class:`~repro.faults.plan.FaultPlan` through a
:class:`StoreGate` at equivalent *virtual* fault points: every journal
append gates ``("write", "<root>/<session>/wal-XXXXXXXXXX.jsonl")``,
every checkpoint publish gates the ``*.tmp`` write plus the
``replace``/``replace-done`` windows on the final checkpoint name.
Byte counters, globs and crash semantics (:class:`CrashPoint` tears
through ``except OSError``; a crashed gate stays dead) match the file
opener exactly, so one fault recipe drives all backends.

Keys
----
Segment keys are the file names of the file layout —
``wal-<firstseq:010d>.jsonl`` — and checkpoint keys are
``ckpt-<seq:010d>.json`` on every backend, which keeps naming, sorting
and fault-plan globs backend-independent.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..faults.plan import CrashPoint, FaultPlan
from ..session.journal import (
    JournalCorrupt,
    JournalTailGap,
    _decode_line,
    _segment_first_seq,
    _segment_name,
)

__all__ = [
    "CHECKPOINT_PREFIX",
    "CHECKPOINT_SUFFIX",
    "SegmentAppender",
    "SegmentStore",
    "SessionStore",
    "StoreGate",
    "check_keep_checkpoints",
    "checkpoint_name",
    "checkpoint_seq",
    "load_latest_checkpoint",
    "prune_checkpoints",
    "prune_segments",
    "prune_to_checkpoints",
    "read_store_entries",
    "segment_name",
    "store_tail_lines",
]

CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".json"


def segment_name(first_seq: int) -> str:
    """Canonical segment key: ``wal-<firstseq:010d>.jsonl``."""
    return _segment_name(first_seq)


def segment_first_seq(key: str) -> Optional[int]:
    return _segment_first_seq(key)


def checkpoint_name(seq: int) -> str:
    """Canonical checkpoint key: ``ckpt-<seq:010d>.json``."""
    return f"{CHECKPOINT_PREFIX}{seq:010d}{CHECKPOINT_SUFFIX}"


def checkpoint_seq(key: str) -> Optional[int]:
    name = os.path.basename(key)
    if not (name.startswith(CHECKPOINT_PREFIX)
            and name.endswith(CHECKPOINT_SUFFIX)):
        return None
    digits = name[len(CHECKPOINT_PREFIX):-len(CHECKPOINT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


# ---------------------------------------------------------------------------
# Fault gate for non-file backends
# ---------------------------------------------------------------------------

class StoreGate:
    """Interpret a :class:`~repro.faults.plan.FaultPlan` at virtual paths.

    The non-file backends call :meth:`point` / :meth:`write_action` at
    the same logical moments the file backend's
    :class:`~repro.faults.FaultOpener` intercepts real file I/O, with
    virtual targets shaped like the file layout so the same rule globs
    match.  ``crash`` actions mark the gate dead —
    :class:`~repro.faults.plan.CrashPoint` is raised from every later
    call, exactly like a killed process never touching storage again.
    """

    __slots__ = ("plan", "crashed")

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan
        self.crashed = False

    def check_alive(self) -> None:
        if self.crashed:
            raise CrashPoint("simulated process is dead")

    def crash(self, where: str) -> None:
        self.crashed = True
        raise CrashPoint(f"simulated kill -9 during {where}")

    def point(self, op: str, target: str) -> None:
        """A non-write fault point (open/flush/fsync/replace/remove)."""
        self.check_alive()
        if self.plan is None:
            return
        action = self.plan.decide(op, target)
        if action is None:
            return
        if action.kind == "crash":
            self.crash(f"{op} of {target}")
        raise OSError(action.errno, os.strerror(action.errno), target)

    def point_after(self, op: str, target: str) -> None:
        """A crash-only window *after* an operation landed
        (``replace-done``): non-crash actions are ignored, matching the
        file opener."""
        if self.crashed or self.plan is None:
            return
        action = self.plan.decide(op, target)
        if action is not None and action.kind == "crash":
            self.crash(f"{op} of {target}")

    def write_action(self, target: str, nbytes: int) -> Optional[Any]:
        """Decide for one write of ``nbytes`` to ``target``.

        ``None`` means proceed.  Otherwise the backend must first land
        whatever the action implies durably — the torn prefix
        (``action.keep`` bytes), or everything already buffered for a
        plain ``crash`` — and then call :meth:`finish_write`, which
        raises."""
        self.check_alive()
        if self.plan is None:
            return None
        return self.plan.decide("write", target, nbytes)

    def finish_write(self, target: str, action: Any, total: int) -> None:
        """Raise the fault :meth:`write_action` decided on."""
        if action.kind == "torn":
            if action.then == "crash":
                self.crash(f"torn write to {target}")
            raise OSError(action.errno,
                          f"{os.strerror(action.errno)} (torn write after "
                          f"{action.keep} of {total} bytes)", target)
        if action.kind == "crash":
            self.crash(f"write to {target}")
        raise OSError(action.errno, os.strerror(action.errno), target)


# ---------------------------------------------------------------------------
# The interface
# ---------------------------------------------------------------------------

class SegmentAppender:
    """An open, writable journal segment.

    The :class:`~repro.session.journal.JournalWriter` drives exactly
    the sequence it drove file handles with: ``write`` (land bytes in
    the backend's buffer), ``flush`` (hand them to the backend
    durably-visible layer), ``sync`` (force stable storage), ``close``.
    ``OSError`` from any of them degrades the journal;
    :class:`CrashPoint` tears through.
    """

    #: Segment key (``wal-XXXXXXXXXX.jsonl``).
    key: str = ""

    def write(self, line: bytes) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class SessionStore:
    """Every durable touch one session makes, behind one interface."""

    #: Backend name reported by ``health`` / ``stats`` frames.
    backend: str = "abstract"
    #: Human-readable location of this session's data.
    location: str = ""
    #: Real directory of the session when the backend is file-shaped
    #: (``None`` for database/object backends).
    fs_directory: Optional[str] = None

    # -- lifecycle ----------------------------------------------------------

    def prepare(self) -> None:
        """Create whatever the backend needs (directories, tables)."""
        raise NotImplementedError

    def exists(self) -> bool:
        """Does this session have any durable state?"""
        raise NotImplementedError

    def close(self) -> None:
        """Release per-session resources (never shared root handles)."""

    # -- journal segments ---------------------------------------------------

    def segments(self) -> List[Tuple[int, str]]:
        """``(first_seq, key)`` of every segment, ordered by first seq."""
        raise NotImplementedError

    def segment_size(self, key: str) -> int:
        raise NotImplementedError

    def read_segment(self, key: str) -> bytes:
        raise NotImplementedError

    def delete_segment(self, key: str) -> None:
        raise NotImplementedError

    def truncate_segment(self, key: str, size: int) -> None:
        """Torn-tail repair: keep only the first ``size`` bytes."""
        raise NotImplementedError

    def create_segment(self, first_seq: int, *,
                       durable: bool = True) -> SegmentAppender:
        """Open a fresh segment; with ``durable`` its existence survives
        a crash before any entry lands (file: fsync file + dir)."""
        raise NotImplementedError

    def open_segment(self, key: str) -> SegmentAppender:
        """Reopen an existing segment for appending."""
        raise NotImplementedError

    def rollback_segment(self, key: str, size: int) -> None:
        """Best-effort degradation rollback to the pre-append size.

        Unlike :meth:`truncate_segment` this must bypass the fault
        layer — it is the backstop running *after* the disk failed."""
        raise NotImplementedError

    def sync_root(self) -> None:
        """Persist namespace changes (file: fsync the directory)."""
        raise NotImplementedError

    def describe(self, key: str) -> str:
        """Human-readable address of ``key`` (file: the path)."""
        return f"{self.location}/{key}"

    # -- checkpoints --------------------------------------------------------

    def checkpoints(self) -> List[Tuple[int, str]]:
        """``(seq, key)`` of every published checkpoint, ordered."""
        raise NotImplementedError

    def read_checkpoint(self, key: str) -> Optional[bytes]:
        """Checkpoint payload, or ``None`` when unreadable/damaged."""
        raise NotImplementedError

    def publish_checkpoint(self, seq: int, data: bytes) -> str:
        """Atomically publish a checkpoint; returns its address.

        Must be all-or-nothing with respect to recovery: a crash at any
        point leaves either the previous checkpoint set or the previous
        set plus the complete new checkpoint — never a readable torn
        one."""
        raise NotImplementedError

    def delete_checkpoint(self, key: str) -> None:
        raise NotImplementedError


class SegmentStore:
    """A session root: names sessions, hands out :class:`SessionStore`."""

    backend: str = "abstract"
    location: str = ""

    def session(self, name: str) -> SessionStore:
        raise NotImplementedError

    def session_names(self) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release root-level resources (database connections)."""


# ---------------------------------------------------------------------------
# Generic readers — recovery, pruning and tailing over any backend
# ---------------------------------------------------------------------------

def read_store_entries(store: SessionStore, *,
                       after_seq: Optional[int] = None,
                       repair: bool = True) -> Iterator[Dict[str, Any]]:
    """Yield journal entries with ``seq > after_seq`` in order.

    The one journal reader of recovery: a torn tail in the last segment
    is truncated (with ``repair``) so later appends extend a clean
    journal; damage anywhere else raises
    :class:`~repro.session.journal.JournalCorrupt`.  ``after_seq`` is
    where replay stands — the loaded checkpoint's seq, or 0 without one.
    Entries up to it are only CRC-checked; the ones after it must run
    ``after_seq + 1, after_seq + 2, ...`` without a hole, else
    :class:`~repro.session.journal.JournalCorrupt` (replay would
    diverge).  ``None`` (the default) yields whatever the journal holds,
    from its first entry on.
    """
    start = after_seq if after_seq is not None else 0
    expected = after_seq + 1 if after_seq is not None else None
    segments = store.segments()
    for index, (_first, key) in enumerate(segments):
        is_last = index == len(segments) - 1
        data = store.read_segment(key)
        offset = 0
        pos = 0
        total = len(data)
        while pos < total:
            newline = data.find(b"\n", pos)
            if newline < 0:
                line = data[pos:]
                pos = total
            else:
                line = data[pos:newline + 1]
                pos = newline + 1
            entry = _decode_line(line)
            if entry is None or not isinstance(entry.get("seq"), int):
                if not is_last:
                    raise JournalCorrupt(
                        f"corrupt entry at byte {offset} of non-tail "
                        f"segment {store.describe(key)}")
                if repair:
                    store.truncate_segment(key, offset)
                return
            offset += len(line)
            seq = entry["seq"]
            if seq <= start:
                continue  # covered by the checkpoint replay starts from
            if expected is not None and seq != expected:
                raise JournalCorrupt(
                    f"sequence gap in {store.describe(key)}: expected "
                    f"seq {expected}, found {seq}")
            expected = seq + 1
            yield entry


def store_tail_lines(store: SessionStore, *, after_seq: int = 0,
                     limit: Optional[int] = None,
                     max_bytes: Optional[int] = None
                     ) -> List[Tuple[int, bytes]]:
    """Raw framed lines with ``seq > after_seq``, as ``(seq, line)``.

    The store-generic equivalent of one fresh
    :class:`~repro.session.journal.JournalTailReader` poll — used by
    replication export and scrub re-shipping.  An incomplete or
    checksum-failing line at the very end of the last segment is
    treated as not yet flushed (the batch simply stops before it);
    raises :class:`~repro.session.journal.JournalTailGap` when the
    requested range was pruned away.
    """
    next_seq = after_seq + 1
    out: List[Tuple[int, bytes]] = []
    out_bytes = 0
    segments = store.segments()
    if not segments:
        return out
    index: Optional[int] = None
    for i, (first, _key) in enumerate(segments):
        if first <= next_seq:
            index = i
        else:
            break
    if index is None:
        raise JournalTailGap(
            f"journal {store.location!r} now starts at seq "
            f"{segments[0][0]} but the reader needs {next_seq}; "
            f"resync from a checkpoint")
    for i in range(index, len(segments)):
        _first, key = segments[i]
        is_last = i == len(segments) - 1
        data = store.read_segment(key)
        pos = 0
        while True:
            newline = data.find(b"\n", pos)
            if newline < 0:
                break  # incomplete tail line: not yet durably visible
            line = data[pos:newline + 1]
            pos = newline + 1
            entry = _decode_line(line)
            if entry is None or not isinstance(entry.get("seq"), int):
                if is_last and pos >= len(data):
                    return out
                raise JournalCorrupt(
                    f"corrupt entry in {store.describe(key)}")
            seq = entry["seq"]
            if seq < next_seq:
                continue  # overlap at the start of a segment
            if seq != next_seq:
                raise JournalCorrupt(
                    f"sequence gap in {store.describe(key)}: expected "
                    f"{next_seq}, found {seq}")
            next_seq = seq + 1
            out.append((seq, line))
            out_bytes += len(line)
            if limit is not None and len(out) >= limit:
                return out
            if max_bytes is not None and out_bytes >= max_bytes:
                return out
    return out


def load_latest_checkpoint(store: SessionStore,
                           schema: Optional[str] = None
                           ) -> Optional[Dict[str, Any]]:
    """Newest checkpoint that parses (and carries ``schema`` when
    given); damaged candidates are skipped — an older checkpoint plus a
    longer journal replay still recovers."""
    for _seq, key in reversed(store.checkpoints()):
        data = store.read_checkpoint(key)
        if data is None:
            continue
        try:
            state = json.loads(data)
        except ValueError:
            continue
        if not isinstance(state, dict) or not isinstance(
                state.get("seq"), int):
            continue
        if schema is not None and state.get("schema") != schema:
            continue
        return state
    return None


def check_keep_checkpoints(keep: int) -> None:
    """Refuse to retain fewer than one checkpoint: the newest one is what
    the pruned journal segments are covered by."""
    if keep < 1:
        raise ValueError(f"keep_checkpoints must be >= 1, not {keep}")


def prune_checkpoints(store: SessionStore,
                      keep: int) -> List[Tuple[int, str]]:
    """Delete all but the newest ``keep`` checkpoint generations.

    Returns the ``(seq, key)`` of every checkpoint still stored, oldest
    first (one that failed to delete included).
    """
    check_keep_checkpoints(keep)
    checkpoints = store.checkpoints()
    undeleted: List[Tuple[int, str]] = []
    for seq, key in checkpoints[:-keep]:
        try:
            store.delete_checkpoint(key)
        except OSError:
            undeleted.append((seq, key))
    return undeleted + checkpoints[-keep:]


def prune_segments(store: SessionStore, up_to_seq: int) -> List[str]:
    """Delete whole segments whose every entry has ``seq <= up_to_seq``.

    The newest segment is always kept: it is the one being appended to,
    or the one a checkpoint just sealed.  Deletion runs oldest first and
    stops at the first failure, so what survives never has a hole.
    Returns the deleted keys.

    The deletions are not synced: a covered segment that reappears
    after a crash is never replayed, and the next prune deletes it.
    """
    segments = store.segments()
    deleted: List[str] = []
    for (_first, key), (next_first, _next) in zip(segments, segments[1:]):
        if next_first > up_to_seq + 1:
            break
        try:
            store.delete_segment(key)
        except OSError:
            break
        deleted.append(key)
    return deleted


def prune_to_checkpoints(store: SessionStore, keep: int) -> List[str]:
    """Keep the newest ``keep`` checkpoints and the journal they replay.

    The prune rule of a checkpoint, run once it is durable: every
    segment the oldest surviving checkpoint covers is deleted.
    Recovery can then fall back to any retained checkpoint, and it
    decodes at most the journal since the oldest one.  Returns the
    deleted segment keys.
    """
    survivors = prune_checkpoints(store, keep)
    return prune_segments(store, survivors[0][0]) if survivors else []


def encode_checkpoint(state: Dict[str, Any]) -> bytes:
    """The canonical checkpoint payload: compact, key-sorted JSON."""
    return json.dumps(state, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
