"""The write-ahead journal — ordered, CRC-checked JSON-line segments.

Durability spine of :mod:`repro.session`: every externally-justified
mutation of a design session is appended here *before* it is applied to
the constraint network (write-ahead logging).  Recovery composes the
latest checkpoint snapshot with a replay of the journal tail, so no
acknowledged mutation is lost even across ``kill -9``.

Format
------
A journal is a directory of segment files named ``wal-<firstseq>.jsonl``.
Each line holds one entry::

    <crc32-hex8> <compact-json>\n

where the checksum covers the JSON body's UTF-8 bytes.  Entries carry a
monotonically increasing ``seq`` number; the body is otherwise an opaque
operation dictionary owned by :class:`repro.session.session.Session`.

A torn tail — a partial line, a line whose checksum mismatches, or a
line that is not valid JSON — in the **last** segment is the signature
of a crash mid-append: it is truncated on open, not raised.  The same
damage in an earlier segment means bit-rot or external tampering and
raises :class:`JournalCorrupt` (replaying past a hole would silently
diverge).

Durability policy (``fsync``):

``"always"``
    ``os.fsync`` after every append — an acknowledged append survives
    power loss.  The default, and what the crash-recovery guarantees
    assume.
``"rotate"``
    fsync only on segment rotation, :meth:`JournalWriter.seal` and
    :meth:`JournalWriter.sync`; a crash may lose the OS-buffered tail of
    the current segment (but never tear an earlier one).
``"never"``
    buffer appends in the process; they reach the OS only on rotation,
    seal, :meth:`JournalWriter.sync` or close (benchmarks, throwaway
    sessions — a crash loses the buffered tail of the current segment).

Segment rotation is atomic with respect to recovery: the new segment
file is created, fsynced, and its directory entry fsynced *before* the
writer switches to it, so a crash at any point leaves either the old
segment as the tail or a valid (possibly empty) new one.

A checkpoint seals the current segment (:meth:`JournalWriter.seal`), so
the next append starts a new one and the segments a checkpoint covers
can be deleted whole.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

try:  # optional accelerator — the stdlib path below is always correct
    import orjson as _orjson
except ImportError:  # pragma: no cover - depends on the environment
    _orjson = None

__all__ = [
    "DEFAULT_OPENER",
    "FileOpener",
    "JournalCorrupt",
    "JournalDegraded",
    "JournalTailGap",
    "JournalTailReader",
    "JournalWriter",
    "read_entries",
    "scan_segments",
    "SEGMENT_PREFIX",
    "SEGMENT_SUFFIX",
]

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"

#: Default segment rotation threshold (bytes).
DEFAULT_SEGMENT_BYTES = 1 << 20

_FSYNC_POLICIES = ("always", "rotate", "never")


class JournalCorrupt(ValueError):
    """Unrecoverable journal damage (a hole before the tail)."""


class JournalTailGap(RuntimeError):
    """A tail reader fell behind the oldest surviving segment.

    Raised by :meth:`JournalTailReader.poll` when the entry it needs next
    was pruned (covered by a checkpoint).  The reader cannot continue
    from raw journal lines alone — the follower must resynchronise from a
    checkpoint snapshot first.
    """


class JournalDegraded(RuntimeError):
    """The journal hit a persistent disk error and is now read-only.

    Raised by every mutating call after the writer degrades.  The
    session stays alive for reads, fingerprints and verification; the
    already-acknowledged journal prefix on disk is intact (the failing
    append was rolled back best-effort, so recovery never surfaces an
    unacknowledged entry as committed).
    """


class FileOpener:
    """Seam for every file-system touch of the journal/checkpoint writers.

    The default instance simply forwards to the ``os`` layer.  Fault
    injection (:class:`repro.faults.FaultOpener`) subclasses this to
    interpose torn writes, fsync failures, ``ENOSPC`` and crash windows
    without the production paths knowing — they pay one attribute
    indirection, nothing more, when no fault layer is installed.
    """

    def __call__(self, path: str, mode: str = "r", **kwargs: Any) -> Any:
        return open(path, mode, **kwargs)

    def fsync(self, handle: Any) -> None:
        os.fsync(handle.fileno())

    def fsync_dir(self, directory: str) -> None:
        _fsync_directory(directory)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def getsize(self, path: str) -> int:
        return os.path.getsize(path)


#: Shared pass-through opener used when no fault layer is installed.
DEFAULT_OPENER = FileOpener()


def _segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:010d}{SEGMENT_SUFFIX}"


def _segment_first_seq(name: str) -> Optional[int]:
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    digits = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def scan_segments(directory: str) -> List[Tuple[int, str]]:
    """``(first_seq, path)`` of every segment, ordered by first sequence."""
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return found
    for name in names:
        first = _segment_first_seq(name)
        if first is not None:
            found.append((first, os.path.join(directory, name)))
    found.sort()
    return found


def _fsync_directory(directory: str) -> None:
    """Persist directory entries (new/renamed files) where supported."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. Windows: directories are not fsync-able
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# A single reusable encoder: ``json.dumps`` with non-default options
# builds a fresh ``JSONEncoder`` per call, which dominates the append
# path's CPU cost on small entries.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_ORJSON_OPTIONS = _orjson.OPT_SORT_KEYS if _orjson is not None else 0


def _safe_str(text: str) -> bool:
    # No escaping needed → formats as '"' + text + '"' exactly like the
    # JSON encoder (which escapes non-ASCII, quotes, backslashes and
    # control characters).
    return (text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text)


def _format_flat(entry: Dict[str, Any]) -> Optional[str]:
    """Byte-identical fast path of ``_ENCODER.encode`` for flat entries.

    The dominant journal traffic is small dicts of plain scalars
    (assign/retract ops); formatting those by hand roughly halves append
    CPU.  Anything needing escaping, float special cases, or nesting
    returns ``None`` and takes the real encoder.
    """
    parts = []
    for key in sorted(entry):
        value = entry[key]
        kind = type(value)
        if kind is str:
            if not _safe_str(value):
                return None
            text = '"' + value + '"'
        elif kind is int:
            text = repr(value)
        elif kind is bool:
            text = "true" if value else "false"
        elif value is None:
            text = "null"
        elif kind is float:
            if value != value or value in (float("inf"), float("-inf")):
                return None
            text = repr(value)
        else:
            return None
        parts.append('"' + key + '":' + text)
    return "{" + ",".join(parts) + "}"


def _frame(data: bytes) -> bytes:
    """The journal line framing: checksum, space, body, newline."""
    return b"%08x " % (zlib.crc32(data) & 0xFFFFFFFF,) + data + b"\n"


def format_assign_body(var: str, value_json: str, just: str,
                       seq: int, rid: Optional[str] = None) -> bytes:
    """Fused compact encoding of one assign op.

    ``var``, ``just`` (and ``rid`` when present) must be escape-free
    (:func:`_safe_str`) and ``value_json`` already-valid JSON text.
    Byte-identical to what :func:`encode_entry` produces for the
    equivalent dict — keys in sorted order, compact separators.
    """
    if rid is None:
        return ('{"just":"%s","op":"assign","seq":%d,"value":%s,"var":"%s"}'
                % (just, seq, value_json, var)).encode("utf-8")
    return ('{"just":"%s","op":"assign","rid":"%s","seq":%d,'
            '"value":%s,"var":"%s"}'
            % (just, rid, seq, value_json, var)).encode("utf-8")


def format_batch_body(entries: List[Tuple[str, str, str]],
                      seq: int, rid: Optional[str] = None) -> bytes:
    """Fused compact encoding of one batch op.

    ``entries`` holds ``(var, value_json, just)`` triples under the same
    escape-free contract as :func:`format_assign_body`.  Byte-identical
    to :func:`encode_entry` on the equivalent nested dict.
    """
    body = ",".join('{"just":"%s","value":%s,"var":"%s"}'
                    % (just, value_json, var)
                    for var, value_json, just in entries)
    if rid is None:
        return ('{"entries":[%s],"op":"batch","seq":%d}'
                % (body, seq)).encode("utf-8")
    return ('{"entries":[%s],"op":"batch","rid":"%s","seq":%d}'
            % (body, rid, seq)).encode("utf-8")


def encode_entry(entry: Dict[str, Any]) -> bytes:
    """One journal line: checksum, space, compact JSON, newline.

    Every encoder used here emits compact, key-sorted JSON that
    ``json.loads`` reads back; the checksum always covers exactly the
    bytes written, so mixed-encoder journals are fine.  Non-finite
    floats are written as the stdlib writes them (``Infinity``,
    ``-Infinity``, ``NaN``) on every path.
    """
    if _orjson is not None:
        try:
            data = _orjson.dumps(entry, option=_ORJSON_OPTIONS)
        except (TypeError, ValueError):  # e.g. an int beyond 64 bits
            data = None
        if data is None or b"null" in data:
            # orjson writes inf and NaN as null; the stdlib keeps them.
            data = _ENCODER.encode(entry).encode("utf-8")
    else:
        body = _format_flat(entry)
        if body is None:
            body = _ENCODER.encode(entry)
        data = body.encode("utf-8")
    return _frame(data)


def _decode_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Entry dict, or ``None`` for a torn/corrupt line."""
    if not line.endswith(b"\n") or len(line) < 11 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        entry = json.loads(body)
    except ValueError:
        return None
    return entry if isinstance(entry, dict) else None


class JournalWriter:
    """Append-only writer over a journal directory.

    Parameters
    ----------
    directory:
        Journal directory (created if missing).  Shorthand for a
        :class:`repro.store.FileSessionStore` over that directory.
    store:
        A :class:`repro.store.SessionStore` performing every durable
        touch; when given, ``directory``/``opener`` are ignored and the
        journal lives wherever the backend puts it.
    next_seq:
        Sequence number the next append will carry; recovery passes the
        value it reached while replaying.
    fsync:
        Durability policy — ``"always"`` (default), ``"rotate"`` or
        ``"never"``; see the module docstring.
    segment_max_bytes:
        Rotation threshold; a segment is closed once it grows past this.
    observer:
        Optional :class:`repro.obs.observer.Observer` fed per-append
        byte counts and latencies.
    opener:
        :class:`FileOpener` performing every file-system touch; the
        fault-injection seam.  Defaults to the pass-through
        :data:`DEFAULT_OPENER`.
    tail_lines:
        How many recently-appended lines to keep in memory for
        :meth:`recent_lines` (the replication fast path).

    Disk errors (``OSError`` from any write/flush/fsync/rotate) switch
    the writer into **degraded** mode: the failing append is rolled back
    best-effort (segment truncated to its pre-append size), the handle
    is closed, and every further mutating call raises
    :class:`JournalDegraded` instead of half-writing entries.
    """

    def __init__(self, directory: Optional[str] = None, *,
                 store: Any = None, next_seq: int = 1,
                 fsync: str = "always",
                 segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
                 observer: Any = None,
                 opener: Optional[FileOpener] = None,
                 tail_lines: int = 512) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of {_FSYNC_POLICIES}, "
                             f"not {fsync!r}")
        if store is None:
            if directory is None:
                raise ValueError("JournalWriter needs a directory or a store")
            from ..store.filestore import FileSessionStore
            store = FileSessionStore(directory, opener=opener)
        self._store = store
        self.directory = (directory if directory is not None
                          else store.fs_directory)
        self._where = self.directory or store.location
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        self.observer = observer
        self._append_hook = getattr(observer, "journal_appended", None)
        # Per-append policy, resolved once (string compares are visible
        # on the hot path).
        self._fsync_each = fsync == "always"
        self._flush_each = fsync != "never"
        self._next_seq = next_seq
        self._appender: Optional[Any] = None
        self._segment_key: Optional[str] = None
        self._segment_size = 0
        self._degraded: Optional[OSError] = None
        # Recent appended lines, verbatim — the replication fast path
        # ships these bytes to a follower without re-reading the disk
        # (and without waiting for an fsync="never" buffer to flush).
        self._tail: Deque[Tuple[int, bytes]] = deque(maxlen=tail_lines)
        store.prepare()
        segments = store.segments()
        if segments and segments[-1][0] <= next_seq:
            # Keep appending to the existing tail segment (recovery has
            # already truncated any torn line off its end).
            self._segment_key = segments[-1][1]
            self._segment_size = store.segment_size(self._segment_key)
            self._appender = store.open_segment(self._segment_key)

    # -- lifecycle ----------------------------------------------------------

    @property
    def position(self) -> int:
        """Sequence number the next append will carry."""
        return self._next_seq

    @property
    def degraded(self) -> bool:
        """True once a disk error froze the writer read-only."""
        return self._degraded is not None

    @property
    def degraded_error(self) -> Optional[OSError]:
        """The disk error that degraded the writer, if any."""
        return self._degraded

    def close(self) -> None:
        appender, self._appender = self._appender, None
        if appender is None:
            return
        try:
            appender.flush()
            if self.fsync != "never":
                appender.sync()
        except OSError as error:
            # Closing is a teardown path: record the failure (the tail
            # of a "never"-policy journal may be lost) but never raise
            # over whatever the caller is already unwinding.
            self._degraded = error
        finally:
            try:
                appender.close()
            except OSError:
                pass

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- appending ----------------------------------------------------------

    def append(self, op: Dict[str, Any]) -> int:
        """Write one operation durably; returns its sequence number.

        The entry is on disk (to the configured durability level) when
        this returns — callers apply the mutation only afterwards.  The
        writer takes ownership of ``op`` and stamps its ``seq`` into it.
        """
        seq = self._next_seq
        op["seq"] = seq
        return self._append_line(encode_entry(op), seq)

    def append_assign(self, var: str, value_json: str, just: str,
                      rid: Optional[str] = None) -> int:
        """Hot-path append of one assign entry, bypassing dict encoding.

        ``var`` and ``just`` (and ``rid`` when given) must be escape-free
        strings and ``value_json`` already-valid JSON text; callers check
        with :func:`_safe_str` and fall back to :meth:`append`.  Produces
        the same bytes ``append({"op": "assign", ...})`` would.
        """
        seq = self._next_seq
        return self._append_line(
            _frame(format_assign_body(var, value_json, just, seq, rid)),
            seq)

    def append_batch(self, entries: List[Tuple[str, str, str]],
                     rid: Optional[str] = None) -> int:
        """Hot-path append of one batch entry, bypassing dict encoding.

        ``entries`` holds ``(var, value_json, just)`` triples under the
        :meth:`append_assign` escape-free contract.  One CRC-checked
        record covers the whole batch; produces the same bytes
        ``append({"op": "batch", "entries": [...]})`` would.
        """
        seq = self._next_seq
        return self._append_line(
            _frame(format_batch_body(entries, seq, rid)), seq)

    def _append_line(self, line: bytes, seq: int) -> int:
        """Land one framed line: the single appender/rotate/hook path."""
        appender = self._appender
        if appender is None or self._segment_size >= self.segment_max_bytes:
            # A degraded writer always has a None appender, so the slow
            # path also raises JournalDegraded for frozen journals.
            appender = self._active_appender(seq)
        self._write_line(appender, line)
        self._next_seq = seq + 1
        self._tail.append((seq, line))
        hook = self._append_hook
        if hook is not None:
            hook(len(line))
        return seq

    def _active_appender(self, first_seq: int) -> Any:
        """The writable segment appender, rotating (or refusing) as needed."""
        if self._degraded is not None:
            raise JournalDegraded(self._degraded_message())
        appender = self._appender
        if appender is None or self._segment_size >= self.segment_max_bytes:
            try:
                appender = self._rotate(first_seq)
            except OSError as error:
                self._enter_degraded(error, rollback_size=None)
        return appender

    def _write_line(self, appender: Any, line: bytes) -> None:
        """Land one encoded line on disk, or degrade trying.

        "never" keeps entries in the process buffer (durable only at
        rotate/close/sync); the other policies hand each entry to the
        OS, "always" additionally forcing it to stable storage.  Any
        ``OSError`` from the disk rolls the segment back to its
        pre-append size and raises :class:`JournalDegraded` — an
        acknowledged entry is durable, a failed one leaves no trace.
        """
        pre_size = self._segment_size
        try:
            appender.write(line)
            self._segment_size += len(line)
            if self._flush_each:
                appender.flush()
                if self._fsync_each:
                    appender.sync()
        except OSError as error:
            self._enter_degraded(error, rollback_size=pre_size)

    def _enter_degraded(self, error: OSError,
                        rollback_size: Optional[int]) -> None:
        """Contain a disk failure: freeze the writer read-only.

        The handle is closed, a best-effort truncate rewinds the current
        segment to its pre-append size (an *unacknowledged* entry must
        not surface on recovery as if it had been acknowledged — the
        fsync-failure gray zone), and every later mutating call raises
        :class:`JournalDegraded`.  The session object stays alive:
        reads, fingerprints and recovery by another process keep
        working against the intact acknowledged prefix.
        """
        self._degraded = error
        appender, self._appender = self._appender, None
        if appender is not None:
            try:
                appender.close()
            except OSError:
                pass
        if rollback_size is not None and self._segment_key is not None:
            try:
                self._store.rollback_segment(self._segment_key,
                                             rollback_size)
                self._segment_size = rollback_size
            except OSError:
                pass  # recovery's torn-tail repair is the backstop
        observer = self.observer
        if observer is not None:
            hook = getattr(observer, "journal_degraded", None)
            if hook is not None:
                hook(str(error))
        raise JournalDegraded(self._degraded_message()) from error

    def _degraded_message(self) -> str:
        return (f"journal {self._where!r} is degraded (read-only) "
                f"after a disk error: {self._degraded}")

    def recent_lines(self, after_seq: int) -> Optional[List[bytes]]:
        """Raw journal lines with ``seq > after_seq``, from memory.

        Returns ``[]`` when the caller is already caught up, the framed
        lines (checksum, body, newline — exactly the bytes on disk) when
        the in-memory tail still covers the requested range, and ``None``
        when it does not (the caller must fall back to reading the
        segment files).  Works regardless of the fsync policy: the bytes
        come from the writer, not the OS buffer.
        """
        if after_seq >= self._next_seq - 1:
            return []
        tail = self._tail
        if not tail or tail[0][0] > after_seq + 1:
            return None
        return [line for seq, line in tail if seq > after_seq]

    def sync(self) -> None:
        """Force the current segment to stable storage."""
        if self._degraded is not None:
            raise JournalDegraded(self._degraded_message())
        if self._appender is not None:
            try:
                self._appender.flush()
                self._appender.sync()
            except OSError as error:
                self._enter_degraded(error, rollback_size=None)

    def _rotate(self, first_seq: int) -> Any:
        """Close the current segment and start ``wal-<first_seq>``.

        The new segment is durable (backend-persisted; the file layout
        fsyncs the file and its directory entry) before any entry lands
        in it, so recovery always sees either the old tail or a valid
        new segment.
        """
        appender, self._appender = self._appender, None
        if appender is not None:
            appender.flush()
            if self.fsync != "never":
                appender.sync()
            appender.close()
        new_appender = self._store.create_segment(
            first_seq, durable=self.fsync != "never")
        self._segment_key = new_appender.key
        self._segment_size = 0
        self._appender = new_appender
        observer = self.observer
        if observer is not None:
            hook = getattr(observer, "journal_rotated", None)
            if hook is not None:
                hook(new_appender.key)
        return new_appender

    def seal(self) -> None:
        """Close the current segment; the next append starts a new one.

        A checkpoint seals the journal, so every segment before it ends
        at or below the checkpoint's sequence number and can be pruned
        whole.  A flush or sync error degrades the writer exactly as a
        failed rotation does.
        """
        appender = self._appender
        if appender is None:
            return
        try:
            appender.flush()
            if self.fsync == "rotate":  # "always" synced every append
                appender.sync()
        except OSError as error:
            self._enter_degraded(error, rollback_size=None)
        self._appender = None
        appender.close()

    # -- maintenance --------------------------------------------------------

    def prune(self, up_to_seq: int) -> List[str]:
        """Delete whole segments whose every entry has ``seq <= up_to_seq``.

        The newest segment is always kept (see
        :func:`repro.store.base.prune_segments`).  Returns the deleted
        paths.
        """
        from ..store.base import prune_segments
        store = self._store
        return [store.describe(key)
                for key in prune_segments(store, up_to_seq)]


def read_entries(directory: str, *, after_seq: Optional[int] = None,
                 repair: bool = True) -> Iterator[Dict[str, Any]]:
    """Yield the entries with ``seq > after_seq`` of a journal directory.

    :func:`repro.store.base.read_store_entries` over the file layout: a
    torn tail in the last segment is truncated (with ``repair``); other
    damage, or a hole right after a given ``after_seq``, raises
    :class:`JournalCorrupt`.
    """
    from ..store.base import read_store_entries
    from ..store.filestore import FileSessionStore
    return read_store_entries(FileSessionStore(directory),
                              after_seq=after_seq, repair=repair)


class JournalTailReader:
    """Incrementally follow a live journal directory — the follower path.

    Unlike :func:`read_entries` (one complete pass with tail repair),
    this reader is built for polling a journal *while it is being
    written*: it remembers its byte offset between calls, follows
    segment rotation, and treats an incomplete or checksum-failing line
    at the very end of the last segment as *not yet fully flushed* —
    :meth:`poll` simply stops before it and picks it up next time.  The
    journal file is never modified.

    Raw framed lines are returned alongside each decoded entry so a
    replica can append byte-identical lines to its own copy.

    Raises
    ------
    :class:`JournalCorrupt`
        for damage that cannot be a write in progress — a bad line with
        data after it, or a sequence gap inside the journal.
    :class:`JournalTailGap`
        when the next needed entry was pruned away (the reader must
        resynchronise from a checkpoint).
    """

    def __init__(self, directory: str, *, after_seq: int = 0) -> None:
        self.directory = directory
        self._next_seq = after_seq + 1
        self._path: Optional[str] = None
        self._offset = 0

    @property
    def position(self) -> int:
        """Sequence number of the last entry returned."""
        return self._next_seq - 1

    def poll(self, *, limit: Optional[int] = None,
             max_bytes: Optional[int] = None) -> List[Tuple[int, bytes]]:
        """New complete entries since the last call, as (seq, raw line).

        Returns an empty list when nothing new is durably visible yet.
        ``limit`` / ``max_bytes`` bound one batch (the reader resumes
        exactly where it stopped).
        """
        out: List[Tuple[int, bytes]] = []
        out_bytes = 0
        while True:
            before = (self._path, self._offset, self._next_seq)
            segments = scan_segments(self.directory)
            if not segments:
                return out
            index = None
            for i, (first, _path) in enumerate(segments):
                if first <= self._next_seq:
                    index = i
                else:
                    break
            if index is None:
                raise JournalTailGap(
                    f"journal {self.directory!r} now starts at seq "
                    f"{segments[0][0]} but the reader needs "
                    f"{self._next_seq}; resync from a checkpoint")
            path = segments[index][1]
            is_last = index == len(segments) - 1
            if path != self._path:
                self._path = path
                self._offset = 0
            try:
                with open(path, "rb") as handle:
                    handle.seek(self._offset)
                    data = handle.read()
            except FileNotFoundError:
                self._path = None  # pruned between scan and open
                continue
            pos = 0
            while True:
                newline = data.find(b"\n", pos)
                if newline < 0:
                    break  # incomplete tail line: wait for more bytes
                line = data[pos:newline + 1]
                pos = newline + 1
                entry = _decode_line(line)
                if entry is None or not isinstance(entry.get("seq"), int):
                    if is_last and pos >= len(data):
                        # Checksum failure on the very last visible
                        # line: a buffered writer may have flushed it in
                        # pieces — re-read it whole on the next poll.
                        return out
                    raise JournalCorrupt(
                        f"corrupt entry at byte {self._offset} of {path}")
                seq = entry["seq"]
                self._offset += len(line)
                if seq < self._next_seq:
                    continue  # overlap at the start of a segment
                if seq != self._next_seq:
                    raise JournalCorrupt(
                        f"sequence gap in {path}: expected "
                        f"{self._next_seq}, found {seq}")
                self._next_seq = seq + 1
                out.append((seq, line))
                out_bytes += len(line)
                if limit is not None and len(out) >= limit:
                    return out
                if max_bytes is not None and out_bytes >= max_bytes:
                    return out
            # Loop again only while making progress (a rotation may have
            # exposed a newer segment); a quiet journal returns.
            if (self._path, self._offset, self._next_seq) == before:
                return out
