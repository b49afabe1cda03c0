"""Tiered snapshot compaction — fold cold segments into a checkpoint.

A long-lived session accumulates journal segments faster than its
designer checkpoints.  Compaction replays a **closed** session up to a
segment boundary (via ``Session(replay_to=...)``, the time-travel
hook), publishes that state as a checkpoint at the boundary sequence,
and prunes as every checkpoint does (``prune_to_checkpoints``) — so
recovery cost stays proportional to the hot tail, not to session
lifetime, and can still fall back to any checkpoint it keeps.

The publish goes through the same
:meth:`~repro.store.base.SessionStore.publish_checkpoint` gate as a
designer checkpoint, so every crash window inside it (before the tmp
write, mid-write, before the rename, after the rename but before the
root sync) is covered by the fault matrix: a crash anywhere leaves
either the old checkpoint or the new one, never a half state, and the
journal always still holds every entry past whichever survived.

Compaction must only run against sessions with **no live writer** — an
open :class:`~repro.session.session.Session` owns the tail segment and
prunes on its own checkpoints.  :class:`CompactionWorker` enforces that
with a ``skip`` predicate (the server passes "is this session open?").
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from .base import (
    SegmentStore,
    SessionStore,
    check_keep_checkpoints,
    encode_checkpoint,
    load_latest_checkpoint,
    prune_to_checkpoints,
)

__all__ = ["CompactionWorker", "compact_session"]


def compact_session(store: SessionStore, *, name: str = "session",
                    keep_segments: int = 1,
                    keep_checkpoints: int = 2) -> Dict[str, Any]:
    """Compact one closed session; return what was done.

    ``keep_segments`` newest segments stay as the replayable hot tail
    (at least one — the tail segment is never folded).  Older segments
    are covered by a checkpoint published at the boundary; the prune
    keeps the ``keep_checkpoints`` newest checkpoints and the journal
    after the oldest of them.
    """
    if keep_segments < 1:
        raise ValueError("keep_segments must be >= 1")
    check_keep_checkpoints(keep_checkpoints)
    report: Dict[str, Any] = {"session": name, "performed": False,
                              "checkpoint_seq": None,
                              "pruned_segments": []}
    segments = store.segments()
    if len(segments) <= keep_segments:
        return report
    boundary = segments[-keep_segments][0] - 1
    latest = load_latest_checkpoint(store)
    if latest is not None and boundary <= latest.get("seq", 0):
        # The cold segments are already covered; a designer checkpoint
        # got there first.  Pruning is the journal writer's job then.
        return report

    # Rebuild the state as of the boundary.  The session layer imports
    # this package, so import it lazily here (submodule, not re-export).
    from ..session.session import Session

    session = Session(name, store=store, read_only=True,
                      replay_to=boundary)
    try:
        state = session._snapshot_state()
    finally:
        session.close()
    if state["seq"] != boundary:
        # The journal has a hole below the boundary (scrub territory);
        # publishing here would silently drop entries.
        report["error"] = (f"replay stopped at seq {state['seq']}, "
                           f"expected boundary {boundary}")
        return report

    store.publish_checkpoint(boundary, encode_checkpoint(state))
    report["performed"] = True
    report["checkpoint_seq"] = boundary

    report["pruned_segments"] = prune_to_checkpoints(store,
                                                     keep_checkpoints)
    return report


class CompactionWorker:
    """Background thread compacting every closed session in a root.

    ``skip`` is consulted with each session name before compaction;
    return ``True`` for sessions that currently have a live writer.
    """

    def __init__(self, store: SegmentStore, *, interval: float = 60.0,
                 keep_segments: int = 1, keep_checkpoints: int = 2,
                 skip: Optional[Callable[[str], bool]] = None) -> None:
        self.store = store
        self.interval = interval
        self.keep_segments = keep_segments
        self.keep_checkpoints = keep_checkpoints
        self.skip = skip
        self.runs = 0
        self.compacted = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def run_once(self) -> List[Dict[str, Any]]:
        """One sweep over every session; returns the per-session reports."""
        reports: List[Dict[str, Any]] = []
        for name in self.store.session_names():
            if self.skip is not None and self.skip(name):
                continue
            try:
                report = compact_session(
                    self.store.session(name), name=name,
                    keep_segments=self.keep_segments,
                    keep_checkpoints=self.keep_checkpoints)
            except Exception as error:  # noqa: BLE001 - keep sweeping
                self.errors += 1
                reports.append({"session": name, "performed": False,
                                "error": str(error)})
                continue
            if report.get("performed"):
                self.compacted += 1
            reports.append(report)
        self.runs += 1
        return reports

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.run_once()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-compaction",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "CompactionWorker":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
