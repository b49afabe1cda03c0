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
prunes on its own checkpoints.  ``repro store-compact`` runs it on one
session of a root that no server is serving.
"""

from __future__ import annotations

from typing import Any, Dict

from .base import (
    SessionStore,
    check_keep_checkpoints,
    encode_checkpoint,
    load_latest_checkpoint,
    prune_to_checkpoints,
)

__all__ = ["compact_session"]


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
