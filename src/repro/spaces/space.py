"""Encapsulated computation spaces (Mozart-style what-if exploration).

A :class:`Space` is a speculative child universe over one
:class:`~repro.core.engine.PropagationContext`: it sees the parent's
constraint store, accepts ordinary ``assign`` / ``assign_many`` rounds,
and ends in exactly one of

* :meth:`Space.commit` — the accumulated assignments merge into the
  parent as **one** batched round (through the parent's recorder, so a
  durable session journals a single ``{"op": "batch"}`` frame and
  replay/undo/fingerprint semantics come for free),
* :meth:`Space.discard` — every effect vanishes without a trace: the
  parent is byte-identical (values, justifications, stats, violations,
  journal position) to never having opened the space.

One space at a time may be open on a context.

The cloning is copy-on-write: structure (cells, constraints, the
variables themselves) is shared with the parent, and the space records a
**pre-state overlay** — for every variable a round touches while the
space is open, the ``(justification, value)`` it had when first touched.
Three engine seams feed the overlay:

* ``PropagationContext.recorder`` — the space captures each requested
  assignment (tentatively; a violating round drops it again) instead of
  the parent's write-ahead journal,
* ``PropagationContext.shadow`` — the engine reports every non-silent
  round's visited pre-states (``absorb_visited``) and rollbacks
  (``round_rolled_back``),
* ``PropagationContext.handler`` — violations inside the space land in
  ``Space.violations``, never in the parent's log.

Structural edits (constraint add/remove, cell edits, session undo/redo/
checkpoint) are **not** speculative: a session refuses them while a
space is open, and pure-context users must confine a space to value
rounds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.justification import USER, Justification
from ..core.violations import ViolationHandler, ViolationRecord

__all__ = ["Space", "SpaceError"]


class SpaceError(RuntimeError):
    """Illegal computation-space lifecycle transition."""


class _SpaceViolationHandler(ViolationHandler):
    """Collects speculative violations on the space, silently."""

    def __init__(self, space: "Space") -> None:
        self._space = space

    def handle(self, record: ViolationRecord) -> None:
        self._space.violations.append(record)


class Space:
    """One speculative child universe over ``context``.

    Use as a context manager; leaving the block discards the space
    unless it was committed (or discarded) inside::

        with session.space() as space:
            if space.assign("v:width", 9):
                space.commit()      # one journaled batch on the parent
            # else: falling out of the block discards silently

    Parameters
    ----------
    context:
        The :class:`~repro.core.engine.PropagationContext` to speculate
        over.
    session:
        Optional owning :class:`~repro.session.session.Session`; enables
        string addresses in :meth:`assign` / :meth:`assign_many` and the
        session's structural-operation guard.
    """

    def __init__(self, context: Any, *, session: Any = None) -> None:
        self._context = context
        self._session = session
        #: Violation records captured while the space was the handler.
        self.violations: List[ViolationRecord] = []
        self._overlay: Dict[Any, Tuple[Justification, Any]] = {}
        self._log: List[Tuple[Any, Any, Justification]] = []
        self._pending: Optional[int] = None
        self._saved_recorder: Any = None
        self._saved_handler: Any = None
        self._saved_stats: Optional[Dict[str, int]] = None
        self.state = "new"

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.state in ("committed", "discarded")

    def open(self) -> "Space":
        """Install the space over its context (clone point)."""
        if self.state != "new":
            raise SpaceError(f"cannot reopen a {self.state} space")
        context = self._context
        if context.in_round:
            raise SpaceError("cannot open a space while propagation "
                             "is running")
        if context.shadow is not None:
            raise SpaceError("another space is already open on this "
                             "context")
        self._saved_recorder = context.recorder
        self._saved_handler = context.handler
        self._saved_stats = context.stats.snapshot()
        context.recorder = self
        context.handler = _SpaceViolationHandler(self)
        context.shadow = self
        self.state = "open"
        session = self._session
        if session is not None:
            session._space_open = True
        self._observe("clone")
        return self

    def __enter__(self) -> "Space":
        return self.open() if self.state == "new" else self

    def __exit__(self, *exc_info: Any) -> None:
        if self.state == "open":
            self.discard()

    def _require_open(self) -> None:
        if self.state != "open":
            raise SpaceError(f"space is {self.state}, not open")

    # -- speculative rounds -------------------------------------------------

    def _variable(self, target: Any) -> Any:
        if isinstance(target, str):
            if self._session is None:
                raise SpaceError(f"string address {target!r} needs a "
                                 f"session-attached space")
            return self._session._target_variable(target)
        return target

    def assign(self, target: Any, value: Any,
               justification: Justification = USER) -> bool:
        """One speculative external assignment; returns validity.

        A rejected assignment (violation) leaves the space exactly as it
        was — the entry never reaches the commit log.
        """
        self._require_open()
        return self._context.assign(self._variable(target), value,
                                    justification)

    def assign_many(self, assignments: Any,
                    justification: Justification = USER) -> bool:
        """One speculative batched round (all-or-nothing, like the
        engine's :meth:`~repro.core.engine.PropagationContext.assign_many`)."""
        self._require_open()
        resolved = []
        for item in assignments:
            if len(item) == 2:
                target, value = item
                resolved.append((self._variable(target), value,
                                 justification))
            else:
                target, value, just = item
                resolved.append((self._variable(target), value, just))
        return self._context.assign_many(resolved)

    def get(self, target: Any) -> Tuple[Any, Any]:
        """``(value, justification)`` as seen inside the space."""
        variable = self._variable(target)
        return variable.raw_value, variable.last_set_by

    @property
    def log(self) -> List[Tuple[Any, Any, Justification]]:
        """The accepted assignments a commit would merge (copy)."""
        return list(self._log)

    # -- engine seam: PropagationContext.recorder ---------------------------

    def record_assign(self, variable: Any, value: Any,
                      justification: Justification) -> None:
        """Write-ahead capture of one speculative assignment.

        Tentative while the round runs: ``round_rolled_back`` drops it,
        ``absorb_visited`` confirms it.  With
        propagation disabled there is no round, so the entry confirms
        immediately (the store is unconditional).
        """
        self._note_pre(variable)
        self._pending = len(self._log)
        self._log.append((variable, value, justification))
        if not self._context.enabled:
            self._pending = None

    def record_batch(self, entries: List[Tuple[Any, Any, Justification]]) -> None:
        """Write-ahead capture of one speculative batch (pre-coalesce,
        so a commit re-coalesces exactly like a direct ``assign_many``)."""
        self._pending = len(self._log)
        for variable, value, justification in entries:
            self._note_pre(variable)
            self._log.append((variable, value, justification))
        if not self._context.enabled:
            self._pending = None

    # -- engine seam: PropagationContext.shadow -----------------------------

    def _note_pre(self, variable: Any) -> None:
        if variable not in self._overlay:
            self._overlay[variable] = (variable.last_set_by,
                                       variable.raw_value)

    def absorb_visited(self, visited: Dict[Any, Tuple[Justification, Any]]) -> None:
        """A non-silent round closed: merge its pre-states (first touch
        wins) and confirm any pending log entries."""
        overlay = self._overlay
        for variable, pre_state in visited.items():
            if variable not in overlay:
                overlay[variable] = pre_state
        self._pending = None

    def round_rolled_back(self) -> None:
        """The engine restored a non-silent round: the requested entries
        never happened, so they leave the commit log again."""
        if self._pending is not None:
            del self._log[self._pending:]
            self._pending = None

    # -- endings ------------------------------------------------------------

    def _restore_parent(self) -> None:
        """Undo the clone: overlay pre-states, stats, hooks."""
        context = self._context
        for variable, (justification, value) in self._overlay.items():
            variable._store(value, justification)
        stats = context.stats
        for name, value in self._saved_stats.items():
            setattr(stats, name, value)
        context.recorder = self._saved_recorder
        context.handler = self._saved_handler
        context.shadow = None
        session = self._session
        if session is not None:
            session._space_open = False

    def discard(self) -> None:
        """Vanish without a trace: the parent is byte-identical to never
        having opened the space."""
        self._require_open()
        self._restore_parent()
        self.state = "discarded"
        self._observe("discard")

    def commit(self) -> bool:
        """Merge the accumulated assignments into the parent as one
        batched round.

        The space first restores the parent completely (discard
        semantics), then replays its accepted log through the parent's
        ordinary ``assign_many`` — so a session journals exactly one
        ``{"op": "batch"}`` frame.  Returns the batch's validity; a
        ``False`` (the parent rejected the merged batch) leaves the
        parent untouched.
        """
        self._require_open()
        log = self._log
        self._restore_parent()
        self.state = "committed"
        ok = True
        if log:
            ok = self._context.assign_many(log)
        self._observe("commit")
        return ok

    # -- observability ------------------------------------------------------

    def _observe(self, kind: str) -> None:
        observer = self._context.observer
        if observer is not None:
            hook = getattr(observer, "space_event", None)
            if hook is not None:
                hook(kind)

    def __repr__(self) -> str:
        return (f"<Space {self.state} entries={len(self._log)} "
                f"overlay={len(self._overlay)} "
                f"violations={len(self.violations)}>")
