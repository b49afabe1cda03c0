"""Durable design sessions — the unit of recoverable, undoable work.

The thesis frames STEM as a shared design database that designers mutate
incrementally: values are assigned and retracted, constraints added and
removed, structure edited — and dependency records make the effects of
every mutation traceable and reversible (sections 1.2, 4.2.5, 6.3).  A
:class:`Session` packages exactly that unit of work durably:

* every externally-justified mutation is captured as a journal entry
  **before** it is applied (write-ahead logging) — external assignments
  are captured at the engine's own entry point via the
  ``PropagationContext.recorder`` hook, structural edits through the
  session's operation methods;
* :meth:`checkpoint` composes a :mod:`repro.stem.persistence` library
  snapshot with the journal position, so recovery replays only the tail;
* :meth:`undo`/:meth:`redo` rewind the journal position — cheaply via
  dependency-directed erasure for value mutations (the thesis's
  retraction machinery), by checkpoint-and-replay rebuild for structural
  ones;
* replaying a journal deterministically reproduces the live run: same
  final values, same justifications, same violation log, same
  propagation statistics.

Determinism discipline
----------------------
Replay equivalence requires every traversal the session performs to be
ordered by *network structure*, never by hash order: erasure sets are
collected by deterministic depth-first walks over constraint/argument
lists, snapshots sort variables by name, and constraints apply in
creation order.  Nothing in this module may iterate a ``set`` when the
result influences propagation.

What is journaled
-----------------
External assignments on *addressable* variables (session-registered
variables and any cell/instance variable of the session's library), and
every structural operation performed through the session API.
Assignments to anonymous derived variables (delay-network internals,
compiler temporaries) are deliberately **not** journaled — they re-derive
when the operations that created them replay — and are counted in
:attr:`Session.unjournaled_assigns` for observability.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.engine import PropagationContext, RoundBudget
from ..core.justification import (
    APPLICATION,
    PropagatedJustification,
    USER,
    is_propagated,
)
from ..core.variable import Variable
from ..core.violations import ViolationHandler, WarningHandler
from .codec import (
    EncodingError,
    UnknownAddress,
    build_address_index,
    check_name,
    decode_justification_name,
    decode_value,
    encode_justification_name,
    encode_value,
    resolve_address,
)
from .journal import (
    DEFAULT_SEGMENT_BYTES,
    JournalWriter,
    _safe_str,
)

__all__ = [
    "CONSTRAINT_TYPES",
    "STATE_SCHEMA",
    "Session",
    "SessionError",
    "register_constraint_type",
]

STATE_SCHEMA = "repro-session/1"
_INF = float("inf")

#: Journaled request ids remembered per session for retry deduplication
#: that survives a process kill (rebuilt from the journal on recovery).
_RID_JOURNAL_CACHE = 1024


class SessionError(RuntimeError):
    """Invalid session operation (unknown id, duplicate name, ...)."""


# ---------------------------------------------------------------------------
# Journalable constraint types
# ---------------------------------------------------------------------------

def _registry() -> Dict[str, Callable[..., Any]]:
    from ..core.functional import (
        ScaleOffsetConstraint,
        UniAdditionConstraint,
        UniMaximumConstraint,
        UniMinimumConstraint,
    )
    from ..core.library import CompatibleConstraint, EqualityConstraint
    from ..core.predicates import (
        LowerBoundConstraint,
        OrderingConstraint,
        RangeConstraint,
        UpperBoundConstraint,
    )

    return {
        "equality": lambda vars, p: EqualityConstraint(*vars),
        "compatible": lambda vars, p: CompatibleConstraint(*vars),
        "maximum": lambda vars, p: UniMaximumConstraint(vars[0], vars[1:]),
        "minimum": lambda vars, p: UniMinimumConstraint(vars[0], vars[1:]),
        "sum": lambda vars, p: UniAdditionConstraint(vars[0], vars[1:]),
        "scale-offset": lambda vars, p: ScaleOffsetConstraint(
            vars[0], vars[1], scale=p.get("scale", 1),
            offset=p.get("offset", 0)),
        "upper-bound": lambda vars, p: UpperBoundConstraint(
            vars[0], p["bound"]),
        "lower-bound": lambda vars, p: LowerBoundConstraint(
            vars[0], p["bound"]),
        "range": lambda vars, p: RangeConstraint(
            vars[0], p.get("low"), p.get("high")),
        "ordering": lambda vars, p: OrderingConstraint(*vars),
    }


#: Journalable constraint kinds: name -> factory(variables, params).
CONSTRAINT_TYPES: Dict[str, Callable[..., Any]] = _registry()


def register_constraint_type(name: str,
                             factory: Callable[..., Any]) -> None:
    """Make a constraint kind journalable.

    ``factory(variables, params)`` must deterministically rebuild the
    constraint from resolved argument variables and decoded parameters.
    """
    CONSTRAINT_TYPES[check_name(name, "constraint type")] = factory


# ---------------------------------------------------------------------------
# Violation log
# ---------------------------------------------------------------------------

class _ViolationLogHandler(ViolationHandler):
    """Record every violation in the session's history, then delegate."""

    def __init__(self, session: "Session",
                 inner: Optional[ViolationHandler]) -> None:
        super().__init__()
        self.session = session
        self.inner = inner

    def handle(self, record: Any) -> None:
        self.session._note_violation(record)
        if self.inner is not None:
            self.inner.handle(record)


class _JournalObserverProxy:
    """Route journal instrumentation to whatever observer is installed
    on the session's *current* context (rebuilds swap contexts)."""

    __slots__ = ("session",)

    def __init__(self, session: "Session") -> None:
        self.session = session

    def journal_appended(self, nbytes: int) -> None:
        observer = self.session.context.observer
        if observer is not None:
            hook = getattr(observer, "journal_appended", None)
            if hook is not None:
                hook(nbytes)

    def journal_rotated(self, name: str) -> None:
        observer = self.session.context.observer
        if observer is not None:
            hook = getattr(observer, "journal_rotated", None)
            if hook is not None:
                hook(name)

    def journal_degraded(self, message: str) -> None:
        observer = self.session.context.observer
        if observer is not None:
            hook = getattr(observer, "journal_degraded", None)
            if hook is not None:
                hook(message)


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

class Session:
    """A durable, recoverable, undoable design session.

    Parameters
    ----------
    name:
        Session name (used for the library name and server identity).
    directory:
        Journal + checkpoint directory; ``None`` gives an in-memory
        session (undo/redo and replay-from-snapshot still work, nothing
        survives the process).
    fsync:
        Journal durability policy (see :mod:`repro.session.journal`).
    keep_checkpoints:
        Checkpoints kept after each :meth:`checkpoint` (at least 1,
        else ``ValueError``); the journal is kept back to the oldest.
    read_only:
        Recover state but open no writer and record no new mutations —
        the verification-replay mode.
    store:
        A :class:`repro.store.SessionStore` performing every durable
        touch — journal segments and checkpoints both.  ``None`` with a
        ``directory`` uses the file backend over that directory
        (the pre-interface behavior, byte-identical on disk); when
        given, ``directory`` is ignored.
    replay_to:
        Stop recovery replay after this sequence number — the
        time-travel hook compaction uses to snapshot the state as of a
        segment boundary.  Only meaningful with ``read_only``.

    Opening a directory that already holds a checkpoint and journal
    *recovers* it: the latest valid checkpoint loads, the journal tail
    replays (a torn final entry is truncated), and the session continues
    appending where the crash left off.

    A persistent disk error during journaling degrades the session to
    read-only (:attr:`degraded`): mutating operations raise
    :class:`~repro.session.journal.JournalDegraded`, while reads,
    fingerprints and recovery by a healthy process keep working.
    """

    def __init__(self, name: str = "session", *,
                 directory: Optional[str] = None,
                 fsync: str = "always",
                 segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
                 keep_checkpoints: int = 2,
                 read_only: bool = False,
                 store: Optional[Any] = None,
                 replay_to: Optional[int] = None) -> None:
        check_name(name, "session name")
        self.name = name
        self.read_only = read_only
        # Lazy imports: repro.store.base imports this module's sibling
        # journal, so a top-level import here would cycle.
        from ..store import base as _storebase
        _storebase.check_keep_checkpoints(keep_checkpoints)
        self.keep_checkpoints = keep_checkpoints
        self.vars: Dict[str, Variable] = {}
        self.constraints: Dict[str, Any] = {}
        self._constraint_meta: Dict[str, Dict[str, Any]] = {}
        self._next_cid = 1
        self.violations: List[Dict[str, Any]] = []
        self._effective: List[Dict[str, Any]] = []
        self._redo: List[Dict[str, Any]] = []
        self._recording = False
        self._addr_index: Optional[Dict[int, str]] = None
        self._safe_strings: set = set()
        self._journal: Optional[JournalWriter] = None
        self._space_open = False
        self._last_seq = 0
        #: Request id to stamp into the next journaled entry (set by the
        #: server before its handler runs, consumed by the next append).
        self.pending_rid: Optional[str] = None
        self._applied_rids: "OrderedDict[str, Dict[str, Any]]" = \
            OrderedDict()
        #: rid -> violation record, for the rids whose round was rejected.
        self._rejected_rids: Dict[str, Any] = {}
        self.replayed_entries = 0
        self.unjournaled_assigns = 0
        self.context = PropagationContext()
        self.context.handler = _ViolationLogHandler(self,
                                                    self.context.handler)
        self.context.recorder = self
        self.library = _fresh_library(name, self.context)

        if store is None and directory is not None:
            from ..store.filestore import FileSessionStore
            store = FileSessionStore(directory)
        self._store = store

        state = None
        if store is not None:
            store.prepare()
            state = _storebase.load_latest_checkpoint(store, STATE_SCHEMA)
        if state is not None:
            self._install_state(state)
            self._last_seq = state["seq"]
            self._base_state = state
        else:
            self._base_state = self._snapshot_state()
        if store is not None:
            t0 = perf_counter()
            last_op = "checkpoint" if state is not None else None
            for entry in _storebase.read_store_entries(
                    store, after_seq=self._last_seq,
                    repair=not read_only):
                if replay_to is not None and entry["seq"] > replay_to:
                    break
                outcome = self._apply_entry(entry)
                self._last_seq = entry["seq"]
                last_op = entry["op"]
                self.replayed_entries += 1
                rid = entry.get("rid")
                if rid is not None:
                    self._note_rid(rid, entry)
                    if outcome is False:
                        self.note_rejection(rid, self.violations[-1]
                                            if self.violations else None)
            if self.replayed_entries:
                self._observe("session_replayed", self.replayed_entries,
                              perf_counter() - t0)
            if not read_only:
                self._journal = JournalWriter(
                    store=store, next_seq=self._last_seq + 1, fsync=fsync,
                    segment_max_bytes=segment_max_bytes,
                    observer=_JournalObserverProxy(self))
                if last_op == "checkpoint":
                    # That checkpoint sealed the tail segment; appending
                    # to it would keep the interval before it unprunable.
                    self._journal.seal()
        self._recording = not read_only

    # -- lifecycle ----------------------------------------------------------

    @property
    def position(self) -> int:
        """Sequence number of the last recorded entry."""
        return self._last_seq

    @property
    def durable(self) -> bool:
        return self._journal is not None

    @property
    def store(self) -> Optional[Any]:
        """The :class:`repro.store.SessionStore` backing this session
        (``None`` for in-memory sessions)."""
        return self._store

    @property
    def degraded(self) -> bool:
        """True once a persistent disk error forced the journal read-only.

        A degraded session keeps serving reads and fingerprints; mutating
        operations raise :class:`~repro.session.journal.JournalDegraded`.
        """
        journal = self._journal
        return journal is not None and journal.degraded

    @property
    def degraded_error(self) -> Optional[OSError]:
        """The disk error that degraded the journal, if any."""
        journal = self._journal
        return journal.degraded_error if journal is not None else None

    def sync(self) -> None:
        """Force journaled entries to stable storage.

        Under ``fsync="never"`` appends sit in the process buffer until
        rotation or close; an explicit sync makes everything appended so
        far durable (and visible to concurrent readers) now.
        """
        if self._journal is not None:
            self._journal.sync()

    def close(self) -> None:
        """Detach from the engine and close the journal."""
        self._recording = False
        if self.context.recorder is self:
            self.context.recorder = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        where = self._store.location if self._store is not None else "memory"
        return (f"<Session {self.name!r} @ {where} seq={self._last_seq} "
                f"vars={len(self.vars)} constraints={len(self.constraints)}>")

    # -- engine hook (PropagationContext.recorder) --------------------------

    def record_assign(self, variable: Any, value: Any,
                      justification: Any) -> None:
        """Write-ahead capture of one external assignment.

        Called by the engine before the assignment mutates anything.
        Assignments to variables without a stable address are skipped
        (derived state re-derives on replay) and counted.
        """
        if not self._recording:
            return
        address = self.address_of(variable)
        if address is None:
            self.unjournaled_assigns += 1
            self._observe("session_op", "unjournaled-assign")
            return
        encoded = encode_value(value)
        just = encode_justification_name(justification)
        # A finite step budget shapes the outcome of the propagation round
        # this assign triggers, so replay must install the same budget —
        # journal it alongside the assignment.  Wall-time budgets are
        # liveness backstops, deliberately not replayed.
        budget = self.context.round_budget
        budget_steps: Optional[int] = None
        if budget is not None and budget.max_steps != _INF:
            budget_steps = int(budget.max_steps)
        journal = self._journal
        if journal is not None and budget_steps is None:
            # Hot path: scalar assigns dominate journal traffic, and the
            # generic dict-encode chain costs more than the propagation
            # round it rides on.
            kind = type(encoded)
            if kind is int:
                value_json: Optional[str] = repr(encoded)
            elif kind is str and _safe_str(encoded):
                value_json = '"' + encoded + '"'
            elif kind is float and encoded == encoded \
                    and encoded not in (_INF, -_INF):
                value_json = repr(encoded)
            else:
                value_json = None
            # Escape-free address/justification strings are memoized —
            # set membership is far cheaper than re-scanning per append
            # (set.add returns None, so `not add(...)` records and
            # passes in one expression).
            safe = self._safe_strings
            rid = self.pending_rid
            if value_json is not None \
                    and (rid is None or _safe_str(rid)) \
                    and (address in safe or (_safe_str(address)
                                             and not safe.add(address))) \
                    and (just in safe or (_safe_str(just)
                                          and not safe.add(just))):
                seq = journal.append_assign(address, value_json, just, rid)
                self._last_seq = seq
                self._observe("session_op", "assign")
                entry = {"op": "assign", "var": address,
                         "value": encoded, "just": just, "seq": seq}
                if rid is not None:
                    self.pending_rid = None
                    entry["rid"] = rid
                    self._note_rid(rid, entry)
                self._effective.append({
                    "entry": entry,
                    "inverse": {"value": variable.raw_value,
                                "just": variable.last_set_by}})
                self._redo.clear()
                return
        entry = {"op": "assign", "var": address,
                 "value": encoded, "just": just}
        if budget_steps is not None:
            entry["budget"] = budget_steps
        self._append(entry)
        self._effective.append({
            "entry": entry,
            "inverse": {"value": variable.raw_value,
                        "just": variable.last_set_by}})
        self._redo.clear()

    def record_batch(self, entries: List[Tuple[Any, Any, Any]]) -> None:
        """Write-ahead capture of one batched assignment round.

        Called by the engine with the *requested* (pre-coalesce) batch,
        before any mutation: replay re-coalesces deterministically, so
        stats and fingerprints match the live run.  Entries on variables
        without a stable address are skipped and counted, exactly as in
        :meth:`record_assign`.
        """
        if not self._recording:
            return
        items: List[Tuple[str, Any, str]] = []
        for variable, value, justification in entries:
            address = self.address_of(variable)
            if address is None:
                self.unjournaled_assigns += 1
                self._observe("session_op", "unjournaled-assign")
                continue
            items.append((address, encode_value(value),
                          encode_justification_name(justification)))
        if not items:
            return
        budget = self.context.round_budget
        budget_steps: Optional[int] = None
        if budget is not None and budget.max_steps != _INF:
            budget_steps = int(budget.max_steps)
        entry: Dict[str, Any] = {
            "op": "batch",
            "entries": [{"var": address, "value": encoded, "just": just}
                        for address, encoded, just in items]}
        journal = self._journal
        rid = self.pending_rid
        if journal is not None and budget_steps is None \
                and (rid is None or _safe_str(rid)):
            # Hot path: one fused, pre-serialized record for the whole
            # batch — same escape-free fast path as scalar assigns, one
            # frame instead of N.
            safe = self._safe_strings
            triples: Optional[List[Tuple[str, str, str]]] = []
            for address, encoded, just in items:
                kind = type(encoded)
                if kind is int:
                    value_json: Optional[str] = repr(encoded)
                elif kind is str and _safe_str(encoded):
                    value_json = '"' + encoded + '"'
                elif kind is float and encoded == encoded \
                        and encoded not in (_INF, -_INF):
                    value_json = repr(encoded)
                else:
                    value_json = None
                if value_json is None \
                        or not (address in safe
                                or (_safe_str(address)
                                    and not safe.add(address))) \
                        or not (just in safe or (_safe_str(just)
                                                 and not safe.add(just))):
                    triples = None
                    break
                triples.append((address, value_json, just))
            if triples is not None:
                seq = journal.append_batch(triples, rid)
                self._last_seq = seq
                self._observe("session_op", "batch")
                entry["seq"] = seq
                if rid is not None:
                    self.pending_rid = None
                    entry["rid"] = rid
                    self._note_rid(rid, entry)
                self._effective.append({"entry": entry, "inverse": None})
                self._redo.clear()
                return
        if budget_steps is not None:
            entry["budget"] = budget_steps
        self._append(entry)
        self._effective.append({"entry": entry, "inverse": None})
        self._redo.clear()

    # -- value operations ---------------------------------------------------

    def make_variable(self, name: str, value: Any = None,
                      justification: Any = None) -> Variable:
        """Create (and journal) a session-registered free variable."""
        check_name(name, "variable name")
        if name in self.vars:
            raise SessionError(f"session already has a variable {name!r}")
        entry = {"op": "make-var", "name": name,
                 "value": encode_value(value),
                 "just": (encode_justification_name(justification)
                          if justification is not None else None)}
        return self._run(entry)

    def assign(self, target: Any, value: Any,
               justification: Any = USER) -> bool:
        """External assignment through the session; returns validity.

        Journaling happens inside the engine's recorder hook, so this is
        exactly equivalent to calling ``variable.set`` directly.
        """
        variable = self._target_variable(target)
        return variable.set(value, justification)

    def assign_many(self, assignments: Any,
                    justification: Any = USER) -> bool:
        """Batched external assignment through the session: one round.

        ``assignments`` is an iterable of ``(target, value)`` pairs or
        ``(target, value, justification)`` triples; targets may be
        addresses or variables.  Journaling happens inside the engine's
        recorder hook as a single batch record, so this is exactly
        equivalent to calling
        :meth:`~repro.core.engine.PropagationContext.assign_many`.
        """
        resolved = []
        for item in assignments:
            if len(item) == 2:
                target, value = item
                resolved.append((self._target_variable(target), value,
                                 justification))
            else:
                target, value, just = item
                resolved.append((self._target_variable(target), value, just))
        return self.context.assign_many(resolved)

    def space(self) -> Any:
        """Open a speculative :class:`~repro.spaces.space.Space` over
        this session's context.

        Assignments inside the space never reach the journal; a
        ``commit()`` journals them as one ``{"op": "batch"}`` frame (the
        same frame :meth:`assign_many` writes), a ``discard()`` — or
        simply leaving the ``with`` block — restores the session
        byte-identically (fingerprint *and* journal position).
        Structural edits, undo/redo and checkpoints are refused while a
        space is open.
        """
        if self.read_only:
            raise SessionError("read-only session cannot open a space")
        from ..spaces.space import Space
        return Space(self.context, session=self)

    def retract(self, target: Any) -> None:
        """Withdraw a value: dependency-directed erasure plus re-derivation.

        The variable and everything depending on it are erased (section
        4.2.5), then every constraint that lost a value re-asserts its
        remaining arguments so values derivable from other sources
        return.
        """
        variable = self._target_variable(target)
        address = self.address_of(variable)
        if address is None:
            raise SessionError(f"cannot retract unaddressable variable "
                               f"{variable!r}")
        entry = {"op": "retract", "var": address}
        self._run(entry)

    def get(self, target: Any) -> Tuple[Any, Any]:
        """``(value, justification)`` of an addressed variable."""
        variable = self._target_variable(target)
        return variable.raw_value, variable.last_set_by

    # -- constraint operations ----------------------------------------------

    def add_constraint(self, type_name: str, targets: List[Any],
                       params: Optional[Dict[str, Any]] = None,
                       cid: Optional[str] = None) -> str:
        """Instantiate a journalable constraint kind; returns its id."""
        if type_name not in CONSTRAINT_TYPES:
            raise SessionError(
                f"unknown constraint type {type_name!r}; have "
                f"{sorted(CONSTRAINT_TYPES)}")
        addresses = []
        for target in targets:
            variable = self._target_variable(target)
            address = self.address_of(variable)
            if address is None:
                raise SessionError(f"constraint argument {variable!r} has "
                                   f"no stable address")
            addresses.append(address)
        if cid is None:
            cid = f"c{self._next_cid}"
        check_name(cid, "constraint id")
        if cid in self.constraints:
            raise SessionError(f"constraint id {cid!r} already in use")
        entry = {"op": "add-constraint", "cid": cid, "type": type_name,
                 "args": addresses,
                 "params": {key: encode_value(val)
                            for key, val in (params or {}).items()}}
        self._run(entry)
        return cid

    def remove_constraint(self, cid: str) -> None:
        """Remove a session constraint with dependency-directed erasure."""
        if cid not in self.constraints:
            raise SessionError(f"no constraint {cid!r}; have "
                               f"{sorted(self.constraints)}")
        self._run({"op": "remove-constraint", "cid": cid})

    def constraint(self, cid: str) -> Any:
        try:
            return self.constraints[cid]
        except KeyError:
            raise SessionError(f"no constraint {cid!r}") from None

    # -- structural (cell) operations ---------------------------------------

    def define_cell(self, name: str, superclass: Optional[str] = None,
                    generic: bool = False) -> Any:
        check_name(name, "cell name")
        if name in self.library:
            raise SessionError(f"library already has a cell {name!r}")
        if superclass is not None:
            self._cell(superclass)
        return self._run({"op": "define-cell", "name": name,
                          "super": superclass, "generic": bool(generic)})

    def define_signal(self, cell: str, name: str, direction: str = "in",
                      **attrs: Any) -> Any:
        check_name(name, "signal name")
        if name in self._cell(cell).signals:
            raise SessionError(f"cell {cell!r} already has signal {name!r}")
        return self._run({"op": "define-signal", "cell": cell, "name": name,
                          "direction": direction,
                          "attrs": {key: encode_value(val)
                                    for key, val in attrs.items()}})

    def declare_delay(self, cell: str, source: str, dest: str,
                      estimate: Optional[float] = None) -> Any:
        target = self._cell(cell)
        for end in (source, dest):
            if end not in target.signals:
                raise SessionError(f"cell {cell!r} has no signal {end!r}")
        return self._run({"op": "declare-delay", "cell": cell,
                          "source": source, "dest": dest,
                          "estimate": estimate})

    def add_parameter(self, cell: str, name: str, *, low: Any = None,
                      high: Any = None, choices: Any = None,
                      default: Any = None) -> Any:
        check_name(name, "parameter name")
        if name in self._cell(cell).parameters:
            raise SessionError(f"cell {cell!r} already has parameter "
                               f"{name!r}")
        return self._run({"op": "add-parameter", "cell": cell, "name": name,
                          "low": encode_value(low),
                          "high": encode_value(high),
                          "choices": encode_value(choices),
                          "default": encode_value(default)})

    def instantiate(self, parent: str, child: str, name: str,
                    orientation: str = "R0",
                    offset: Tuple[float, float] = (0, 0)) -> Any:
        check_name(name, "instance name")
        self._cell(child)
        if any(sub.name == name for sub in self._cell(parent).subcells):
            raise SessionError(f"cell {parent!r} already has subcell "
                               f"{name!r}")
        return self._run({"op": "instantiate", "parent": parent,
                          "child": child, "name": name,
                          "orientation": orientation,
                          "offset": [offset[0], offset[1]]})

    def add_net(self, cell: str, name: str) -> Any:
        check_name(name, "net name")
        if name in self._cell(cell).nets:
            raise SessionError(f"cell {cell!r} already has net {name!r}")
        return self._run({"op": "add-net", "cell": cell, "name": name})

    def connect(self, cell: str, net: str, signal: str,
                instance: Optional[str] = None) -> bool:
        """Connect an instance signal (or a cell io-signal) to a net."""
        target = self._cell(cell)
        if net not in target.nets:
            raise SessionError(f"cell {cell!r} has no net {net!r}")
        if instance is not None:
            if not any(sub.name == instance for sub in target.subcells):
                raise SessionError(f"cell {cell!r} has no subcell "
                                   f"{instance!r}")
        elif signal not in target.signals:
            raise SessionError(f"cell {cell!r} has no signal {signal!r}")
        return self._run({"op": "connect", "cell": cell, "net": net,
                          "signal": signal, "instance": instance})

    # -- undo / redo --------------------------------------------------------

    def can_undo(self) -> bool:
        return bool(self._effective)

    def can_redo(self) -> bool:
        return bool(self._redo)

    def undo(self) -> bool:
        """Rewind the last effective mutation; False when at a boundary.

        Value mutations (assign/retract) undo by dependency-directed
        erasure and re-derivation; structural mutations rebuild from the
        last checkpoint state plus the remaining effective prefix.  The
        undo window reaches back to the most recent checkpoint.
        """
        self._check_no_open_space("undo")
        if not self._effective:
            return False
        self._append({"op": "undo"})
        self._apply_undo()
        return True

    def redo(self) -> bool:
        """Re-apply the most recently undone mutation."""
        self._check_no_open_space("redo")
        if not self._redo:
            return False
        self._append({"op": "redo"})
        self._apply_redo()
        return True

    # -- checkpoint / recovery ----------------------------------------------

    def checkpoint(self) -> Optional[str]:
        """Snapshot the session state; returns the checkpoint path.

        The snapshot composes the :mod:`repro.stem.persistence` library
        encoding with the session's variable/constraint registries and
        the journal position.  The journal's current segment is sealed,
        so the next append starts a new one.  Once the snapshot is
        durable, all but the newest ``keep_checkpoints`` checkpoints are
        deleted, and so is every segment the oldest survivor covers:
        recovery decodes only the journal written since that checkpoint,
        and can still fall back to it.  Clears the undo/redo window (a
        checkpoint is a save point).
        """
        if self.read_only:
            raise SessionError("read-only session cannot checkpoint")
        self._check_no_open_space("checkpoint")
        t0 = perf_counter()
        self._append({"op": "checkpoint"})
        self._apply_checkpoint_marker()
        path = None
        if self._store is not None:
            from ..store import base as _storebase
            # Seal before the publish: a buffered journal hands the
            # checkpoint entry to the backend before the snapshot
            # naming its seq exists, and no segment goes until after.
            if self._journal is not None:
                self._journal.seal()
            path = self._store.publish_checkpoint(
                self._base_state["seq"],
                _storebase.encode_checkpoint(self._base_state))
            _storebase.prune_to_checkpoints(self._store,
                                            self.keep_checkpoints)
        self._observe("session_checkpoint", perf_counter() - t0)
        return path

    # -- inspection ---------------------------------------------------------

    def address_of(self, variable: Any) -> Optional[str]:
        """Stable address of a variable, or ``None`` for anonymous ones."""
        index = self._addr_index
        if index is None:
            index = self._addr_index = build_address_index(self.library,
                                                           self.vars)
        return index.get(id(variable))

    def addressed_variables(self) -> Iterator[Tuple[str, Any]]:
        """``(address, variable)`` pairs in deterministic order."""
        for cell in self.library:
            for var_name, variable in cell.variables.items():
                yield f"c:{cell.name}:{var_name}", variable
            for instance in cell.subcells:
                for var_name, variable in instance.variables.items():
                    yield (f"i:{cell.name}:{instance.name}:{var_name}",
                           variable)
        for var_name in sorted(self.vars):
            yield f"v:{var_name}", self.vars[var_name]

    def fingerprint(self, *, include_stats: bool = True) -> Dict[str, Any]:
        """Canonical digest of session state, for replay verification.

        Two runs are equivalent when their fingerprints are equal: every
        addressed variable's value and justification, the violation log,
        and (optionally) the engine's propagation counters.
        """
        variables: Dict[str, Any] = {}
        for address, variable in self.addressed_variables():
            variables[address] = {
                "value": _fingerprint_value(variable.raw_value),
                "just": self._fingerprint_justification(
                    variable.last_set_by),
            }
        digest: Dict[str, Any] = {
            "variables": variables,
            "violations": list(self.violations),
            "position": self._last_seq,
        }
        if include_stats:
            digest["stats"] = self.context.stats.snapshot()
        return digest

    # -- internals: journaling ----------------------------------------------

    def _append(self, op: Dict[str, Any]) -> int:
        rid = self.pending_rid
        if rid is not None:
            self.pending_rid = None
            op["rid"] = rid
        if self._journal is not None:
            seq = self._journal.append(op)
        else:
            seq = self._last_seq + 1
        self._last_seq = seq
        if rid is not None:
            self._note_rid(rid, op)
        self._observe("session_op", op["op"])
        return seq

    def _note_rid(self, rid: str, entry: Dict[str, Any]) -> None:
        """Remember a journaled request id (bounded, insertion-ordered).

        The rid rides inside the journal entry, so this cache is rebuilt
        during recovery replay — a retried mutation is recognized even
        after a ``kill -9`` of the process that first applied it.
        """
        cache = self._applied_rids
        cache[rid] = entry
        if len(cache) > _RID_JOURNAL_CACHE:
            cache.popitem(last=False)

    def rid_entry(self, rid: str) -> Optional[Dict[str, Any]]:
        """The journal entry a request id produced, if remembered."""
        return self._applied_rids.get(rid)

    def note_rejection(self, rid: str, violation: Any) -> None:
        """Remember that the round journaled under ``rid`` was rejected,
        and the violation record it left.

        Recovery notes each replayed rejection, and the server each live
        one, so a retry answers with the violation the request got.
        Bounded like the rid cache: rejected rids are a subset of the
        applied ones, noted in the same order.
        """
        if rid not in self._applied_rids:
            return
        rejected = self._rejected_rids
        rejected[rid] = violation
        if len(rejected) > _RID_JOURNAL_CACHE:
            del rejected[next(iter(rejected))]

    def rid_outcome(self, rid: str) -> Tuple[bool, Any]:
        """Whether the round journaled under ``rid`` was rejected, and
        its violation record."""
        rejected = self._rejected_rids
        return rid in rejected, rejected.get(rid)

    def _run(self, entry: Dict[str, Any]) -> Any:
        """Journal an operation (write-ahead), then apply it."""
        self._check_no_open_space(entry["op"])
        self._append(entry)
        return self._apply_mutation(entry)

    def _check_no_open_space(self, what: str) -> None:
        """Structural and history operations are not speculative: a
        space only overlays *values*, so refusing them while a space is
        open is what keeps discard() trace-free."""
        if self._space_open:
            raise SessionError(
                f"cannot {what} while a computation space is open; "
                f"commit or discard the space first")

    @contextmanager
    def _applying(self) -> Iterator[None]:
        previous = self._recording
        self._recording = False
        try:
            yield
        finally:
            self._recording = previous

    # -- internals: entry application ---------------------------------------

    def _apply_entry(self, entry: Dict[str, Any]) -> Any:
        """Apply one journal entry during recovery replay; return the
        mutation's result (``False`` for a rejected round)."""
        op = entry["op"]
        if op == "undo":
            self._apply_undo()
        elif op == "redo":
            self._apply_redo()
        elif op == "checkpoint":
            self._apply_checkpoint_marker()
        else:
            return self._apply_mutation(entry)
        return None

    def _apply_mutation(self, entry: Dict[str, Any],
                        clear_redo: bool = True) -> Any:
        handler = _APPLY[entry["op"]]
        with self._applying():
            result, inverse = handler(self, entry)
        self._effective.append({"entry": entry, "inverse": inverse})
        if clear_redo:
            self._redo.clear()
        return result

    def _apply_undo(self) -> None:
        applied = self._effective.pop()
        self._redo.append(applied)
        entry = applied["entry"]
        inverse = applied.get("inverse")
        if entry["op"] in ("assign", "retract") and inverse is not None:
            with self._applying():
                if self._fast_undo(entry, inverse):
                    return
        self._rebuild()

    def _apply_redo(self) -> None:
        applied = self._redo.pop()
        self._apply_mutation(applied["entry"], clear_redo=False)

    def _apply_checkpoint_marker(self) -> None:
        self._base_state = self._snapshot_state()
        self._effective = []
        self._redo = []

    # -- internals: undo machinery ------------------------------------------

    def _fast_undo(self, entry: Dict[str, Any],
                   inverse: Dict[str, Any]) -> bool:
        """Dependency-directed rewind of one value mutation.

        Erase the mutated variable and everything propagated from it,
        restore the recorded prior value, and let every constraint that
        lost a value re-assert its remaining sources.  Returns False
        (caller falls back to a full rebuild) when any re-derivation
        round reports a violation.
        """
        try:
            variable = self._resolve(entry["var"])
        except UnknownAddress:
            return False
        erased = self._ordered_consequences(variable)
        constraints = _ordered_constraints([variable] + erased)
        for consequence in erased:
            consequence.reset()
        variable.reset()
        ok = True
        prev_value, prev_just = inverse["value"], inverse["just"]
        if prev_value is not None and prev_just is not None \
                and not is_propagated(prev_just):
            ok = self.context.assign(variable, prev_value, prev_just)
        for constraint in constraints:
            if not self.context.repropagate_constraint(constraint):
                ok = False
        return ok

    def _ordered_consequences(self, variable: Any) -> List[Any]:
        """Propagated consequences of ``variable`` in deterministic
        depth-first network order (never hash order — replay equality
        depends on it)."""
        seen = {id(variable)}
        ordered: List[Any] = []

        def walk(source: Any) -> None:
            for constraint in source.constraints:
                for argument in constraint.arguments:
                    if id(argument) in seen or argument is source:
                        continue
                    if not argument.is_dependent():
                        continue
                    justification = argument.last_set_by
                    if justification.constraint is not constraint:
                        continue
                    if not constraint.test_membership_of(
                            source, justification.dependency_record):
                        continue
                    seen.add(id(argument))
                    ordered.append(argument)
                    walk(argument)

        walk(variable)
        return ordered

    def _do_retract(self, variable: Any) -> None:
        erased = self._ordered_consequences(variable)
        constraints = _ordered_constraints([variable] + erased)
        for consequence in erased:
            consequence.reset()
        variable.reset()
        for constraint in constraints:
            self.context.repropagate_constraint(constraint)

    def _rebuild(self) -> None:
        """Full restore: reload the base snapshot, replay the effective
        prefix.  The fallback for structural undo (section 4.2.5's
        erasure covers values, not network surgery)."""
        violations = list(self.violations)
        effective = list(self._effective)
        redo = self._redo
        self._install_state(self._base_state)
        self._effective = []
        for applied in effective:
            self._apply_mutation(applied["entry"], clear_redo=False)
        self.violations = violations
        self._redo = redo
        self._observe("session_op", "rebuild")

    # -- internals: snapshot / restore --------------------------------------

    def _snapshot_state(self) -> Dict[str, Any]:
        from ..stem import persistence

        variables = []
        for name in sorted(self.vars):
            variable = self.vars[name]
            variables.append({
                "name": name,
                "value": _snapshot_value(variable.raw_value),
                "just": self._snapshot_external_justification(
                    variable.last_set_by),
            })
        propagated = []
        cids = {id(constraint): cid
                for cid, constraint in self.constraints.items()}
        for address, variable in self.addressed_variables():
            justification = variable.last_set_by
            if not is_propagated(justification):
                continue
            cid = cids.get(id(justification.constraint))
            if cid is None:
                continue  # library-internal source: re-derives on demand
            record = justification.dependency_record
            dep = (self.address_of(record)
                   if isinstance(record, Variable) else None)
            propagated.append({"var": address, "cid": cid, "dep": dep})
        return {
            "schema": STATE_SCHEMA,
            "seq": self._last_seq,
            "name": self.name,
            "next_cid": self._next_cid,
            "library": persistence.serialize_library(self.library),
            "vars": variables,
            "constraints": [dict(self._constraint_meta[cid])
                            for cid in self._constraint_meta],
            "propagated": propagated,
            "violations": list(self.violations),
            "stats": self.context.stats.snapshot(),
        }

    def _install_state(self, state: Dict[str, Any]) -> None:
        from ..stem import persistence

        if state.get("schema") != STATE_SCHEMA:
            raise SessionError(f"unsupported checkpoint schema "
                               f"{state.get('schema')!r}")
        previous = self.context
        inner = getattr(previous.handler, "inner", None) or WarningHandler()
        context = PropagationContext()
        context.handler = _ViolationLogHandler(self, inner)
        context.recorder = self
        # Instruments survive a rebuild (their Observer object still
        # points at the old context for uninstall; see docs/sessions.md).
        context.observer = previous.observer
        context.tracer = previous.tracer
        context.round_budget = previous.round_budget
        if previous.recorder is self:
            previous.recorder = None
        self.context = context
        self.vars = {}
        self.constraints = {}
        self._constraint_meta = {}
        self._next_cid = state.get("next_cid", 1)
        self.violations = list(state.get("violations", []))
        # Stats continue from the snapshot's counters: a live session
        # keeps counting across a checkpoint, so recovery (and rebuild)
        # must too for replayed fingerprints to match live ones.
        for key, value in state.get("stats", {}).items():
            if hasattr(context.stats, key):
                setattr(context.stats, key, value)
        with context.propagation_disabled():
            self.library = persistence.load_library(state["library"],
                                                    context=context)
            for spec in state.get("vars", []):
                variable = Variable(None, name=spec["name"], context=context)
                self.vars[spec["name"]] = variable
            self._addr_index = None
            for meta in state.get("constraints", []):
                _apply_add_constraint(self, meta)
                self._effective.clear()  # not a journaled mutation
            for spec in state.get("vars", []):
                justification = spec.get("just")
                self.vars[spec["name"]]._store(
                    decode_value(spec["value"]),
                    decode_justification_name(justification)
                    if justification else None)
            for spec in state.get("propagated", []):
                constraint = self.constraints.get(spec["cid"])
                if constraint is None:
                    continue
                try:
                    variable = self._resolve(spec["var"])
                    dep = (self._resolve(spec["dep"])
                           if spec.get("dep") else None)
                except UnknownAddress:
                    continue
                variable._store(variable.raw_value,
                                PropagatedJustification(constraint, dep))
        self._addr_index = None

    # -- internals: helpers -------------------------------------------------

    def _target_variable(self, target: Any) -> Any:
        if isinstance(target, str):
            return self._resolve(target)
        return target

    def _resolve(self, address: str) -> Any:
        return resolve_address(address, self.library, self.vars)

    def _cell(self, name: str) -> Any:
        try:
            return self.library.cell(name)
        except KeyError:
            raise SessionError(f"no cell {name!r} in session library") \
                from None

    def _cid_of(self, constraint: Any) -> Optional[str]:
        for cid, candidate in self.constraints.items():
            if candidate is constraint:
                return cid
        return None

    def _note_cid(self, cid: str) -> None:
        if cid.startswith("c") and cid[1:].isdigit():
            self._next_cid = max(self._next_cid, int(cid[1:]) + 1)

    def _note_violation(self, record: Any) -> None:
        variable = getattr(record, "variable", None)
        constraint = getattr(record, "constraint", None)
        self.violations.append({
            "variable": (variable.qualified_name()
                         if variable is not None else None),
            "constraint": (self._cid_of(constraint)
                           or (type(constraint).__name__
                               if constraint is not None else None)),
            "reason": getattr(record, "reason", ""),
            "kind": getattr(record, "kind", "violation"),
        })
        self._observe("session_op", "violation")

    def _fingerprint_justification(self, justification: Any) -> Optional[str]:
        if justification is None:
            return None
        if is_propagated(justification):
            cid = self._cid_of(justification.constraint)
            return (f"propagated:{cid}" if cid is not None else
                    f"propagated:{type(justification.constraint).__name__}")
        return f"#{justification.name}"

    def _snapshot_external_justification(self,
                                         justification: Any) -> Optional[str]:
        if justification is None:
            return None
        if is_propagated(justification):
            # Rebuilt precisely by the snapshot's "propagated" section
            # when the source is session-registered; the persistence
            # fallback otherwise (values re-derive).
            return "APPLICATION"
        return justification.name

    def _observe(self, hook_name: str, *args: Any) -> None:
        observer = self.context.observer
        if observer is not None:
            hook = getattr(observer, hook_name, None)
            if hook is not None:
                hook(*args)


# ---------------------------------------------------------------------------
# Mutation appliers — (session, entry) -> (result, inverse-info)
# ---------------------------------------------------------------------------

def _apply_assign(session: Session,
                  entry: Dict[str, Any]) -> Tuple[Any, Dict[str, Any]]:
    variable = session._resolve(entry["var"])
    inverse = {"value": variable.raw_value, "just": variable.last_set_by}
    budget_steps = entry.get("budget")
    if budget_steps is not None:
        # The live assign ran under a step budget; replay must too, so a
        # budget-aborted round aborts identically and fingerprints match.
        context = session.context
        saved = context.round_budget
        context.round_budget = RoundBudget(max_steps=budget_steps)
        try:
            ok = variable.set(decode_value(entry["value"]),
                              decode_justification_name(entry["just"]))
        finally:
            context.round_budget = saved
    else:
        ok = variable.set(decode_value(entry["value"]),
                          decode_justification_name(entry["just"]))
    return ok, inverse


def _apply_batch(session: Session,
                 entry: Dict[str, Any]) -> Tuple[Any, None]:
    context = session.context
    assignments = []
    for spec in entry["entries"]:
        assignments.append((session._resolve(spec["var"]),
                            decode_value(spec["value"]),
                            decode_justification_name(spec["just"])))
    budget_steps = entry.get("budget")
    if budget_steps is not None:
        saved = context.round_budget
        context.round_budget = RoundBudget(max_steps=budget_steps)
        try:
            ok = context.assign_many(assignments)
        finally:
            context.round_budget = saved
    else:
        ok = context.assign_many(assignments)
    # Batch undo always rebuilds (no per-variable fast inverse), so no
    # inverse info is recorded.
    return ok, None


def _apply_retract(session: Session,
                   entry: Dict[str, Any]) -> Tuple[Any, Dict[str, Any]]:
    variable = session._resolve(entry["var"])
    inverse = {"value": variable.raw_value, "just": variable.last_set_by}
    session._do_retract(variable)
    return None, inverse


def _apply_make_var(session: Session,
                    entry: Dict[str, Any]) -> Tuple[Any, None]:
    name = entry["name"]
    if name in session.vars:
        raise SessionError(f"session already has a variable {name!r}")
    justification = entry.get("just")
    variable = Variable(decode_value(entry["value"]), name=name,
                        context=session.context,
                        justification=decode_justification_name(justification)
                        if justification else None)
    session.vars[name] = variable
    session._addr_index = None
    return variable, None


def _apply_add_constraint(session: Session,
                          entry: Dict[str, Any]) -> Tuple[Any, None]:
    factory = CONSTRAINT_TYPES[entry["type"]]
    variables = [session._resolve(address) for address in entry["args"]]
    params = {key: decode_value(val)
              for key, val in entry.get("params", {}).items()}
    constraint = factory(variables, params)
    cid = entry["cid"]
    session.constraints[cid] = constraint
    session._constraint_meta[cid] = {
        "cid": cid, "type": entry["type"], "args": list(entry["args"]),
        "params": dict(entry.get("params", {})), "op": "add-constraint"}
    session._note_cid(cid)
    return constraint, None


def _apply_remove_constraint(session: Session,
                             entry: Dict[str, Any]) -> Tuple[Any, Any]:
    cid = entry["cid"]
    constraint = session.constraints.pop(cid, None)
    meta = session._constraint_meta.pop(cid, None)
    if constraint is not None:
        constraint.remove()
    return None, {"meta": meta}


def _apply_define_cell(session: Session,
                       entry: Dict[str, Any]) -> Tuple[Any, None]:
    superclass = (session.library.cell(entry["super"])
                  if entry.get("super") else None)
    cell = session.library.define(entry["name"], superclass,
                                  is_generic=bool(entry.get("generic")))
    session._addr_index = None
    return cell, None


def _apply_define_signal(session: Session,
                         entry: Dict[str, Any]) -> Tuple[Any, None]:
    cell = session.library.cell(entry["cell"])
    attrs = {key: decode_value(val)
             for key, val in entry.get("attrs", {}).items()}
    signal = cell.define_signal(entry["name"],
                                entry.get("direction", "in"), **attrs)
    session._addr_index = None
    return signal, None


def _apply_declare_delay(session: Session,
                         entry: Dict[str, Any]) -> Tuple[Any, None]:
    cell = session.library.cell(entry["cell"])
    delay = cell.declare_delay(entry["source"], entry["dest"],
                               estimate=entry.get("estimate"))
    session._addr_index = None
    return delay, None


def _apply_add_parameter(session: Session,
                         entry: Dict[str, Any]) -> Tuple[Any, None]:
    cell = session.library.cell(entry["cell"])
    parameter = cell.add_parameter(entry["name"],
                                   low=decode_value(entry.get("low")),
                                   high=decode_value(entry.get("high")),
                                   choices=decode_value(entry.get("choices")),
                                   default=decode_value(entry.get("default")))
    session._addr_index = None
    return parameter, None


def _apply_instantiate(session: Session,
                       entry: Dict[str, Any]) -> Tuple[Any, None]:
    from ..stem.geometry import Point, Transform

    parent = session.library.cell(entry["parent"])
    child = session.library.cell(entry["child"])
    offset = entry.get("offset", [0, 0])
    instance = child.instantiate(parent, entry["name"],
                                 Transform(entry.get("orientation", "R0"),
                                           Point(offset[0], offset[1])))
    session._addr_index = None
    return instance, None


def _apply_add_net(session: Session,
                   entry: Dict[str, Any]) -> Tuple[Any, None]:
    cell = session.library.cell(entry["cell"])
    net = cell.add_net(entry["name"])
    session._addr_index = None
    return net, None


def _apply_connect(session: Session,
                   entry: Dict[str, Any]) -> Tuple[Any, None]:
    cell = session.library.cell(entry["cell"])
    net = cell.net(entry["net"])
    if entry.get("instance"):
        instance = None
        for candidate in cell.subcells:
            if candidate.name == entry["instance"]:
                instance = candidate
                break
        if instance is None:
            raise SessionError(f"cell {cell.name!r} has no subcell "
                               f"{entry['instance']!r}")
        ok = net.connect(instance, entry["signal"])
    else:
        ok = net.connect_io(entry["signal"])
    session._addr_index = None
    return ok, None


_APPLY: Dict[str, Callable[..., Tuple[Any, Any]]] = {
    "assign": _apply_assign,
    "batch": _apply_batch,
    "retract": _apply_retract,
    "make-var": _apply_make_var,
    "add-constraint": _apply_add_constraint,
    "remove-constraint": _apply_remove_constraint,
    "define-cell": _apply_define_cell,
    "define-signal": _apply_define_signal,
    "declare-delay": _apply_declare_delay,
    "add-parameter": _apply_add_parameter,
    "instantiate": _apply_instantiate,
    "add-net": _apply_add_net,
    "connect": _apply_connect,
}


# ---------------------------------------------------------------------------
# Module helpers
# ---------------------------------------------------------------------------

def _fresh_library(name: str, context: PropagationContext) -> Any:
    from ..stem.library import CellLibrary
    return CellLibrary(f"{name}.lib", context=context)


def _ordered_constraints(variables: List[Any]) -> List[Any]:
    """Unique constraints of ``variables`` in deterministic discovery
    order (variable order, then each variable's constraint list)."""
    seen: set = set()
    ordered: List[Any] = []
    for variable in variables:
        for constraint in variable.constraints:
            if id(constraint) not in seen:
                seen.add(id(constraint))
                ordered.append(constraint)
    return ordered


def _snapshot_value(value: Any) -> Any:
    return encode_value(value)


def _fingerprint_value(value: Any) -> Any:
    try:
        return encode_value(value)
    except EncodingError:
        return {"__repr__": repr(value)}
