"""The constraint propagation engine — an iterative wavefront.

Implements the propagation process of thesis section 4.2: a depth-first
traversal of the constraint network triggered by a value assignment,
alternating between variables (spreading to their constraints) and
constraints (inferring values for further variables), followed by draining
the fixed-priority agendas and a final ``is_satisfied`` sweep over every
visited constraint.

The thesis realises the traversal as literal recursion, which caps network
depth at the interpreter's stack.  Following the *propagator iteration*
architecture of constraint-engine literature (Schulte & Stuckey,
"Efficient Constraint Propagation Engines"; Apt, "The Essence of
Constraint Propagation"), each round instead keeps an explicit **frame
stack**, popped LIFO by :meth:`PropagationContext._drain`:

* a *changed-variable* frame — one per changed variable — first snapshots
  the constraints the change activates (the thesis's ``propagate``
  message), then hands them out one activation
  (``propagateVariable:``) per step, staying on the stack until its last
  constraint has been activated;
* the *agenda barrier* — one per round seed — pops the highest-priority
  scheduled entry, runs its inference and stays put until the agendas are
  empty, so each inference's wavefront finishes before the next entry
  pops;
* a *repropagation* frame re-asserts an edited constraint's arguments in
  precedence order (Fig. 4.13), one argument per step with an agenda
  barrier in between.

Frames posted while one step runs sit above it and pop first, which is
exactly the depth-first activation order of the recursive engine — same
visited order, same violation points, same counter values — with depth
limited by heap memory, not the C stack.  Every counter, trace and
observer hook (``context.observer``, see :mod:`repro.obs`) for
constraint activity fires at that one dispatch site; the observer,
tracer, control and budget in force are read once when the round
opens.

The Smalltalk implementation keeps its bookkeeping in globals
(``VisitedConstraintsAndVariables``, the agenda scheduler, the ``CPSwitch``
disable flag).  Here the equivalent state lives in an explicit
:class:`PropagationContext`; variables and constraints belong to a context
and all propagation rounds for a network run inside it.  A module-level
default context preserves the convenience of the global style for small
programs and tests.

Key behaviours reproduced:

* **One-value-change rule** (section 4.2.2): no variable may change value
  twice in one round; cyclic networks therefore terminate with a violation
  rather than looping (Fig. 4.9).  The relaxed N-change rule suggested in
  section 9.2.3 is available via ``max_changes_per_variable``.
* **Violation handling** (section 4.2.3 / 5.2): on violation the network is
  restored to its pre-round state, the context's handler is notified, and
  the assignment returns ``False`` — the validity feedback design tools use.
* **Propagation disable switch** (section 5.3): with ``enabled = False``
  assignments store values directly and constraint editing performs no
  local propagation.
* **Tentative probing** (Fig. 8.2 ``canBeSetTo:``): propagate a trial value
  and restore unconditionally, reporting only whether a violation occurred.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .agenda import AgendaScheduler, DEFAULT_PRIORITY_ORDER
from .justification import TENTATIVE, USER, Justification
from .violations import (
    BudgetExceeded,
    PropagationViolation,
    ViolationHandler,
    ViolationRecord,
    WarningHandler,
)


class PropagationStats:
    """Counters describing propagation activity.

    These are the raw material for the efficiency experiments: agenda
    deferral (E2) is measured by ``inference_runs``, hierarchical sharing
    (E6) by ``propagated_assignments``, and the complexity claim (E16) by
    ``constraint_activations``.
    """

    __slots__ = ("rounds", "external_assignments", "propagated_assignments",
                 "ignored_propagations", "constraint_activations",
                 "inference_runs", "scheduled_entries", "violations",
                 "satisfaction_checks", "budget_aborts",
                 "coalesced_assignments")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.rounds = 0
        self.external_assignments = 0
        self.propagated_assignments = 0
        self.ignored_propagations = 0
        self.constraint_activations = 0
        self.inference_runs = 0
        self.scheduled_entries = 0
        self.violations = 0
        self.satisfaction_checks = 0
        self.budget_aborts = 0
        self.coalesced_assignments = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"PropagationStats({body})"


_UNLIMITED = float("inf")


class RoundBudget:
    """Per-round watchdog limits for the wavefront loop.

    A budget bounds one propagation round by wavefront steps
    (``max_steps``: one per changed-variable snapshot, constraint
    activation, agenda-barrier visit and repropagation visit — see
    :meth:`PropagationContext._drain`) and/or wall-clock time
    (``max_seconds``).  Crossing
    either limit raises :class:`~repro.core.violations.BudgetExceeded`,
    which aborts the round through the ordinary violation rollback — the
    network comes back byte-identical to its pre-round state and the
    assignment reports ``False``.

    Step budgets are **deterministic**: the same round overruns at the
    same step on every machine, so durable sessions journal them and
    replay reproduces the abort exactly.  Wall-time budgets are a
    liveness backstop (a slow machine may abort a round a fast one
    completes) — use them for interactive safety, not for anything that
    must replay bit-identically.
    """

    __slots__ = ("max_steps", "max_seconds")

    def __init__(self, max_steps: Optional[int] = None,
                 max_seconds: Optional[float] = None) -> None:
        if max_steps is None and max_seconds is None:
            raise ValueError("a RoundBudget needs max_steps and/or "
                             "max_seconds")
        if max_steps is not None and max_steps < 1:
            raise ValueError(f"max_steps must be positive, not {max_steps}")
        if max_seconds is not None and max_seconds <= 0:
            raise ValueError(f"max_seconds must be positive, "
                             f"not {max_seconds}")
        self.max_steps = max_steps if max_steps is not None else _UNLIMITED
        self.max_seconds = max_seconds

    def __repr__(self) -> str:
        steps = None if self.max_steps == _UNLIMITED else self.max_steps
        return f"RoundBudget(max_steps={steps}, max_seconds={self.max_seconds})"


#: Frame kinds (first element of each frame on a round's stack).
_CHANGED = 0      # [_CHANGED, variable, exclude]: constraints not yet snapshot
_ACTIVATE = 1     # [_ACTIVATE, variable, pending]: pending is reversed
_BARRIER = 2      # the agenda barrier (one shared immutable frame)
_REPROPAGATE = 3  # [_REPROPAGATE, constraint, remaining-or-None]

_BARRIER_FRAME = (_BARRIER,)


class _Round:
    """Bookkeeping for one propagation round.

    ``visited`` maps each touched variable to its pre-round
    ``(last_set_by, value)`` so the network can be restored (the global
    dictionary of section 4.2.2); ``changes`` counts value changes per
    variable for the one-value-change rule; ``constraints`` records
    activated constraints, by identity and in first-activation order, for
    the final satisfaction sweep.

    ``stack`` holds the round's pending frames, drained LIFO by
    :meth:`PropagationContext._drain`.  ``draining`` flags whether the
    drain loop is running (frames posted while it runs are picked up by
    it; frames posted outside — e.g. by a tool assigning during the
    satisfaction sweep — are drained on the spot).  ``mark`` is the stack
    height while the current step runs; frames above it are that step's
    own postings.

    The context's stats and scheduler, and the observer, tracer, control
    and step budget in force, are captured once, when the round opens.
    """

    __slots__ = ("visited", "changes", "constraints", "max_changes",
                 "silent", "_tick", "set_ticks", "stack", "draining", "mark",
                 "visited_floor", "stats", "scheduler", "observer", "tracer",
                 "control", "budget", "steps", "deadline", "started")

    def __init__(self, context: "PropagationContext",
                 silent: bool = False) -> None:
        self.visited: Dict[Any, Tuple[Justification, Any]] = {}
        self.changes: Dict[Any, int] = {}
        self.constraints: Dict[int, Any] = {}
        self.max_changes = context.max_changes_per_variable
        self.silent = silent
        self._tick = 0
        self.set_ticks: Dict[Any, int] = {}
        self.stack: List[Any] = []
        self.draining = False
        self.mark = 0
        #: Visited-count baseline of the current batch entry; the
        #: livelock cap in :meth:`may_recompute` measures round size
        #: from here so each entry of a batched round gets the same
        #: headroom a standalone round would.
        self.visited_floor = 0
        self.stats = context.stats
        self.scheduler = context.scheduler
        self.observer = context.observer
        self.tracer = context.tracer
        self.control = context.control
        # Watchdog state (see RoundBudget): steps taken and, for
        # wall-time budgets, the perf_counter deadline.
        budget = self.budget = context.round_budget
        self.steps = 0
        self.deadline: Optional[float] = None
        self.started = 0.0
        if budget is not None:
            self.started = perf_counter()
            if budget.max_seconds is not None:
                self.deadline = self.started + budget.max_seconds

    @property
    def visited_constraints(self) -> List[Any]:
        """Activated constraints in first-activation order."""
        return list(self.constraints.values())

    def record_visit(self, variable: Any) -> None:
        if variable not in self.visited:
            self.visited[variable] = (variable.last_set_by,
                                      variable.raw_value)

    def note_change(self, variable: Any) -> None:
        self.changes[variable] = self.changes.get(variable, 0) + 1
        self._tick += 1
        self.set_ticks[variable] = self._tick

    def begin_entry(self) -> None:
        """Reset per-entry bookkeeping between batch entries.

        A batched round applies its entries sequentially inside one
        rollback/budget/sweep scope.  Each entry starts with the same
        change-counting state a standalone round would: the one-value-
        change rule, the transient-update ticks and the livelock cap all
        reset, while ``visited`` (pre-states for the atomic rollback) and
        ``constraints`` (the single final sweep) accumulate.
        """
        self.changes.clear()
        self.set_ticks.clear()
        self._tick = 0
        self.visited_floor = len(self.visited)

    def may_recompute(self, variable: Any, constraint: Any) -> bool:
        """May ``constraint`` update a result it already set this round?

        Reconvergent fan-out support (thesis section 9.2.3 discusses the
        limitation; this is the dependency-aware refinement it points to):
        a constraint that owns a variable's current value may recompute it
        when one of its other arguments changed *after* the value was
        computed — a legitimate transient update, not a cycle.  A cap tied
        to the round size bounds divergent cyclic networks.
        """
        if variable.source_constraint() is not constraint:
            return False
        if self.changes.get(variable, 0) >= \
                len(self.visited) - self.visited_floor + 2:
            return False  # livelock guard for divergent cycles
        computed_at = self.set_ticks.get(variable, 0)
        return any(self.set_ticks.get(argument, 0) > computed_at
                   for argument in constraint.arguments
                   if argument is not variable)

    def spend_step(self) -> None:
        """The watchdog: count one step (a deterministic measure of
        propagation work) and sample the clock every 32 steps for
        wall-time budgets.  Both overruns abort through the normal
        violation rollback."""
        steps = self.steps = self.steps + 1
        budget = self.budget
        if steps > budget.max_steps:
            raise BudgetExceeded(
                steps=steps, elapsed=perf_counter() - self.started,
                reason=(f"propagation exceeded its step budget "
                        f"({int(budget.max_steps)} events)"))
        if self.deadline is not None and not steps & 31 \
                and perf_counter() > self.deadline:
            raise BudgetExceeded(
                steps=steps, elapsed=perf_counter() - self.started,
                reason=(f"propagation exceeded its wall-time budget "
                        f"({budget.max_seconds}s)"))


class PropagationContext:
    """Propagation state and frame-stack wavefront engine for one
    family of constraint networks.

    Parameters
    ----------
    priority_order:
        Agenda names, highest priority first (section 4.2.1 / 5.1.2).
    max_changes_per_variable:
        The N of the (relaxed) one-value-change rule; 1 reproduces the
        thesis's rule exactly.
    handler:
        Violation handler invoked after state restoration; defaults to a
        silent :class:`~repro.core.violations.WarningHandler`.
    """

    def __init__(self, *,
                 priority_order: Tuple[str, ...] = DEFAULT_PRIORITY_ORDER,
                 max_changes_per_variable: int = 1,
                 handler: Optional[ViolationHandler] = None) -> None:
        self.enabled = True
        self.scheduler = AgendaScheduler(priority_order)
        self.max_changes_per_variable = max_changes_per_variable
        self.handler = handler if handler is not None else WarningHandler()
        self.stats = PropagationStats()
        #: Optional fine-grained enable/disable control (section 9.3);
        #: installed by :class:`repro.core.control.PropagationControl`.
        self.control = None
        #: Optional :class:`repro.core.trace.PropagationTrace` recorder.
        self.tracer = None
        #: Optional :class:`repro.obs.observer.Observer` hub feeding the
        #: metrics registry, span recorder and hot-constraint profiler.
        #: Costs one check per step while ``None``.
        self.observer = None
        #: Optional mutation recorder (``repro.session``): an object with a
        #: ``record_assign(variable, value, justification)`` method called
        #: *before* an external assignment mutates the network — the
        #: write-ahead capture point for durable sessions.  Costs one
        #: attribute check per external assignment while ``None``.
        self.recorder = None
        #: Optional :class:`RoundBudget` — the propagation watchdog.
        #: While installed, every round is bounded in steps and/or wall
        #: time and aborts (with full rollback) via
        #: :class:`~repro.core.violations.BudgetExceeded` when it
        #: overruns.  Costs one check per step while ``None``.
        self.round_budget: Optional[RoundBudget] = None
        #: Optional round-effect sink (``repro.spaces``): an object with
        #: ``absorb_visited(visited)`` called after every non-silent
        #: round with the round's pre-state map, and
        #: ``round_rolled_back()`` called when a non-silent round
        #: restores.  Costs one attribute check per round while ``None``.
        self.shadow = None
        self._round: Optional[_Round] = None

    def _trace(self, kind, subject, detail: str = "") -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.record(kind, subject, detail)

    def _allows(self, constraint: Any) -> bool:
        control = self.control
        return control is None or control.allows(constraint)

    # -- round management -------------------------------------------------

    @property
    def current_round(self) -> Optional[_Round]:
        """The round propagation is running in, or ``None``."""
        return self._round

    @property
    def in_round(self) -> bool:
        return self.current_round is not None

    def require_round(self) -> _Round:
        rnd = self.current_round
        if rnd is None:
            raise RuntimeError("propagated assignment outside a propagation round")
        return rnd

    def _open_round(self, silent: bool = False) -> _Round:
        if self._round is not None:
            raise RuntimeError("propagation rounds do not nest")
        rnd = self._round = _Round(self, silent)
        self.stats.rounds += 1
        return rnd

    def _close_round(self, rnd: _Round) -> None:
        self._round = None
        self.scheduler.clear()
        shadow = self.shadow
        if shadow is not None and not rnd.silent and rnd.visited:
            shadow.absorb_visited(rnd.visited)

    @contextmanager
    def _round_scope(self, silent: bool = False) -> Iterator[_Round]:
        """Hold a round open around a block (for probing engine state)."""
        rnd = self._open_round(silent)
        try:
            yield rnd
        finally:
            self._close_round(rnd)

    @contextmanager
    def propagation_disabled(self) -> Iterator[None]:
        """Temporarily set the ``CPSwitch`` off (section 5.3)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    # -- assignment entry points ------------------------------------------

    def assign(self, variable: Any, value: Any,
               justification: Justification = USER) -> bool:
        """External value assignment (``setTo:justification:``).

        Returns True when the assignment and all triggered propagation
        completed without violation; False when a violation occurred (the
        network is then restored to its prior state).
        """
        recorder = self.recorder
        if not self.enabled:
            if recorder is not None:
                recorder.record_assign(variable, value, justification)
            variable._store(value, justification)
            return True
        if self.current_round is not None:
            # A tool assigning a value while propagation is running (e.g.
            # a recalculation triggered mid-round) joins the active round.
            # Not recorded: the round itself was opened by a recorded
            # mutation, so replaying that mutation regenerates this one.
            self._in_round_external_assignment(variable, value, justification)
            return True
        if recorder is not None:
            # Write-ahead capture: the intent is journaled before any state
            # changes, so a crash between journaling and mutation replays
            # the assignment rather than losing it.
            recorder.record_assign(variable, value, justification)
        self.stats.external_assignments += 1
        if self.tracer is not None:
            self._trace("round-start", variable, f"set to {value!r}")
        if not self._run_round("assign", variable,
                               ((variable, value, justification),)):
            return False
        self._trace("round-end", variable)
        return True

    def _in_round_external_assignment(self, variable: Any, value: Any,
                                      justification: Justification) -> None:
        rnd = self.require_round()
        rnd.stats.external_assignments += 1
        rnd.record_visit(variable)
        variable._store(value, justification)
        rnd.note_change(variable)
        self._post(rnd, [_CHANGED, variable, None],
                   variable.on_stored_by_assignment)

    def assign_many(self, assignments: Any,
                    justification: Justification = USER) -> bool:
        """Apply a batch of external assignments in **one** round.

        ``assignments`` is an iterable of ``(variable, value)`` pairs or
        ``(variable, value, justification)`` triples; pairs take the
        call's ``justification``.  The batch runs inside a single
        :class:`_Round`: entries are seeded in order, each entry's
        wavefront drains before the next entry stores (per-entry change
        bookkeeping resets, so values and justifications match applying
        the entries one-by-one), and one satisfaction sweep runs over
        every visited constraint at the end.  A violation anywhere rolls
        **all** entries back atomically and returns False; an installed
        :class:`RoundBudget` covers the whole batch.

        Redundant same-variable entries are coalesced before seeding
        (last write wins, taking the last occurrence's position), and
        counted in ``stats.coalesced_assignments``.
        """
        entries: List[Tuple[Any, Any, Justification]] = []
        for item in assignments:
            if len(item) == 2:
                variable, value = item
                entries.append((variable, value, justification))
            else:
                variable, value, just = item
                entries.append((variable, value, just))
        if not entries:
            return True
        recorder = self.recorder
        if not self.enabled:
            if recorder is not None:
                recorder.record_batch(entries)
            for variable, value, just in entries:
                variable._store(value, just)
            return True
        if self.current_round is not None:
            # Joining an active round, like ``assign`` mid-round: each
            # entry spreads on the spot; no batch bookkeeping applies.
            for variable, value, just in entries:
                self._in_round_external_assignment(variable, value, just)
            return True
        if recorder is not None:
            # Write-ahead capture of the *requested* batch: replaying it
            # re-coalesces deterministically, so stats (and therefore
            # fingerprints) match the live run.
            recorder.record_batch(entries)
        # Last-write-wins coalescing: a later entry for the same variable
        # supersedes an earlier one and keeps the later position, exactly
        # as sequential application would leave the later value standing.
        slots: Dict[int, int] = {}
        merged: List[Optional[Tuple[Any, Any, Justification]]] = []
        for entry in entries:
            key = id(entry[0])
            previous = slots.get(key)
            if previous is not None:
                merged[previous] = None
            slots[key] = len(merged)
            merged.append(entry)
        if len(slots) != len(merged):
            seeds = [entry for entry in merged if entry is not None]
        else:
            seeds = entries
        dropped = len(entries) - len(seeds)
        stats = self.stats
        stats.coalesced_assignments += dropped
        stats.external_assignments += len(seeds)
        first = seeds[0][0]
        if self.tracer is not None:
            self._trace("round-start", first,
                        f"batch of {len(seeds)} assignment(s)")
        observer = self.observer
        if observer is not None:
            batch_hook = getattr(observer, "batch_submitted", None)
            if batch_hook is not None:
                batch_hook(len(entries), dropped)
        if not self._run_round("batch", first, seeds):
            return False
        self._trace("round-end", first)
        return True

    def _run_round(self, kind: str, subject: Any, entries: Any,
                   repropagate: Any = None) -> bool:
        """One round from open to teardown — the body every entry point
        shares.  ``kind`` is ``"assign"``, ``"batch"``, ``"probe"``
        (silent, always restored, no store hooks) or ``"repropagate"``
        (``repropagate`` is the edited constraint, ``entries`` empty).

        A violation is reported and restored (:meth:`_abort_round`) and
        gives False; any other exception restores and re-raises, so a
        defective constraint never leaves the network half-updated.
        """
        probe = kind == "probe"
        observer = self.observer
        if observer is not None:
            observer.round_started(kind, subject)
        outcome = "error"
        try:
            rnd = self._open_round(silent=probe)
            try:
                if repropagate is not None:
                    rnd.stack.append([_REPROPAGATE, repropagate, None])
                    self._drain(rnd)
                self._propagate(rnd, entries, not probe)
                outcome = "ok"
            except PropagationViolation as signal:
                if probe:
                    outcome = "violation"
                else:
                    self._abort_round(rnd, signal)
                    outcome = signal.kind
            except BaseException:
                if not probe:
                    self._restore(rnd)
                    if observer is not None:
                        observer.restored(len(rnd.visited), "error")
                raise
            finally:
                if probe:
                    self._restore(rnd)
                    if observer is not None:
                        observer.restored(len(rnd.visited), "probe")
                self._close_round(rnd)
        finally:
            if observer is not None:
                observer.round_finished(outcome)
        return outcome == "ok"

    def _propagate(self, rnd: _Round, entries: Any,
                   hooks: bool = True) -> None:
        """Seed each entry and drain its wavefront, then sweep once.

        Raises :class:`PropagationViolation` with the round's effects in
        place; the caller owns restoring them.
        """
        stack = rnd.stack
        for variable, value, justification in entries:
            rnd.begin_entry()
            rnd.record_visit(variable)
            variable._store(value, justification)
            rnd.note_change(variable)
            stack.append(_BARRIER_FRAME)
            stack.append([_CHANGED, variable, None])
            if hooks:
                variable.on_stored_by_assignment()
            self._drain(rnd)
        control = rnd.control
        stats = rnd.stats
        for constraint in list(rnd.constraints.values()):
            if control is not None and not control.allows(constraint):
                continue
            stats.satisfaction_checks += 1
            if not constraint.is_satisfied():
                raise PropagationViolation(
                    constraint=constraint,
                    reason=f"constraint unsatisfied after propagation: "
                           f"{constraint!r}")

    def probe(self, variable: Any, value: Any,
              justification: Justification = TENTATIVE) -> bool:
        """Tentatively assign, propagate, then restore (Fig. 8.2).

        Returns True when the value would be accepted without violation.
        No violation handler runs; the network is always restored.

        With propagation disabled (``enabled = False``) a probe is a
        **no-op accept**: the trial value is neither stored nor checked —
        exactly as external assignments skip checking while the CPSwitch
        is off — and the method returns True.
        """
        if not self.enabled:
            return True
        if self.current_round is not None:
            raise RuntimeError("cannot probe while propagation is running")
        return self._run_round("probe", variable,
                               ((variable, value, justification),))

    def repropagate_constraint(self, constraint: Any) -> bool:
        """Re-initialise a constraint's variables after network editing.

        Implements ``reinitializeVariables`` / ``rePropagate`` (Fig. 4.13):
        the constraint's arguments, ordered user-specified first, then
        constraint-dependent, then other independents, each assert and
        propagate their current value through the edited constraint.
        """
        if not self.enabled:
            return True
        rnd = self.current_round
        if rnd is not None:
            # Constraint created while a round runs (e.g. by a compiler
            # invoked from propagation): its repropagation joins the
            # active round.
            self._post(rnd, [_REPROPAGATE, constraint, None])
            return True
        return self._run_round("repropagate", constraint, (), constraint)

    # -- the wavefront loop ------------------------------------------------

    def _drain(self, rnd: _Round, watermark: int = 0) -> None:
        """Take steps off the frame stack (LIFO) until its height is
        back at ``watermark``.

        This loop is the whole propagation process: the single site where
        constraints are activated, scheduled inference runs and stats and
        traces for constraint activity are recorded.  One step is one
        changed-variable snapshot, one constraint activation, one visit
        of the agenda barrier or one repropagation visit — the unit a
        :class:`RoundBudget` counts.  Frames posted while a step runs
        pop before the step's own frame continues, which reproduces the
        recursive engine's depth-first activation order exactly — with
        constant interpreter stack depth however deep the network.
        """
        stack = rnd.stack
        stats = rnd.stats
        seen = rnd.constraints
        pop_entry = rnd.scheduler.remove_highest_priority_entry
        observer = rnd.observer
        control = rnd.control
        budget = rnd.budget
        previous_draining = rnd.draining
        previous_mark = rnd.mark
        rnd.draining = True
        try:
            while len(stack) > watermark:
                if budget is not None:
                    rnd.spend_step()
                frame = stack[-1]
                kind = frame[0]
                if kind is _CHANGED:
                    # Snapshot the activations now, in reverse so the
                    # first constraint pops first; the first activation
                    # is the next step, taken in this same pass.
                    exclude = frame[2]
                    pending = []
                    for constraint in reversed(frame[1].all_constraints()):
                        if constraint is not exclude and (
                                control is None or control.allows(constraint)):
                            pending.append(constraint)
                    if not pending:
                        stack.pop()
                        continue
                    frame[0] = kind = _ACTIVATE
                    frame[2] = pending
                    if budget is not None:
                        rnd.spend_step()
                if kind is _ACTIVATE:
                    pending = frame[2]
                    constraint = pending.pop()
                    if not pending:
                        stack.pop()
                    rnd.mark = len(stack)
                    variable = frame[1]
                    key = id(constraint)
                    if key not in seen:
                        seen[key] = constraint
                    stats.constraint_activations += 1
                    if observer is None:
                        constraint.propagate_variable(variable)
                    else:
                        t0 = perf_counter()
                        try:
                            constraint.propagate_variable(variable)
                        finally:
                            observer.activation(constraint, variable, t0,
                                                perf_counter(), len(stack))
                elif kind is _BARRIER:
                    entry = pop_entry()
                    while entry is not None and control is not None \
                            and not control.allows(entry[0]):
                        entry = pop_entry()
                    if entry is None:
                        stack.pop()  # agendas empty: the barrier dissolves
                        continue
                    # The barrier stays below the inference's frames: the
                    # next entry pops only after this wavefront finishes.
                    rnd.mark = len(stack)
                    constraint, variable = entry
                    key = id(constraint)
                    if key not in seen:
                        seen[key] = constraint
                    stats.inference_runs += 1
                    if rnd.tracer is not None:
                        rnd.tracer.record("infer", constraint, "")
                    if observer is None:
                        constraint.propagate_scheduled(variable)
                    else:
                        t0 = perf_counter()
                        try:
                            constraint.propagate_scheduled(variable)
                        finally:
                            observer.inference(constraint, variable, t0,
                                               perf_counter())
                else:
                    self._repropagate_step(rnd, frame)
        finally:
            rnd.draining = previous_draining
            rnd.mark = previous_mark

    def _repropagate_step(self, rnd: _Round, frame: List[Any]) -> None:
        """One argument of an edited constraint asserts its value.

        The precedence order is snapshot on the first visit; each visit
        propagates the next still-unvisited argument under a fresh agenda
        barrier, so the argument's wavefront and any scheduled inference
        complete before the next argument is examined (the per-argument
        ``drain_agendas`` of the recursive engine).
        """
        stack = rnd.stack
        constraint, remaining = frame[1], frame[2]
        if remaining is None:
            control = rnd.control
            if control is not None and not control.allows(constraint):
                stack.pop()
                return
            rnd.constraints.setdefault(id(constraint), constraint)
            remaining = frame[2] = _precedence_ordered(constraint.arguments)
        while remaining:
            argument = remaining.pop(0)
            if argument in rnd.visited:
                continue
            rnd.record_visit(argument)
            rnd.stats.constraint_activations += 1
            stack.append(_BARRIER_FRAME)
            rnd.mark = len(stack)
            constraint.propagate_variable(argument)
            return
        stack.pop()

    # -- propagation machinery --------------------------------------------

    def _post(self, rnd: _Round, frame: Any, hook: Any = None) -> None:
        """Push ``frame`` (then run ``hook``); from outside the drain
        loop, drain it on the spot."""
        watermark = len(rnd.stack)
        rnd.stack.append(frame)
        if hook is not None:
            hook()
        if not rnd.draining:
            self._drain(rnd, watermark)

    def spread(self, variable: Any, exclude: Any = None) -> None:
        """Activate every constraint of a changed variable.

        ``exclude`` is the constraint that produced the change, which must
        not be re-activated (``setTo:constraint:justification:``).  The
        activations run from the round's stack; when called from outside
        the wavefront loop they run immediately.
        """
        self._post(self.require_round(), [_CHANGED, variable, exclude])

    def schedule(self, constraint: Any, variable: Any = None, *,
                 agenda: str) -> None:
        """Defer a constraint's inference onto a named agenda.

        The single choke point for agenda scheduling (sections 4.2.1 and
        5.1.2): counts the attempt, traces it, and queues the entry —
        duplicates are rejected by the agenda itself.
        """
        rnd = self._round
        if rnd is None:
            rnd = self  # outside rounds: the context's own instruments
        rnd.stats.scheduled_entries += 1
        if rnd.tracer is not None:
            rnd.tracer.record("schedule", constraint, "")
        if rnd.observer is not None:
            rnd.observer.scheduled(constraint, agenda)
        rnd.scheduler.schedule(constraint, variable, agenda)

    def propagated_assignment(self, variable: Any, value: Any,
                              constraint: Any, justification: Justification) -> None:
        """Assignment performed by a constraint during propagation.

        Applies the termination criteria of section 4.2.2 before storing:
        an agreeing value stops the wavefront silently; a disagreeing value
        on a protected or already-changed variable raises a violation.
        The change is posted to the round's stack rather than propagated
        by re-entering the engine.
        """
        rnd = self._round
        if rnd is None:
            raise RuntimeError("propagated assignment outside a propagation round")
        stack = rnd.stack
        if rnd.draining and len(stack) > rnd.mark:
            # A constraint assigning its second value within one inference
            # run: finish the first value's wavefront before this store,
            # exactly as the recursive engine's nested message sends did
            # (E2's transient-update accounting depends on it).
            self._drain(rnd, rnd.mark)
        decision = variable.classify_propagated(value, constraint)
        if decision == "ignore":
            rnd.stats.ignored_propagations += 1
            if rnd.tracer is not None:
                rnd.tracer.record("ignore", variable,
                                  f"{value!r} agrees/defers")
            return
        changes = rnd.changes
        count = changes.get(variable, 0)
        if count >= rnd.max_changes \
                and not rnd.may_recompute(variable, constraint):
            raise PropagationViolation(
                variable=variable, constraint=constraint, attempted_value=value,
                reason=(f"variable already changed {count} "
                        f"time(s) this round (one-value-change rule)"))
        if decision == "violate":
            raise PropagationViolation(
                variable=variable, constraint=constraint, attempted_value=value,
                reason=(f"propagated value {value!r} conflicts with "
                        f"{variable.last_set_by!r} value {variable.value!r}"))
        visited = rnd.visited
        if variable not in visited:
            visited[variable] = (variable.last_set_by, variable.raw_value)
        variable._store(value, justification)
        changes[variable] = count + 1
        tick = rnd._tick = rnd._tick + 1
        rnd.set_ticks[variable] = tick
        rnd.stats.propagated_assignments += 1
        if rnd.tracer is not None:
            rnd.tracer.record("store", variable,
                              f":= {value!r} by {constraint!r}")
        watermark = len(stack)
        stack.append([_CHANGED, variable, constraint])
        variable.on_stored_by_assignment()
        if not rnd.draining:
            self._drain(rnd, watermark)

    def drain_agendas(self) -> None:
        """Post an agenda barrier: scheduled constraints propagate until
        all agendas are empty, each entry's wavefront finishing before the
        next pops."""
        self._post(self.require_round(), _BARRIER_FRAME)

    def check_visited_constraints(self) -> None:
        """Final sweep: every visited constraint must be satisfied."""
        self._propagate(self.require_round(), ())  # no entries: sweep only

    # -- violation handling -------------------------------------------------

    def _abort_round(self, rnd: _Round, signal: PropagationViolation) -> None:
        """Report, then restore (section 5.2).

        The handler runs while the violating state is still in place —
        STEM's "debug" option opens the constraint editor on exactly that
        state — and restoration happens unconditionally afterwards (the
        "proceed" semantics), even if the handler raises.
        """
        rnd.stats.violations += 1
        if signal.kind == "budget":
            rnd.stats.budget_aborts += 1
        self._trace("violation", signal.constraint or signal.variable,
                    signal.reason)
        observer = self.observer
        if observer is not None:
            observer.violation(signal)
            if signal.kind == "budget":
                hook = getattr(observer, "budget_exceeded", None)
                if hook is not None:
                    hook(signal.steps, signal.elapsed)
        record = ViolationRecord.from_signal(signal)
        try:
            if not rnd.silent:
                constraint = signal.constraint
                handler = (getattr(constraint, "violation_handler", None)
                           or self.handler)
                handler.handle(record)
        finally:
            self._restore(rnd)
            if observer is not None:
                observer.restored(len(rnd.visited), "violation")
            self._trace("restore", None,
                        f"{len(rnd.visited)} variable(s) restored")
            rnd.stack.clear()
            rnd.scheduler.clear()

    def _restore(self, rnd: _Round) -> None:
        """Restore every visited variable to its pre-round state."""
        for variable, (justification, value) in rnd.visited.items():
            variable._store(value, justification)
        shadow = self.shadow
        if shadow is not None and not rnd.silent:
            shadow.round_rolled_back()


def _precedence_ordered(arguments: List[Any]) -> List[Any]:
    """Order arguments for re-propagation (Fig. 4.13).

    User-specified values assert first, then constraint-dependent values,
    then other independents (#APPLICATION etc.), so higher-precedence
    values win any tug-of-war over the edited constraint.
    """
    from .justification import is_propagated, is_user

    user_specified, dependents, others = [], [], []
    for argument in arguments:
        justification = argument.last_set_by
        if is_user(justification):
            user_specified.append(argument)
        elif is_propagated(justification):
            dependents.append(argument)
        else:
            others.append(argument)
    return user_specified + dependents + others


#: Module-level default context — the convenient "global" of the thesis.
_default_context = PropagationContext()


def default_context() -> PropagationContext:
    """Return the process-wide default :class:`PropagationContext`."""
    return _default_context


def reset_default_context(**kwargs: Any) -> PropagationContext:
    """Replace the default context (used by test isolation fixtures)."""
    global _default_context
    _default_context = PropagationContext(**kwargs)
    return _default_context
