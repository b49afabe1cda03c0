"""Wavefront-engine contracts: queue iteration, stats, restore paths.

The engine drives propagation from an explicit per-round frame stack
instead of interpreter recursion.  These tests pin down the behaviours
that the queue design must guarantee beyond the ordering semantics the
rest of the suite already asserts: iteration depth independent of the C
stack, honest stats for mid-round tool assignments, the disabled-probe
contract, and full restoration when a defective constraint raises from
any entry point.
"""

import sys

import pytest

from repro.core import (
    Constraint,
    EqualityConstraint,
    PropagationTrace,
    Variable,
)
from repro.core.justification import UPDATE


class ExplodingAfterWrite(Constraint):
    """Writes a value to ``victim`` and then raises (a tool bug)."""

    def __init__(self, *variables, victim=None, attach=True):
        self.victim = victim
        self.armed = False
        super().__init__(*variables, attach=attach)

    def immediate_inference_by_changing(self, variable):
        if not self.armed:
            return
        if self.victim is not None and variable is not self.victim:
            self.victim.set_propagated(123, self)
        raise RuntimeError("inference bug")


class TestDeepChainIteration:
    def test_50k_chain_without_recursion(self):
        """A 50k-deep chain propagates on the default interpreter stack.

        The recursive engine needed ``sys.setrecursionlimit`` headroom of
        the chain length; the wavefront loop must neither hit
        ``RecursionError`` nor touch the interpreter's recursion limit.
        """
        limit_before = sys.getrecursionlimit()
        depth = 50_000
        variables = [Variable(name=f"v{i}") for i in range(depth + 1)]
        for left, right in zip(variables, variables[1:]):
            EqualityConstraint(left, right)
        assert variables[0].set(7)
        assert variables[-1].value == 7
        assert sys.getrecursionlimit() == limit_before

    def test_deep_chain_violation_restores_everything(self, context):
        """Rollback after a deep wavefront restores every visited variable."""
        depth = 5_000
        variables = [Variable(name=f"v{i}") for i in range(depth + 1)]
        for left, right in zip(variables, variables[1:]):
            EqualityConstraint(left, right)
        variables[-1].set(1)          # propagates 1 through the whole chain
        assert not variables[0].set(2)  # conflicts with the established value
        assert variables[0].value == 1  # restored, not left at 2
        assert variables[depth // 2].value == 1
        assert variables[-1].value == 1


class TestDisabledProbe:
    def test_disabled_probe_is_noop_accept(self, context):
        """With the CPSwitch off a probe accepts without storing/checking."""
        a = Variable(5, name="a")
        b = Variable(name="b")
        EqualityConstraint(a, b)
        rounds_before = context.stats.rounds
        with context.propagation_disabled():
            assert a.can_be_set_to(999) is True   # would violate if checked
        assert a.value == 5                        # nothing was stored
        assert b.value == 5
        assert context.stats.rounds == rounds_before  # no round ran


class TestInRoundAssignmentStats:
    def test_hook_assignment_counts_as_external(self, context):
        """A tool assignment joining an active round is still external."""
        erased = Variable(99, name="erased")

        class Hooked(Variable):
            def on_stored_by_assignment(self):
                if erased.raw_value is not None:
                    erased.set(None, UPDATE)

        trigger = Hooked(name="trigger")
        assert trigger.set(1)
        assert erased.value is None
        assert context.stats.external_assignments == 2

    def test_schedule_choke_point_traces(self, context):
        """Agenda deferral is counted and traced at ``context.schedule``."""
        from repro.core import FormulaConstraint

        x = Variable(name="x")
        r = Variable(name="r")
        FormulaConstraint(r, [x], lambda v: v + 1, label="+1")
        trace = PropagationTrace(context)
        trace.install()
        try:
            x.set(1)
        finally:
            trace.uninstall()
        assert r.value == 2
        kinds = [event.kind for event in trace.events]
        assert "schedule" in kinds
        assert kinds.index("schedule") < kinds.index("infer")
        assert context.stats.scheduled_entries >= 1


class TestRestoreOnToolBugs:
    def test_assign_path_restores_all_visited(self, context):
        """``assign``'s non-violation exception branch restores the round."""
        a = Variable(name="a")
        mid = Variable(name="mid")
        tail = Variable(name="tail")
        EqualityConstraint(mid, tail)
        bad = ExplodingAfterWrite(a, mid, victim=mid)
        bad.armed = True
        with pytest.raises(RuntimeError, match="inference bug"):
            a.set(1)
        assert a.value is None
        assert mid.value is None     # partial write rolled back
        assert tail.value is None
        assert not context.in_round
        assert context.scheduler.is_empty()

    def test_repropagate_path_restores_all_visited(self, context):
        """``repropagate_constraint`` restores too when inference raises."""
        a = Variable(name="a")
        mid = Variable(name="mid")
        bad = ExplodingAfterWrite(a, mid, victim=mid)
        a.set(5)                      # quiet: not armed yet
        bad.armed = True
        with pytest.raises(RuntimeError, match="inference bug"):
            context.repropagate_constraint(bad)
        assert a.value == 5           # re-asserted value restored
        assert mid.value is None      # mid-round write rolled back
        assert not context.in_round
        assert context.scheduler.is_empty()
