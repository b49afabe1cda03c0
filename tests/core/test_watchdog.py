"""The propagation watchdog: RoundBudget aborts runaway rounds cleanly."""

import time

import pytest

from repro.core import (
    BudgetExceeded,
    EqualityConstraint,
    FormulaConstraint,
    PropagationContext,
    RoundBudget,
    Variable,
    default_context,
)
from repro.obs import Observer


def chain(n, context=None, fn=None):
    """x0 -> x1 -> ... -> xn, each link one constraint dispatch."""
    context = context or default_context()
    variables = [Variable(0, name=f"x{i}", context=context)
                 for i in range(n + 1)]
    for left, right in zip(variables, variables[1:]):
        if fn is None:
            EqualityConstraint(left, right)
        else:
            FormulaConstraint(right, [left], fn)
    return variables


def network_image(variables):
    return [(v.raw_value, v.last_set_by) for v in variables]


class TestRoundBudgetValidation:
    def test_requires_at_least_one_limit(self):
        with pytest.raises(ValueError):
            RoundBudget()

    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            RoundBudget(max_steps=0)
        with pytest.raises(ValueError):
            RoundBudget(max_seconds=0.0)


class TestStepBudget:
    def test_round_within_budget_is_untouched(self):
        variables = chain(10)
        default_context().round_budget = RoundBudget(max_steps=1000)
        assert variables[0].set(5)
        assert variables[-1].value == 5

    def test_runaway_round_aborts_and_restores(self):
        variables = chain(50)
        context = default_context()
        context.round_budget = RoundBudget(max_steps=5)
        before = network_image(variables)
        assert variables[0].set(9) is False
        # Byte-identical rollback: values AND justifications.
        assert network_image(variables) == before
        record = context.handler.last
        assert record.kind == "budget"
        assert "step budget" in record.reason
        assert context.stats.budget_aborts == 1
        assert context.stats.violations == 1

    def test_no_budget_means_no_limit(self):
        variables = chain(50)
        assert default_context().round_budget is None
        assert variables[0].set(9)
        assert variables[-1].value == 9

    def test_observer_counts_budget_aborts(self):
        variables = chain(50)
        context = default_context()
        context.round_budget = RoundBudget(max_steps=5)
        with Observer.metrics_only(context) as observer:
            assert variables[0].set(9) is False
        snapshot = observer.metrics.snapshot()
        assert snapshot["engine.budget.aborts"] == 1
        assert snapshot["engine.round_outcomes.budget"] == 1
        assert snapshot["engine.budget.last_steps"]["value"] >= 5

    def test_budget_exceeded_carries_structured_detail(self):
        variables = chain(50)
        context = PropagationContext()
        vs = [Variable(0, name=f"y{i}", context=context) for i in range(9)]
        for left, right in zip(vs, vs[1:]):
            EqualityConstraint(left, right)
        context.round_budget = RoundBudget(max_steps=3)
        context.handler.clear()
        assert vs[0].set(1) is False
        record = context.handler.last
        assert record.kind == "budget"
        # The signal's counters surfaced in the reason string.
        assert "3" in record.reason


class TestWallTimeBudget:
    def test_slow_round_aborts(self):
        def slowly(value):
            time.sleep(0.002)
            return value

        variables = chain(100, fn=slowly)
        context = default_context()
        context.round_budget = RoundBudget(max_seconds=0.01)
        before = network_image(variables)
        assert variables[0].set(3) is False
        assert network_image(variables) == before
        record = context.handler.last
        assert record.kind == "budget"
        assert "wall-time" in record.reason
        assert context.stats.budget_aborts == 1
