"""Computation spaces: clone cost, commit cost, and the ranked search
they are measured against.

The spaces subsystem's performance claims:

* **clone** (open + discard of an empty space) is a constant-cost
  hook swap plus two epoch bumps — microseconds, independent of design
  size, which is what makes per-probe spaces affordable;
* **commit** of a K-assign space costs one batched round on the parent
  (the space replay) on top of the speculative rounds already paid.

``test_sequential_search_baseline`` times chapter 8's in-place
generate-and-test with ranking (``RankedSelector``, ``repro select
--rank``) over a 16-candidate tree.

The ``benchmark`` fixtures feed medians into ``BENCH_PROP.json`` and
the ``0004_spaces-baseline`` CI gate (median:5%).
"""

from time import perf_counter

from repro.core import (
    EqualityConstraint,
    FunctionPredicate,
    PropagationContext,
    UpperBoundConstraint,
    Variable,
)
from repro.selection import RankedSelector
from repro.spaces import Space
from repro.stem import CellClass, Rect

D = 1.0
A = 10.0
SEARCH_CANDIDATES = 16


def build_network(count=32, context=None):
    """``count`` equality pairs under an upper bound — a design whose
    rounds do real propagation work."""
    entries = []
    for index in range(count):
        left = Variable(name=f"L{index}", context=context)
        right = Variable(name=f"R{index}", context=context)
        EqualityConstraint(left, right)
        UpperBoundConstraint(left, 1_000_000)
        entries.append(left)
    return entries


def build_candidate_tree(count=SEARCH_CANDIDATES, *, work_cost_us=2_000):
    """A generic with ``count`` concrete realizations whose acceptance
    test charges ``work_cost_us`` of propagation work per probe.

    Real candidate tests run whole constraint networks, so the tested
    delay variable carries a calibrated busy-wait predicate standing in
    for the fan-out of a production design.
    """
    generic = CellClass("GEN", is_generic=True)
    generic.define_signal("x", "in")
    generic.define_signal("y", "out")
    generic.declare_delay("x", "y", estimate=1 * D)
    generic.set_bounding_box(Rect.of_extent(A, 1.0))
    for index in range(count):
        leaf = generic.subclass(f"GEN.C{index}")
        leaf.delay_var("x", "y").set((1 + index % 7) * D)
        leaf.set_bounding_box(Rect.of_extent((1 + index % 5) * A, 1.0))

    top = CellClass("TOP")
    instance = generic.instantiate(top, "gen")
    delay_var = instance.delay_var("x", "y")
    UpperBoundConstraint(delay_var, 6 * D)

    seconds = work_cost_us / 1e6

    def burn(_value):
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            pass
        return True

    if seconds > 0:
        FunctionPredicate(delay_var, fn=burn, label="busy-work")
    return instance


class TestSpaceCosts:
    def test_clone_discard_cost(self, benchmark):
        """Open + discard of an empty space over a 32-motif design."""
        context = PropagationContext()
        build_network(context=context)

        def clone():
            with Space(context):
                pass

        benchmark(clone)

    def test_commit_cost(self, benchmark):
        """8 speculative assigns merged into the parent as one batch."""
        context = PropagationContext()
        entries = build_network(context=context)
        hot = entries[:8]
        toggle = [0]

        def speculate_and_commit():
            toggle[0] ^= 1
            with Space(context) as space:
                for index, variable in enumerate(hot):
                    space.assign(variable, index + toggle[0])
                space.commit()

        benchmark(speculate_and_commit)

    def test_discard_cost_after_writes(self, benchmark):
        """Rollback cost of a space that touched 8 variables."""
        context = PropagationContext()
        entries = build_network(context=context)
        hot = entries[:8]

        def speculate_and_discard():
            with Space(context) as space:
                for index, variable in enumerate(hot):
                    space.assign(variable, index)

        benchmark(speculate_and_discard)


class TestSearchWallClock:
    def test_sequential_search_baseline(self, benchmark):
        instance = build_candidate_tree(work_cost_us=200)
        benchmark(lambda: RankedSelector().rank(instance))
