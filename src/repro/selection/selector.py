"""Module validation and selection (thesis chapter 8).

Generic cells stand in for undecided implementations during
least-commitment design.  *Module selection* finds, for a generic cell
instance embedded in a larger design, every descendant cell class whose
characteristics can replace the generic's without violating constraints.

The algorithm is generate-and-test (Fig. 8.3): a depth-first traversal of
the class hierarchy rooted at the generic class, testing candidates by
*tentatively propagating* their characteristic values into the generic
instance's variables (``can_be_set_to``, Fig. 8.2) — so validity depends
on every constraint in the instance's surrounding context.

Two efficiency techniques (section 8.2):

* **selective testing** — the user orders (a subset of) the property
  kinds ``bBox``/``signals``/``delays`` most-constrained first; cheaper
  and more decisive tests run first and short-circuit failures;
* **tree pruning** — generic intermediate classes carry the *ideal*
  (best-case) characteristics of their descendants; when a generic node
  fails, its whole subtree is skipped.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..stem.cell import CellClass, CellInstance

#: Property kinds in the default testing order.
DEFAULT_PRIORITIES: Tuple[str, ...] = ("bBox", "signals", "delays")


class SelectionStats:
    """Counters for the efficiency experiments (E15)."""

    def __init__(self) -> None:
        self.candidates_tested = 0
        self.property_tests = 0
        self.pruned_subtrees = 0

    def __repr__(self) -> str:
        return (f"SelectionStats(tested={self.candidates_tested}, "
                f"property_tests={self.property_tests}, "
                f"pruned={self.pruned_subtrees})")


class ModuleSelector:
    """Generate-and-test module selection for a generic cell instance.

    Parameters
    ----------
    priorities:
        Ordered property kinds to test (selective testing); e.g.
        ``("bBox", "delays")`` when signal compatibility is guaranteed.
    prune:
        Test generic intermediate classes and cut their subtrees on
        failure (section 8.2).  Disable only to measure the benefit.
    """

    def __init__(self, priorities: Sequence[str] = DEFAULT_PRIORITIES,
                 prune: bool = True) -> None:
        unknown = set(priorities) - {"bBox", "signals", "delays"}
        if unknown:
            raise ValueError(f"unknown property kinds: {sorted(unknown)}")
        self.priorities = tuple(priorities)
        self.prune = prune
        self.stats = SelectionStats()

    # -- entry point -----------------------------------------------------------

    def select_realizations_for(self, instance: CellInstance) -> List[CellClass]:
        """All valid realizations of ``instance`` in its current context.

        ``instance`` is typically an instance of a generic cell placed in
        a larger design; the result lists the non-generic descendant
        classes that can realize it (Fig. 8.3's ``selectRealizationsFor:``).
        """
        cell = instance.cell_class
        if not cell.is_generic:
            return [cell]
        results: List[CellClass] = []
        for subclass in cell.subclasses:
            results.extend(self._valid_realizations(subclass, instance))
        return results

    def _valid_realizations(self, candidate: CellClass,
                            instance: CellInstance) -> List[CellClass]:
        if candidate.is_generic:
            if self.prune:
                if not self.is_valid_realization_for(candidate, instance):
                    self.stats.pruned_subtrees += 1
                    return []
            results: List[CellClass] = []
            for subclass in candidate.subclasses:
                results.extend(self._valid_realizations(subclass, instance))
            return results
        if self.is_valid_realization_for(candidate, instance):
            return [candidate]
        return []

    # -- candidate testing (Fig. 8.2) ----------------------------------------------

    def is_valid_realization_for(self, candidate: CellClass,
                                 instance: CellInstance) -> bool:
        """Selective testing of one candidate, in priority order."""
        self.stats.candidates_tested += 1
        for kind in self.priorities:
            self.stats.property_tests += 1
            if kind == "bBox":
                if not self.valid_bbox_for(candidate, instance):
                    return False
            elif kind == "signals":
                if not self.valid_signals_for(candidate, instance):
                    return False
            elif kind == "delays":
                if not self.valid_delays_for(candidate, instance):
                    return False
        return True

    def valid_bbox_for(self, candidate: CellClass,
                       instance: CellInstance) -> bool:
        """The candidate must fit the instance's placement area."""
        candidate_box = candidate.bounding_box()
        if candidate_box is None:
            return True
        required = instance.transform.apply_to(candidate_box)
        bbox_var = instance.bounding_box_var
        if bbox_var.value is None:
            # No placement area fixed yet: check the default against the
            # instance's other constraints by tentative propagation.
            return bbox_var.can_be_set_to(required)
        return bbox_var.value.can_contain(required)

    def valid_delays_for(self, candidate: CellClass,
                         instance: CellInstance) -> bool:
        """Candidate delays, adjusted for local loading, must satisfy the
        constraints on the instance's delay variables."""
        for key, instance_delay in instance.delays.items():
            candidate_delay = candidate.delays.get(key)
            if candidate_delay is None or candidate_delay.value is None:
                continue
            adjusted = candidate_delay.value + instance_delay.loading_penalty()
            if not instance_delay.can_be_set_to(adjusted):
                return False
        return True

    def valid_signals_for(self, candidate: CellClass,
                          instance: CellInstance) -> bool:
        """Candidate signals must match the instance's interface and the
        typing constraints of the nets it is connected to."""
        for name, generic_signal in instance.cell_class.signals.items():
            candidate_signal = candidate.signals.get(name)
            if candidate_signal is None:
                return False
            if candidate_signal.direction != generic_signal.direction:
                return False
            net = instance.net_on(name)
            if net is None:
                continue
            width = candidate_signal.bit_width_var.value
            if width is not None \
                    and not net.bit_width_var.can_be_set_to(width):
                return False
            data_type = candidate_signal.data_type_var.value
            if data_type is not None \
                    and not net.data_type_var.can_be_set_to(data_type):
                return False
            electrical = candidate_signal.electrical_type_var.value
            if electrical is not None \
                    and not net.electrical_type_var.can_be_set_to(electrical):
                return False
        return True


def select_realizations(instance: CellInstance,
                        priorities: Sequence[str] = DEFAULT_PRIORITIES,
                        prune: bool = True) -> List[CellClass]:
    """Convenience wrapper: one-shot module selection for an instance."""
    return ModuleSelector(priorities, prune).select_realizations_for(instance)
