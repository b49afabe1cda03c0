"""General-purpose non-functional constraints.

These propagate immediately when activated (first-come-first-served,
section 4.2.1) because their propagation direction depends on which
variable changed.  A ``None`` value means "unknown" throughout: unknowns
are never propagated and never violate a relation.
"""

from __future__ import annotations

from typing import Any, List

from .constraint import Constraint


class EqualityConstraint(Constraint):
    """All arguments must hold equal values (Fig. 4.4).

    Propagation sets every other argument to the changed variable's value;
    the dependency record is the single activating variable.
    """

    def immediate_inference_by_changing(self, variable: Any) -> None:
        new_value = variable.value
        if new_value is None:
            return
        for argument in self._arguments:
            if argument is not variable:
                argument.set_propagated(new_value, self, variable)

    def is_satisfied(self) -> bool:
        values = self.non_nil_values()
        for value in values[1:]:
            if not value == values[0]:
                return False
        return True

    def test_membership_of(self, variable: Any, dependency_record: Any) -> bool:
        return dependency_record is variable


class CompatibleConstraint(Constraint):
    """All arguments must hold pairwise *compatible* values.

    Compatibility is delegated to the values themselves via an
    ``is_compatible_with`` method (the signal-type objects of section 7.1
    provide it).  Propagation pushes the changed value to the other
    arguments; variables with an abstraction-aware overwrite rule (signal
    type variables) then keep the least abstract of the two.
    """

    def immediate_inference_by_changing(self, variable: Any) -> None:
        new_value = variable.value
        if new_value is None:
            return
        for argument in self._arguments:
            if argument is variable:
                continue
            current = argument.value
            if current is not None and not _compatible(current, new_value):
                self.violate(argument, new_value,
                             reason=f"{new_value!r} incompatible with "
                                    f"{current!r} at {argument.qualified_name()}")
            argument.set_propagated(new_value, self, dependency_record=variable)

    def is_satisfied(self) -> bool:
        values = self.non_nil_values()
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                if not _compatible(a, b):
                    return False
        return True

    def test_membership_of(self, variable: Any, dependency_record: Any) -> bool:
        return dependency_record is variable


def _compatible(a: Any, b: Any) -> bool:
    probe = getattr(a, "is_compatible_with", None)
    if callable(probe):
        return bool(probe(b))
    return a == b


class UpdateConstraint(Constraint):
    """Erase derived values when the data they depend on changes (§6.5.1).

    ``watched`` variables are the inputs; ``targets`` are property
    variables holding derived data.  Whenever a watched variable changes,
    every target is reset to ``None``; implicit invocation then
    recalculates targets lazily on their next read.
    """

    def __init__(self, watched: List[Any], targets: List[Any],
                 attach: bool = True) -> None:
        self._watch_count = len(watched)
        super().__init__(*watched, *targets, attach=attach)

    @property
    def watched(self) -> List[Any]:
        return self._arguments[:self._watch_count]

    @property
    def targets(self) -> List[Any]:
        return self._arguments[self._watch_count:]

    def reinitialize_variables(self) -> bool:
        # Declaring the dependency must not erase already-valid caches:
        # attach without the usual re-propagation (targets only go stale
        # when a watched variable actually changes).
        return True

    def immediate_inference_by_changing(self, variable: Any) -> None:
        if variable in self.targets:
            return  # a recalculated target does not erase its siblings
        for target in self.targets:
            # raw access: probing a lazy property variable must not make
            # it recalculate just so we can erase it again
            if target.raw_value is not None:
                target.set_propagated(None, self, dependency_record=variable)

    def is_satisfied(self) -> bool:
        return True

    def test_membership_of(self, variable: Any, dependency_record: Any) -> bool:
        return dependency_record is variable
