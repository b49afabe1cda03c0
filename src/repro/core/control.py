"""Fine-grained propagation control (thesis section 9.3, suggestion 2).

The base system has one global switch (``CPSwitch``, section 5.3).  The
thesis suggests "a higher degree of control ... disabling propagation
and/or checking of individual constraints, constraints in particular
networks, specified types of constraints, and constraints connected to
specific sets of variables".  This module implements exactly that set of
selectors as a :class:`PropagationControl` attached to a context.

Disabled constraints neither propagate nor check: the engine consults
the control (when one is installed) before activating a constraint and
before the final satisfaction sweep.  Everything composes: a constraint
is active only if no selector disables it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Set, Type

from .engine import PropagationContext


class PropagationControl:
    """Selective enabling/disabling of constraints for one context.

    Selectors:

    * individual constraint objects (:meth:`disable_constraint`);
    * constraint types (:meth:`disable_type` — subclasses included);
    * constraints touching specific variables (:meth:`disable_variable`);
    * whole networks, given any member variable
      (:meth:`disable_network_of` — the connected component);
    * arbitrary predicates (:meth:`add_filter`).
    """

    def __init__(self, context: PropagationContext) -> None:
        self.context = context
        self._constraints: Set[int] = set()
        self._constraint_refs: List[Any] = []  # keep objects alive/listable
        self._types: List[Type] = []
        self._variables: Set[int] = set()
        self._variable_refs: List[Any] = []
        self._filters: List[Callable[[Any], bool]] = []
        context.control = self

    # -- selectors -------------------------------------------------------------

    def disable_constraint(self, constraint: Any) -> None:
        if id(constraint) not in self._constraints:
            self._constraints.add(id(constraint))
            self._constraint_refs.append(constraint)

    def enable_constraint(self, constraint: Any) -> None:
        self._constraints.discard(id(constraint))
        self._constraint_refs = [c for c in self._constraint_refs
                                 if c is not constraint]

    def disable_type(self, constraint_type: Type) -> None:
        if constraint_type not in self._types:
            self._types.append(constraint_type)

    def enable_type(self, constraint_type: Type) -> None:
        if constraint_type in self._types:
            self._types.remove(constraint_type)

    def disable_variable(self, variable: Any) -> None:
        """Disable every constraint connected to ``variable``."""
        if id(variable) not in self._variables:
            self._variables.add(id(variable))
            self._variable_refs.append(variable)

    def enable_variable(self, variable: Any) -> None:
        self._variables.discard(id(variable))
        self._variable_refs = [v for v in self._variable_refs
                               if v is not variable]

    def disable_network_of(self, variable: Any) -> int:
        """Disable the whole connected constraint network of ``variable``.

        Walks the variable-constraint graph and disables every constraint
        found; returns how many were disabled.
        """
        seen_variables: Set[int] = set()
        count = 0
        stack = [variable]
        while stack:
            current = stack.pop()
            if id(current) in seen_variables:
                continue
            seen_variables.add(id(current))
            for constraint in current.all_constraints():
                if id(constraint) not in self._constraints:
                    self.disable_constraint(constraint)
                    count += 1
                for argument in getattr(constraint, "arguments", []):
                    if id(argument) not in seen_variables:
                        stack.append(argument)
        return count

    def add_filter(self, predicate: Callable[[Any], bool]) -> None:
        """Disable every constraint for which ``predicate`` is true."""
        self._filters.append(predicate)

    def clear(self) -> None:
        """Re-enable everything."""
        self._constraints.clear()
        self._constraint_refs.clear()
        self._types.clear()
        self._variables.clear()
        self._variable_refs.clear()
        self._filters.clear()

    # -- the engine's query -------------------------------------------------------

    def allows(self, constraint: Any) -> bool:
        """May this constraint propagate / be checked?"""
        if id(constraint) in self._constraints:
            return False
        for constraint_type in self._types:
            if isinstance(constraint, constraint_type):
                return False
        if self._variables:
            for argument in getattr(constraint, "arguments", []):
                if id(argument) in self._variables:
                    return False
        for predicate in self._filters:
            if predicate(constraint):
                return False
        return True

    def disabled_constraints(self) -> List[Any]:
        """The individually disabled constraints (for editor display)."""
        return list(self._constraint_refs)


def control_for(context: PropagationContext) -> PropagationControl:
    """The context's control, creating one on first use."""
    existing = getattr(context, "control", None)
    if isinstance(existing, PropagationControl):
        return existing
    return PropagationControl(context)
