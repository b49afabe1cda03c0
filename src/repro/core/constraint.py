"""Constraint objects — assertions over variable objects.

Section 4.1.2 of the thesis: a constraint's semantics are collectively
defined by two methods.  ``immediate_inference_by_changing(variable)``
examines the changed variable and assigns inferred values to the other
arguments; ``is_satisfied()`` tests whether the current argument values
satisfy the relation.  Subclasses customise propagation behaviour chiefly
by redefining these two methods — the open-endedness the thesis contrasts
with MOLGEN and CONSTRAINTS.

Network editing (section 4.2.5) lives here too: attaching a constraint
re-propagates its arguments in precedence order (Fig. 4.13); removing an
argument performs dependency-directed erasure of every value the
constraint justified (Fig. 4.14).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from . import dependency
from .engine import PropagationContext, default_context
from .violations import PropagationViolation, ViolationHandler


class Constraint:
    """Base class of all explicit constraints.

    Parameters
    ----------
    *variables:
        The initial argument variables.  Unless ``attach=False``, the
        constraint immediately links itself to them and re-propagates,
        exactly as adding a constraint does in the thesis.
    attach:
        Pass False to build the object without touching the network (the
        caller then calls :meth:`attach`).
    """

    #: Agenda this constraint defers to, or None for immediate propagation
    #: (section 4.2.1).  Subclasses override (e.g. functional constraints).
    agenda: Optional[str] = None

    #: Optional per-constraint violation handler (section 5.2); None means
    #: use the context's handler.
    violation_handler: Optional[ViolationHandler] = None

    def __init__(self, *variables: Any, attach: bool = True) -> None:
        self._arguments: List[Any] = []
        self._attached = False
        self._context: Optional[PropagationContext] = None
        for variable in variables:
            self.basic_add_argument(variable)
        if attach:
            self.attach()

    # -- identity -----------------------------------------------------------

    @property
    def arguments(self) -> List[Any]:
        return self._arguments

    @property
    def context(self) -> PropagationContext:
        if self._context is None:
            return default_context()
        return self._context

    @property
    def attached(self) -> bool:
        return self._attached

    def qualified_name(self) -> str:
        names = ", ".join(v.qualified_name() for v in self._arguments)
        return f"{type(self).__name__}({names})"

    def __repr__(self) -> str:
        return f"<{self.qualified_name()}>"

    # -- network editing -------------------------------------------------------

    def basic_add_argument(self, variable: Any) -> None:
        """Link an argument without re-propagation (``basicAddArgument:``)."""
        if variable in self._arguments:
            return
        if self._context is None:
            self._context = variable.context
        elif variable.context is not self._context:
            raise ValueError(
                f"variable {variable!r} belongs to a different propagation "
                f"context than constraint {self!r}")
        self._arguments.append(variable)
        if self._attached:
            variable.add_constraint(self)

    def attach(self) -> bool:
        """Register with every argument and re-propagate (Fig. 4.13).

        Returns the validity feedback: False when attaching immediately
        produced a constraint violation (the constraint stays attached so
        the designer can inspect and fix it, as in STEM).
        """
        if self._attached:
            return True
        self._attached = True
        for variable in self._arguments:
            variable.add_constraint(self)
        return self.reinitialize_variables()

    def reinitialize_variables(self) -> bool:
        """Give every argument a chance to assert its value (Fig. 4.13)."""
        return self.context.repropagate_constraint(self)

    def add_argument(self, variable: Any) -> bool:
        """Add an argument to an attached constraint, with re-propagation."""
        self.basic_add_argument(variable)
        if not self._attached:
            return True
        variable.add_constraint(self)
        return self.reinitialize_variables()

    def remove_argument(self, variable: Any) -> bool:
        """Detach one argument with dependency-directed erasure (Fig. 4.14).

        Values that were justified by this constraint/variable pair are
        reset to None; the constraint then re-propagates its remaining
        arguments.
        """
        if variable not in self._arguments:
            return True
        # Collect the erasure set before unlinking (traversal needs links).
        if variable.source_constraint() is self:
            to_reset = {variable} | variable.variable_consequences()
        else:
            to_reset = dependency.constraint_consequences(self, variable)
        variable.remove_constraint(self)
        self._arguments.remove(variable)
        for dependent in to_reset:
            dependent.reset()
        if self._attached and self._arguments:
            return self.reinitialize_variables()
        return True

    def remove(self) -> None:
        """Detach from every argument, erasing all values it justified."""
        to_reset = set()
        for variable in self._arguments:
            if variable.source_constraint() is self:
                to_reset.add(variable)
                to_reset |= variable.variable_consequences()
            else:
                to_reset |= dependency.constraint_consequences(self, variable)
        for variable in self._arguments:
            variable.remove_constraint(self)
        self._arguments = []
        self._attached = False
        for dependent in to_reset:
            dependent.reset()

    # -- propagation protocol ------------------------------------------------------

    def propagate_variable(self, variable: Any) -> None:
        """React to a changed argument (``propagateVariable:``).

        Immediate constraints run their inference at once; agenda-based
        constraints schedule themselves if the changed variable is allowed
        to drive them (Fig. 4.7).
        """
        agenda = self.agenda
        if agenda is None:
            self.immediate_inference_by_changing(variable)
        elif self.permits_changes_by(variable):
            context = self._context
            if context is None:
                context = default_context()
            context.schedule(self, None, agenda=agenda)

    def propagate_scheduled(self, variable: Any) -> None:
        """Run a deferred propagation popped from an agenda."""
        self.immediate_inference_by_changing(variable)

    def immediate_inference_by_changing(self, variable: Any) -> None:
        """Assign inferred values to the other arguments.  Default: none."""

    def is_satisfied(self) -> bool:
        """Do the current argument values satisfy the relation?"""
        return True

    def permits_changes_by(self, variable: Any) -> bool:
        """May a change of ``variable`` drive this constraint's inference?"""
        return True

    # -- dependency protocol ----------------------------------------------------------

    def test_membership_of(self, variable: Any, dependency_record: Any) -> bool:
        """Is ``variable`` among the dependencies in ``dependency_record``?

        The record was created by this constraint during propagation and is
        interpreted only here.  The conservative default treats every
        argument as a dependency.
        """
        return True

    # -- convenience -------------------------------------------------------------------

    def violate(self, variable: Any = None, value: Any = None,
                reason: str = "") -> None:
        """Raise a violation attributed to this constraint."""
        raise PropagationViolation(variable=variable, constraint=self,
                                   attempted_value=value,
                                   reason=reason or f"{self!r} violated")

    def non_nil_values(self) -> List[Any]:
        """Values of arguments that currently hold a value."""
        return [value for variable in self._arguments
                if (value := variable.value) is not None]
