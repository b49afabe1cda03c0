"""Justifications for variable values.

Every value held by a :class:`~repro.core.variable.Variable` carries a
*justification* recording where the value came from.  The thesis (section
4.2.4) distinguishes two kinds:

* **External** justifications — symbols naming a source outside the
  constraint networks.  The thesis uses ``#USER`` for designer-entered
  values and ``#APPLICATION`` for tool-calculated values; STEM's
  integration adds ``#UPDATE`` (procedural update-constraint resets),
  ``#TENTATIVE`` (module-selection trial assignments) and ``#DEFAULT``
  (class-level default values propagated into instances).

* **Propagated** justifications — a (source constraint, dependency record)
  pair attached by a constraint during propagation.  The dependency record
  is opaque to everything except the constraint that created it; it is
  interpreted by that constraint during dependency analysis (see
  :mod:`repro.core.dependency`).

The justification of a variable's current value decides whether a newly
propagated value may *overwrite* it.  The default precedence rule of the
thesis — user-specified values outrank propagated and calculated values —
is implemented by :func:`may_overwrite`; variable subclasses may replace it
(e.g. the least-abstract-wins rule of signal type variables, section 7.1).
"""

from __future__ import annotations

from typing import Any, Optional


class ExternalJustification:
    """A named source outside the constraint networks (``#USER`` etc.).

    Instances are interned: each symbol name maps to exactly one object, so
    identity comparison (``justification is USER``) works as it does for
    Smalltalk symbols.
    """

    _interned: dict = {}

    def __new__(cls, name: str) -> "ExternalJustification":
        existing = cls._interned.get(name)
        if existing is not None:
            return existing
        obj = super().__new__(cls)
        obj._name = name
        cls._interned[name] = obj
        return obj

    @property
    def name(self) -> str:
        return self._name

    def __reduce__(self):
        return (ExternalJustification, (self._name,))

    def __repr__(self) -> str:
        return f"#{self._name}"


#: Designer-entered value; outranks every propagated value by default.
USER = ExternalJustification("USER")
#: Tool-calculated value.
APPLICATION = ExternalJustification("APPLICATION")
#: Value erased/reset by a procedural update-constraint.
UPDATE = ExternalJustification("UPDATE")
#: Trial value assigned during module-selection testing (section 8.2).
TENTATIVE = ExternalJustification("TENTATIVE")
#: Default value propagated from a cell-class parameter definition.
DEFAULT = ExternalJustification("DEFAULT")
#: Value fixed by a cell's realized internal structure (e.g. a signal
#: bit-width implied by an internal net, Fig. 7.1) — as binding as #USER.
STRUCTURE = ExternalJustification("STRUCTURE")

#: External justifications that a propagated value may *not* overwrite.
_PROTECTED = frozenset({"USER", "STRUCTURE"})


class PropagatedJustification:
    """Source-constraint + dependency-record pair for a propagated value.

    Mirrors the thesis's ``Association key:aConstraint value:justification``
    stored in a variable's ``lastSetBy`` field.  ``dependency_record`` is
    whatever the source constraint chose to record (commonly the single
    variable that activated it, or ``None`` for functional constraints whose
    result implicitly depends on every argument).
    """

    __slots__ = ("constraint", "dependency_record")

    def __init__(self, constraint: Any, dependency_record: Any = None) -> None:
        self.constraint = constraint
        self.dependency_record = dependency_record

    def __repr__(self) -> str:
        return f"PropagatedJustification({self.constraint!r})"


Justification = Any  # ExternalJustification | PropagatedJustification | None


def source_constraint(justification: Justification) -> Optional[Any]:
    """Return the constraint that set a value, or ``None`` for external values."""
    if isinstance(justification, PropagatedJustification):
        return justification.constraint
    return None


def is_user(justification: Justification) -> bool:
    """True if the value was entered by the designer (``#USER``)."""
    return justification is USER


def is_propagated(justification: Justification) -> bool:
    """True if the value was produced by constraint propagation."""
    return isinstance(justification, PropagatedJustification)


def may_overwrite(current: Justification) -> bool:
    """Default overwrite rule: may propagation replace a ``current`` value?

    User-specified values have higher priority than propagated and
    calculated values (thesis section 4.2.4); everything else yields to
    propagation.
    """
    if isinstance(current, ExternalJustification):
        return current._name not in _PROTECTED
    return True
