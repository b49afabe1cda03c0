"""Predicate constraints — pure checks without inference.

These capture design *specifications*: they never assign values, they only
veto inconsistent ones.  The designer's "delay from A to B must not exceed
100ns" (section 5.3), aspect-ratio / area / pitch-matching constraints on
bounding boxes (section 7.2, Fig. 7.9) and parameter range restrictions
(section 5.1.1) are all predicates.

A predicate over values that are still ``None`` is trivially satisfied —
specifications wait silently until characteristics become available, the
essence of least-commitment checking.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from .constraint import Constraint


class PredicateConstraint(Constraint):
    """Base class: ``is_satisfied`` tests a predicate, inference is empty."""

    def holds_for(self, values: Sequence[Any]) -> bool:
        """The predicate over the (all non-None) argument values."""
        raise NotImplementedError

    def is_satisfied(self) -> bool:
        values = [variable.value for variable in self._arguments]
        for value in values:
            if value is None:
                return True
        return self.holds_for(values)


class FunctionPredicate(PredicateConstraint):
    """Predicate given as an arbitrary callable over the argument values."""

    def __init__(self, *variables: Any, fn: Callable[..., bool],
                 label: str = "", attach: bool = True) -> None:
        self.fn = fn
        self.label = label or getattr(fn, "__name__", "predicate")
        super().__init__(*variables, attach=attach)

    def holds_for(self, values: Sequence[Any]) -> bool:
        return bool(self.fn(*values))

    def qualified_name(self) -> str:
        names = ", ".join(v.qualified_name() for v in self._arguments)
        return f"{self.label}({names})"


class UpperBoundConstraint(PredicateConstraint):
    """value <= bound — e.g. a "120ns or less" delay specification."""

    def __init__(self, variable: Any, bound: Any, attach: bool = True) -> None:
        self.bound = bound
        super().__init__(variable, attach=attach)

    def holds_for(self, values: Sequence[Any]) -> bool:
        return values[0] <= self.bound

    def qualified_name(self) -> str:
        return f"{self._arguments[0].qualified_name()} <= {self.bound!r}"


class LowerBoundConstraint(PredicateConstraint):
    """value >= bound."""

    def __init__(self, variable: Any, bound: Any, attach: bool = True) -> None:
        self.bound = bound
        super().__init__(variable, attach=attach)

    def holds_for(self, values: Sequence[Any]) -> bool:
        return values[0] >= self.bound

    def qualified_name(self) -> str:
        return f"{self._arguments[0].qualified_name()} >= {self.bound!r}"


class RangeConstraint(PredicateConstraint):
    """low <= value <= high — a parameter range (section 5.1.1)."""

    def __init__(self, variable: Any, low: Any, high: Any,
                 attach: bool = True) -> None:
        self.low = low
        self.high = high
        super().__init__(variable, attach=attach)

    def holds_for(self, values: Sequence[Any]) -> bool:
        return self.low <= values[0] <= self.high

    def qualified_name(self) -> str:
        return (f"{self.low!r} <= {self._arguments[0].qualified_name()} "
                f"<= {self.high!r}")


class OrderingConstraint(PredicateConstraint):
    """first <= second over two variables."""

    def holds_for(self, values: Sequence[Any]) -> bool:
        return values[0] <= values[1]


class AspectRatioPredicate(PredicateConstraint):
    """bounding box width / height == ratio (Fig. 7.9).

    The argument values must expose ``.extent`` with ``.x`` / ``.y``
    (the :class:`~repro.stem.geometry.Rect` protocol) or be such a pair
    themselves.
    """

    def __init__(self, variable: Any, ratio: float, *,
                 tolerance: float = 1e-9, attach: bool = True) -> None:
        self.ratio = ratio
        self.tolerance = tolerance
        super().__init__(variable, attach=attach)

    def holds_for(self, values: Sequence[Any]) -> bool:
        box = values[0]
        extent = getattr(box, "extent", box)
        if extent.y == 0:
            return False
        return abs(extent.x / extent.y - self.ratio) <= self.tolerance

    def qualified_name(self) -> str:
        return f"aspect({self._arguments[0].qualified_name()}) == {self.ratio}"


class AreaBoundConstraint(PredicateConstraint):
    """bounding box area <= max_area (a section 7.2 designer constraint)."""

    def __init__(self, variable: Any, max_area: float,
                 attach: bool = True) -> None:
        self.max_area = max_area
        super().__init__(variable, attach=attach)

    def holds_for(self, values: Sequence[Any]) -> bool:
        box = values[0]
        extent = getattr(box, "extent", box)
        return extent.x * extent.y <= self.max_area

    def qualified_name(self) -> str:
        return f"area({self._arguments[0].qualified_name()}) <= {self.max_area}"


class PitchMatchPredicate(PredicateConstraint):
    """Two bounding boxes share a pitch: equal extents along an axis.

    ``axis`` is ``"x"`` (equal widths) or ``"y"`` (equal heights) —
    the pitch-matching constraint mentioned in section 7.2.
    """

    def __init__(self, first: Any, second: Any, axis: str = "y",
                 attach: bool = True) -> None:
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        self.axis = axis
        super().__init__(first, second, attach=attach)

    def holds_for(self, values: Sequence[Any]) -> bool:
        extents = [getattr(v, "extent", v) for v in values]
        return getattr(extents[0], self.axis) == getattr(extents[1], self.axis)
