"""Geometry substrate: points, rectangles and placement transformations.

STEM represents a cell instance's placement by a transformation matrix
mapping the cell's internal structure into the instance's bounding-box
area (section 7.2).  This module provides the minimal 2-D geometry the
environment needs: integer/float points, axis-aligned rectangles
(bounding boxes), and Manhattan placement transforms (the eight
orientations of the square: rotations by multiples of 90° with optional
mirroring) plus translation.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Tuple


class Point:
    """An immutable 2-D point (also used as an extent vector)."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("Point is immutable")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Point)
                and self.x == other.x and self.y == other.y)

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"

    def max(self, other: "Point") -> "Point":
        return Point(max(self.x, other.x), max(self.y, other.y))

    def min(self, other: "Point") -> "Point":
        return Point(min(self.x, other.x), min(self.y, other.y))


ORIGIN = Point(0, 0)


class Rect:
    """An axis-aligned rectangle: ``origin`` (lower-left) and ``corner``.

    The thesis's bounding boxes compare by *extent* ("bBox extent >=
    selfBBox extent", Fig. 7.7): a box can contain another iff it is at
    least as large in both axes.
    """

    __slots__ = ("origin", "corner")

    def __init__(self, origin: Point, corner: Point) -> None:
        object.__setattr__(self, "origin", origin.min(corner))
        object.__setattr__(self, "corner", origin.max(corner))

    def __setattr__(self, *_args) -> None:
        raise AttributeError("Rect is immutable")

    @classmethod
    def of_extent(cls, width: float, height: float,
                  origin: Point = ORIGIN) -> "Rect":
        return cls(origin, origin + Point(width, height))

    @property
    def extent(self) -> Point:
        return self.corner - self.origin

    @property
    def width(self) -> float:
        return self.corner.x - self.origin.x

    @property
    def height(self) -> float:
        return self.corner.y - self.origin.y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.origin.x + self.corner.x) / 2,
                     (self.origin.y + self.corner.y) / 2)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Rect)
                and self.origin == other.origin and self.corner == other.corner)

    def __hash__(self) -> int:
        return hash((self.origin, self.corner))

    def __repr__(self) -> str:
        return (f"Rect({self.origin.x}, {self.origin.y}, "
                f"{self.corner.x}, {self.corner.y})")

    def contains_point(self, point: Point) -> bool:
        return (self.origin.x <= point.x <= self.corner.x
                and self.origin.y <= point.y <= self.corner.y)

    def can_contain(self, other: "Rect") -> bool:
        """Extent comparison used for instance-vs-class boxes (Fig. 7.7)."""
        return self.width >= other.width and self.height >= other.height

    def union(self, other: "Rect") -> "Rect":
        return Rect(self.origin.min(other.origin), self.corner.max(other.corner))

    def translated(self, offset: Point) -> "Rect":
        return Rect(self.origin + offset, self.corner + offset)

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> Optional["Rect"]:
        """The smallest rectangle containing all of ``rects`` (None if empty)."""
        result: Optional[Rect] = None
        for rect in rects:
            result = rect if result is None else result.union(rect)
        return result


#: The eight Manhattan orientations: (name, (a, b, c, d)) row-major 2x2.
_ORIENTATIONS = {
    "R0": (1, 0, 0, 1),
    "R90": (0, -1, 1, 0),
    "R180": (-1, 0, 0, -1),
    "R270": (0, 1, -1, 0),
    "MX": (1, 0, 0, -1),    # mirror about the X axis
    "MY": (-1, 0, 0, 1),    # mirror about the Y axis
    "MX90": (0, 1, 1, 0),   # mirror then rotate 90
    "MY90": (0, -1, -1, 0),
}


class Transform:
    """A Manhattan placement: orientation followed by translation.

    ``apply_to`` maps points and rectangles from a cell's internal
    coordinates into its instance's coordinates; ``compose`` chains
    placements down a design hierarchy.
    """

    __slots__ = ("orientation", "offset")

    def __init__(self, orientation: str = "R0", offset: Point = ORIGIN) -> None:
        if orientation not in _ORIENTATIONS:
            raise ValueError(f"unknown orientation {orientation!r}; "
                             f"expected one of {sorted(_ORIENTATIONS)}")
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("Transform is immutable")

    @classmethod
    def translation(cls, x: float, y: float) -> "Transform":
        return cls("R0", Point(x, y))

    @property
    def matrix(self) -> Tuple[float, float, float, float]:
        return _ORIENTATIONS[self.orientation]

    def apply_to_point(self, point: Point) -> Point:
        a, b, c, d = self.matrix
        return Point(a * point.x + b * point.y + self.offset.x,
                     c * point.x + d * point.y + self.offset.y)

    def apply_to(self, shape):
        """Transform a Point or a Rect."""
        if isinstance(shape, Point):
            return self.apply_to_point(shape)
        if isinstance(shape, Rect):
            return Rect(self.apply_to_point(shape.origin),
                        self.apply_to_point(shape.corner))
        raise TypeError(f"cannot transform {type(shape).__name__}")

    def compose(self, inner: "Transform") -> "Transform":
        """self ∘ inner: apply ``inner`` first, then this transform."""
        a, b, c, d = self.matrix
        ia, ib, ic, id_ = inner.matrix
        combined = (a * ia + b * ic, a * ib + b * id_,
                    c * ia + d * ic, c * ib + d * id_)
        for name, matrix in _ORIENTATIONS.items():
            if matrix == combined:
                orientation = name
                break
        else:  # pragma: no cover - the group is closed
            raise AssertionError("orientation group not closed")
        return Transform(orientation, self.apply_to_point(inner.offset))

    def inverse(self) -> "Transform":
        a, b, c, d = self.matrix
        det = a * d - b * c  # always +/-1 for Manhattan orientations
        ia, ib, ic, id_ = (d / det, -b / det, -c / det, a / det)
        inv_matrix = (int(ia), int(ib), int(ic), int(id_))
        for name, matrix in _ORIENTATIONS.items():
            if matrix == inv_matrix:
                inv = Transform(name)
                break
        else:  # pragma: no cover
            raise AssertionError("orientation group not closed under inverse")
        return Transform(inv.orientation, -inv.apply_to_point(self.offset))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Transform)
                and self.orientation == other.orientation
                and self.offset == other.offset)

    def __hash__(self) -> int:
        return hash((self.orientation, self.offset))

    def __repr__(self) -> str:
        return f"Transform({self.orientation!r}, {self.offset!r})"


IDENTITY = Transform()
