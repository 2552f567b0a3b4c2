"""Generator systems: vertices, rays and lines of a closed convex polyhedron.

This is the representation of Definition 3 of the paper: every point of the
polyhedron is a convex combination of the vertices plus a nonnegative
combination of the rays plus an arbitrary combination of the lines.

A generator has one form, the homogenised primitive integer row that the
double-description method produces: ``(c_1, …, c_n, w)`` for the point
``c / w`` with a positive weight ``w``, and ``(d_1, …, d_n, 0)`` for the
direction ``d`` of a ray or a line.  The entries are coprime, so two equal
generators are two equal tuples.

The polyhedral domain computes on these rows directly: an affine map sends
generators to generators of the image
(:meth:`GeneratorSystem.affine_image`), the affine dimension of the
polyhedron, or of one of its faces, is the rank of its rows
(:func:`integer_rank`), a generator of one system outside the bounding
box of another refutes inclusion without a constraint
(:meth:`GeneratorSystem.box_excludes`), and one system's rows all among
another's prove it (:meth:`GeneratorSystem.has_rows_of`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union


#: How :meth:`GeneratorSystem.affine_image` defines one image coordinate.
Output = Optional[Union[int, Tuple[Sequence[Tuple[int, Fraction]], Fraction]]]

#: A generator: its homogenised primitive integer row (weight last).
Row = Tuple[int, ...]

#: One side of a coordinate's range: the bound ``numerator / denominator``
#: (``denominator > 0``), or ``None`` when the side is unbounded.
Bound = Optional[Tuple[int, int]]


@dataclass
class GeneratorSystem:
    """Vertices, rays and lines of a polyhedron in a fixed variable order,
    each a primitive integer row of length ``len(variables) + 1``."""

    variables: Tuple[str, ...]
    vertices: List[Row] = field(default_factory=list)
    rays: List[Row] = field(default_factory=list)
    lines: List[Row] = field(default_factory=list)
    _box: Optional[List[Tuple[Bound, Bound]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def is_empty(self) -> bool:
        """A polyhedron is empty iff it has no vertex: rays and lines alone
        generate no point."""
        return not self.vertices

    def renamed(self, variables: Sequence[str]) -> "GeneratorSystem":
        """The same generators over new variable names (memo included)."""
        result = GeneratorSystem(
            tuple(variables), self.vertices, self.rays, self.lines
        )
        result._box = self._box
        return result

    def box(self) -> List[Tuple[Bound, Bound]]:
        """Per coordinate, the exact ``(lower, upper)`` bounds of the
        nonempty generated polyhedron: a side is bounded unless a ray
        points along it or a line moves the coordinate, and then it is
        the extreme vertex value.  Memoised.
        """
        if self._box is None:
            vertices = self.vertices
            size = len(self.variables)
            box: List[Tuple[Bound, Bound]] = []
            for index in range(size):
                if any(line[index] for line in self.lines):
                    box.append((None, None))
                    continue
                # ``value / weight`` against ``numerator / denominator``.
                low = high = (vertices[0][index], vertices[0][size])
                for vertex in vertices:
                    value, weight = vertex[index], vertex[size]
                    if value * low[1] < low[0] * weight:
                        low = (value, weight)
                    if value * high[1] > high[0] * weight:
                        high = (value, weight)
                if any(ray[index] < 0 for ray in self.rays):
                    low = None
                if any(ray[index] > 0 for ray in self.rays):
                    high = None
                box.append((low, high))
            self._box = box
        return self._box

    def box_excludes(self, other: "GeneratorSystem") -> bool:
        """Whether a generator of *other* leaves the bounding box of this
        nonempty system: a vertex beyond a coordinate's bound, a ray
        pointing into a bounded side or a line along a bounded coordinate.
        Any of them lies outside this polyhedron, so ``True`` refutes
        ``other ⊆ self`` exactly; ``False`` decides nothing.
        """
        if not self.vertices:
            return False
        bounded = [
            (index, lower, upper)
            for index, (lower, upper) in enumerate(self.box())
            if lower is not None or upper is not None
        ]
        if not bounded:
            return False
        size = len(self.variables)
        for line in other.lines:
            if any(line[index] for index, _, _ in bounded):
                return True
        for ray in other.rays:
            for index, lower, upper in bounded:
                value = ray[index]
                if (value > 0 and upper is not None) or (
                    value < 0 and lower is not None
                ):
                    return True
        for vertex in other.vertices:
            weight = vertex[size]
            for index, lower, upper in bounded:
                # vertex[index] / weight against numerator / denominator.
                value = vertex[index]
                if upper is not None and value * upper[1] > upper[0] * weight:
                    return True
                if lower is not None and value * lower[1] < lower[0] * weight:
                    return True
        return False

    def has_rows_of(self, other: "GeneratorSystem") -> bool:
        """Whether every generator of *other* is one of this system's: each
        vertex a vertex, each ray a ray or a line either way, and each
        line a line either way.  Rows are primitive, so equal generators
        are equal tuples, and ``True`` proves ``other ⊆ self``; ``False``
        decides nothing.
        """
        if not set(self.vertices).issuperset(other.vertices):
            return False
        if not other.rays and not other.lines:
            return True
        lines = set(self.lines)
        lines.update(tuple(-value for value in line) for line in self.lines)
        return lines.issuperset(other.lines) and lines.union(
            self.rays
        ).issuperset(other.rays)

    def is_full_dimensional(self) -> bool:
        """Whether the generated polyhedron has affine dimension
        ``len(variables)``: its rows have full rank."""
        if not self.vertices:
            return False
        size = len(self.variables) + 1
        return integer_rank(self.vertices + self.rays + self.lines, size) == size

    def affine_image(
        self, variables: Sequence[str], outputs: Sequence[Output]
    ) -> "GeneratorSystem":
        """Generators of the image of the polyhedron under an affine map.

        ``outputs[j]`` defines coordinate ``j`` of the image (over
        *variables*): an ``int`` copies that input coordinate, a pair
        ``(terms, constant)`` is ``Σ c·x[k] + constant`` over the
        ``(k, c)`` in *terms*, and ``None`` leaves the coordinate
        unconstrained (it gets a line).  On a row ``(x, w)`` the map is
        ``(Σ c·x[k] + constant·w, w)``, which is the affine map on
        vertices and its linear part on directions (``w = 0``).  Scaled
        by the common denominator of the map, it stays in integers;
        directions it sends to zero are dropped.
        """
        affine = [
            output
            for output in outputs
            if output is not None and not isinstance(output, int)
        ]
        denominator = lcm(
            *(constant.denominator for _, constant in affine),
            *(value.denominator for terms, _ in affine for _, value in terms),
        )
        # Per output, its ``(terms, constant)`` times *denominator*, in
        # integers; a copy is one term and ``None`` the zero form.
        scaled: List[Tuple[List[Tuple[int, int]], int]] = []
        for output in outputs:
            if output is None:
                scaled.append(([], 0))
            elif isinstance(output, int):
                scaled.append(([(output, denominator)], 0))
            else:
                terms, constant = output
                scaled.append(
                    (
                        [(index, int(value * denominator)) for index, value in terms],
                        int(constant * denominator),
                    )
                )
        weight = len(self.variables)

        def image(rows: List[Row]) -> List[Row]:
            result: List[Row] = []
            for row in rows:
                entries = [
                    sum(value * row[index] for index, value in terms)
                    + constant * row[weight]
                    for terms, constant in scaled
                ]
                entries.append(denominator * row[weight])
                divisor = gcd(*entries)
                if divisor:
                    result.append(tuple(value // divisor for value in entries))
            return result

        size = len(outputs)
        free = [
            tuple(int(index == position) for index in range(size + 1))
            for position, output in enumerate(outputs)
            if output is None
        ]
        return GeneratorSystem(
            tuple(variables),
            _unique(image(self.vertices)),
            _unique(image(self.rays)),
            _unique(free + image(self.lines)),
        )

    def merge(self, other: "GeneratorSystem") -> "GeneratorSystem":
        """Union of the two generator sets (generates the convex hull)."""
        if self.variables != other.variables:
            raise ValueError("generator systems over different variables")
        return GeneratorSystem(
            self.variables,
            _unique(self.vertices + other.vertices),
            _unique(self.rays + other.rays),
            _unique(self.lines + other.lines),
        )


def integer_rank(
    rows: Iterable[Sequence[int]], limit: Optional[int] = None
) -> int:
    """Rank of a family of integer vectors, by fraction-free elimination.

    Stops as soon as the rank reaches *limit* (when given).
    """
    basis: List[Tuple[int, List[int]]] = []
    for row in rows:
        reduced = list(row)
        for pivot, base in basis:
            value = reduced[pivot]
            if value:
                head = base[pivot]
                reduced = [
                    head * mine - value * theirs
                    for mine, theirs in zip(reduced, base)
                ]
        pivot = next(
            (index for index, value in enumerate(reduced) if value), None
        )
        if pivot is None:
            continue
        divisor = gcd(*reduced)
        if divisor > 1:
            reduced = [value // divisor for value in reduced]
        basis.append((pivot, reduced))
        if limit is not None and len(basis) >= limit:
            break
    return len(basis)


def _unique(rows: List[Row]) -> List[Row]:
    """*rows* without repeats, in first-seen order."""
    return list(dict.fromkeys(rows))
