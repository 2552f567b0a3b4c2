"""Generator systems: vertices, rays and lines of a closed convex polyhedron.

This is the representation of Definition 3 of the paper: every point of the
polyhedron is a convex combination of the vertices plus a nonnegative
combination of the rays plus an arbitrary combination of the lines.

The polyhedral domain computes on this representation directly: an affine
map sends generators to generators of the image
(:meth:`GeneratorSystem.affine_image`), the affine dimension of the
polyhedron, or of one of its faces, is the rank of the homogenised
generators (:func:`integer_rank`), and a generator of one system outside
the bounding box of another refutes inclusion without a constraint
(:meth:`GeneratorSystem.box_excludes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.linalg.vector import Vector


#: How :meth:`GeneratorSystem.affine_image` defines one image coordinate.
Output = Optional[Union[int, Tuple[Sequence[Tuple[int, Fraction]], Fraction]]]

#: Integer vertices, rays and lines of :meth:`GeneratorSystem.homogenized`.
Homogenized = Tuple[List[List[int]], List[List[int]], List[List[int]]]

#: One side of a coordinate's range: the bound ``numerator / denominator``
#: (``denominator > 0``), or ``None`` when the side is unbounded.
Bound = Optional[Tuple[int, int]]

_ZERO = Fraction(0)


@dataclass
class GeneratorSystem:
    """Vertices, rays and lines of a polyhedron in a fixed variable order."""

    variables: Tuple[str, ...]
    vertices: List[Vector] = field(default_factory=list)
    rays: List[Vector] = field(default_factory=list)
    lines: List[Vector] = field(default_factory=list)
    _homogenized: Optional[Homogenized] = field(
        default=None, init=False, repr=False, compare=False
    )
    _box: Optional[List[Tuple[Bound, Bound]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def is_empty(self) -> bool:
        """A polyhedron is empty iff it has no vertex: rays and lines alone
        generate no point."""
        return not self.vertices

    def homogenized(self) -> Homogenized:
        """Vertices ``(v, 1)``, rays ``(r, 0)`` and lines ``(l, 0)`` as
        primitive integer vectors (each scaled by a positive factor).

        Memoised: a generator system is not mutated once it is built.
        """
        if self._homogenized is None:
            self._homogenized = (
                [_integer_vector(vertex, 1) for vertex in self.vertices],
                [_integer_vector(ray, 0) for ray in self.rays],
                [_integer_vector(line, 0) for line in self.lines],
            )
        return self._homogenized

    def renamed(self, variables: Sequence[str]) -> "GeneratorSystem":
        """The same generators over new variable names (memos included)."""
        result = GeneratorSystem(
            tuple(variables), self.vertices, self.rays, self.lines
        )
        result._homogenized = self._homogenized
        result._box = self._box
        return result

    def box(self) -> List[Tuple[Bound, Bound]]:
        """Per coordinate, the exact ``(lower, upper)`` bounds of the
        nonempty generated polyhedron, read off the homogenised rows: a
        side is bounded unless a ray points along it or a line moves the
        coordinate, and then it is the extreme vertex value.  Memoised.
        """
        if self._box is None:
            vertices, rays, lines = self.homogenized()
            size = len(self.variables)
            box: List[Tuple[Bound, Bound]] = []
            for index in range(size):
                if any(line[index] for line in lines):
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
                if any(ray[index] < 0 for ray in rays):
                    low = None
                if any(ray[index] > 0 for ray in rays):
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
        vertices, rays, lines = other.homogenized()
        for line in lines:
            if any(line[index] for index, _, _ in bounded):
                return True
        for ray in rays:
            for index, lower, upper in bounded:
                value = ray[index]
                if (value > 0 and upper is not None) or (
                    value < 0 and lower is not None
                ):
                    return True
        for vertex in vertices:
            weight = vertex[size]
            for index, lower, upper in bounded:
                # vertex[index] / weight against numerator / denominator.
                value = vertex[index]
                if upper is not None and value * upper[1] > upper[0] * weight:
                    return True
                if lower is not None and value * lower[1] < lower[0] * weight:
                    return True
        return False

    def is_full_dimensional(self) -> bool:
        """Whether the generated polyhedron has affine dimension
        ``len(variables)``: its homogenised generators have full rank."""
        if not self.vertices:
            return False
        vertices, rays, lines = self.homogenized()
        size = len(self.variables) + 1
        return integer_rank(vertices + rays + lines, size) == size

    def affine_image(
        self, variables: Sequence[str], outputs: Sequence[Output]
    ) -> "GeneratorSystem":
        """Generators of the image of the polyhedron under an affine map.

        ``outputs[j]`` defines coordinate ``j`` of the image (over
        *variables*): an ``int`` copies that input coordinate, a pair
        ``(terms, constant)`` is ``Σ c·x[k] + constant`` over the
        ``(k, c)`` in *terms*, and ``None`` leaves the coordinate
        unconstrained (it gets a line).  Vertices go through the affine
        map, rays and lines through its linear part; directions it sends
        to zero are dropped.
        """

        def image(vector: Vector, constant_weight: int) -> List[Fraction]:
            entries = vector.entries()
            result: List[Fraction] = []
            for output in outputs:
                if output is None:
                    result.append(_ZERO)
                elif isinstance(output, int):
                    result.append(entries[output])
                else:
                    terms, constant = output
                    value = constant if constant_weight else _ZERO
                    for index, coefficient in terms:
                        value += coefficient * entries[index]
                    result.append(value)
            return result

        def directions(vectors: List[Vector]) -> List[Vector]:
            mapped = [Vector(image(vector, 0)) for vector in vectors]
            return _dedupe_directions(
                [vector for vector in mapped if not vector.is_zero()]
            )

        size = len(outputs)
        free = [
            Vector.unit(size, position)
            for position, output in enumerate(outputs)
            if output is None
        ]
        return GeneratorSystem(
            tuple(variables),
            _dedupe_points([Vector(image(vertex, 1)) for vertex in self.vertices]),
            directions(self.rays),
            free + directions(self.lines),
        )

    def all_ray_like(self) -> List[Vector]:
        """Rays plus both orientations of every line."""
        result = list(self.rays)
        for line in self.lines:
            result.append(line)
            result.append(-line)
        return result

    def difference_generators(self) -> List[Tuple[str, Vector]]:
        """Generators tagged as ``("vertex", v)`` or ``("ray", r)``.

        Lines are reported as a pair of opposite rays, which is how the
        synthesiser consumes them (a line forces ``λ·l = 0``).
        """
        tagged: List[Tuple[str, Vector]] = []
        for vertex in self.vertices:
            tagged.append(("vertex", vertex))
        for ray in self.all_ray_like():
            tagged.append(("ray", ray))
        return tagged

    def scale(self, factor: Fraction) -> "GeneratorSystem":
        """Scale every generator (factor must be positive)."""
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return GeneratorSystem(
            self.variables,
            [vertex * factor for vertex in self.vertices],
            [ray * factor for ray in self.rays],
            list(self.lines),
        )

    def merge(self, other: "GeneratorSystem") -> "GeneratorSystem":
        """Union of the two generator sets (generates the convex hull)."""
        if self.variables != other.variables:
            raise ValueError("generator systems over different variables")
        return GeneratorSystem(
            self.variables,
            _dedupe_points(self.vertices + other.vertices),
            _dedupe_directions(self.rays + other.rays),
            _dedupe_directions(self.lines + other.lines),
        )

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        """Membership test by solving the barycentric LP."""
        from repro.linexpr.expr import LinExpr
        from repro.lp.simplex import check_feasibility

        target = Vector(point)
        constraints = []
        alpha = ["alpha_%d" % i for i in range(len(self.vertices))]
        beta = ["beta_%d" % i for i in range(len(self.rays))]
        gamma_pos = ["gammap_%d" % i for i in range(len(self.lines))]
        gamma_neg = ["gamman_%d" % i for i in range(len(self.lines))]
        for name in alpha + beta + gamma_pos + gamma_neg:
            constraints.append(LinExpr.variable(name) >= 0)
        if alpha:
            constraints.append(
                LinExpr.from_terms([(name, 1) for name in alpha]).eq(1)
            )
        else:
            return False  # no vertex: the empty polyhedron
        for coordinate in range(self.dimension):
            combination = LinExpr()
            for name, vertex in zip(alpha, self.vertices):
                combination = combination + LinExpr.variable(name) * vertex[coordinate]
            for name, ray in zip(beta, self.rays):
                combination = combination + LinExpr.variable(name) * ray[coordinate]
            for pos, neg, line in zip(gamma_pos, gamma_neg, self.lines):
                combination = combination + LinExpr.variable(pos) * line[coordinate]
                combination = combination - LinExpr.variable(neg) * line[coordinate]
            constraints.append(combination.eq(target[coordinate]))
        return check_feasibility(constraints).is_optimal


def _integer_vector(vector: Vector, weight: int) -> List[int]:
    """``(vector, weight)`` scaled to a primitive integer vector."""
    entries = list(vector.entries())
    scale = 1
    for entry in entries:
        denominator = entry.denominator
        if denominator != 1:
            scale = scale * denominator // gcd(scale, denominator)
    row = [entry.numerator * (scale // entry.denominator) for entry in entries]
    row.append(weight * scale)
    divisor = gcd(*row)
    if divisor > 1:
        row = [value // divisor for value in row]
    return row


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


def _dedupe_points(vectors: List[Vector]) -> List[Vector]:
    """Remove exact duplicates (vertices are points, scaling changes them)."""
    seen = set()
    result = []
    for vector in vectors:
        if vector not in seen:
            seen.add(vector)
            result.append(vector)
    return result


def _dedupe_directions(vectors: List[Vector]) -> List[Vector]:
    """Remove duplicates up to positive scaling (rays and lines are directions)."""
    seen = set()
    result = []
    for vector in vectors:
        key = vector.normalized() if not vector.is_zero() else vector
        if key not in seen:
            seen.add(key)
            result.append(vector)
    return result
