"""Double-description (Chernikova) conversion between representations.

The core routine, :func:`cone_double_description`, incrementally intersects
the full space with homogeneous half-spaces ``a·y ≤ 0`` while maintaining a
generating system of lines and rays.  Polyhedra are handled through the
usual homogenisation ``x ↦ (x, t)``: a generator with ``t > 0`` is a vertex
(the point ``x / t``) and a generator with ``t = 0`` is a ray.  The
conversions build their half-spaces as primitive integer rows straight
from normalised constraints and from the generators' rows, and DD's own
primitive output rows are the generators it returns.

The adjacency test used when combining rays is the combinatorial one
(zero-set inclusion); each ray's zero set against the half-spaces already
processed is kept as a bit mask and updated step by step.  In degenerate
situations the output may contain a few redundant generators.  That is
harmless for every use in this library: consumers deduplicate, test
membership generator by generator, or decide redundancy from the
generators' saturation sets (:func:`repro.polyhedra.projection.remove_redundant`),
which redundant generators do not change.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.linalg.sparse import SparseRow
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.polyhedra.generators import GeneratorSystem, Row

_ZERO = Fraction(0)


def cone_double_description(
    rows: Sequence[Tuple[Sequence[Fraction], bool]], dimension: int
) -> Tuple[List[Row], List[Row]]:
    """Generators of the cone ``{y | a·y ≤ 0 (rows), a·y = 0 (equalities)}``.

    *rows* is a sequence of ``(a, is_equality)`` pairs.  Returns
    ``(lines, rays)``, primitive integer tuples, such that the cone equals
    ``span(lines) + cone(rays)``.
    """
    halfspaces: List[SparseRow] = []
    for normal, is_equality in rows:
        if len(normal) != dimension:
            raise ValueError("constraint normal has wrong dimension")
        row = SparseRow.from_dense(normal).normalized_direction()
        halfspaces.append(row)
        if is_equality:
            halfspaces.append(-row)
    lines, rays = _double_description(halfspaces, dimension)
    return (
        [_dense_row(line, dimension) for line in lines],
        [_dense_row(ray, dimension) for ray in rays],
    )


def _double_description(
    halfspaces: Sequence[SparseRow], dimension: int
) -> Tuple[List[SparseRow], List[SparseRow]]:
    """The lines and extreme rays of ``{y | h·y ≤ 0 for h in halfspaces}``.

    Normals and generators are primitive-integer
    :class:`~repro.linalg.sparse.SparseRow` vectors, so the inner loops
    (dot-product sign tests, ray combination) run on machine integers;
    generators are scale-invariant, which makes the integer dot
    *numerators* directly usable as combination coefficients.  Each
    ray's zero set -- the processed half-spaces it saturates -- is kept
    as a bit mask and updated as the half-spaces are added.
    """
    lines: List[SparseRow] = [SparseRow((i,), (1,)) for i in range(dimension)]
    #: Each ray with its zero set, in order (a ray appears once).
    rays: Dict[SparseRow, int] = {}

    for index, normal in enumerate(halfspaces):
        bit = 1 << index

        # ---- Case 1: some line does not lie in the hyperplane. -----------
        # All generators are kept at denominator 1, so ``dot_numerator``
        # is the dot product up to the (positive) normal denominator —
        # exactly what sign tests and scale-invariant combinations need.
        pivot_line: Optional[SparseRow] = None
        value = 0
        for line in lines:
            scalar = normal.dot_numerator(line)
            if scalar != 0:
                pivot_line = line
                value = scalar
                break
        if pivot_line is not None:
            if value > 0:
                pivot_line = -pivot_line
                value = -value
            new_lines: List[SparseRow] = []
            for line in lines:
                scalar = normal.dot_numerator(line)
                if scalar == 0:
                    new_lines.append(line)
                    continue
                if line is pivot_line:
                    continue
                # line − (scalar / value) · pivot, scaled by −value > 0.
                projected = line.combine_int(-value, pivot_line, scalar)
                if not projected.is_zero():
                    new_lines.append(projected.normalized_direction())
            # Lines lie in every processed hyperplane, so moving a ray
            # along the pivot keeps its zero set; it now also saturates
            # this half-space.
            new_rays: Dict[SparseRow, int] = {}
            for ray, zeros in rays.items():
                scalar = normal.dot_numerator(ray)
                if scalar != 0:
                    ray = ray.combine_int(-value, pivot_line, scalar)
                    if ray.is_zero():
                        continue
                    ray = ray.normalized_direction()
                new_rays.setdefault(ray, zeros | bit)
            # The pivot line survives as a ray strictly inside the half-space.
            new_rays.setdefault(pivot_line, bit - 1)
            lines = new_lines
            rays = new_rays
            continue

        # ---- Case 2: all lines lie in the hyperplane; split the rays. ----
        satisfied: List[Tuple[SparseRow, int]] = []
        tight: List[SparseRow] = []
        violated: List[Tuple[SparseRow, int]] = []
        for ray in rays:
            scalar = normal.dot_numerator(ray)
            if scalar < 0:
                satisfied.append((ray, scalar))
            elif scalar == 0:
                tight.append(ray)
            else:
                violated.append((ray, scalar))

        if not violated:
            for ray in tight:
                rays[ray] |= bit
            continue

        masks = list(rays.values())
        combined: List[Tuple[SparseRow, int]] = []
        for plus, plus_value in violated:
            plus_zeros = rays[plus]
            for minus, minus_value in satisfied:
                # Combinatorial adjacency: no third ray saturates every
                # half-space both of them saturate.
                common = plus_zeros & rays[minus]
                covering = 0
                for zeros in masks:
                    if not common & ~zeros:
                        covering += 1
                        if covering > 2:  # plus, minus and a third ray
                            break
                if covering > 2:
                    continue
                new_ray = minus.combine_int(plus_value, plus, -minus_value)
                if not new_ray.is_zero():
                    combined.append((new_ray.normalized_direction(), common | bit))

        new_rays = {}
        for ray, _ in satisfied:
            new_rays[ray] = rays[ray]
        for ray in tight:
            new_rays.setdefault(ray, rays[ray] | bit)
        for ray, zeros in combined:
            new_rays.setdefault(ray, zeros)
        rays = new_rays

    return lines, list(rays)


# ---------------------------------------------------------------------------
# Polyhedron-level conversions via homogenisation
# ---------------------------------------------------------------------------


def constraints_to_generators(
    constraints: Sequence[Constraint], variables: Sequence[str]
) -> GeneratorSystem:
    """Generator system of ``{x | constraints}`` over the given variables.

    Strict inequalities are relaxed to their closures: the paper's
    polyhedra are closed (Definition 1), and callers normalise strict
    guards on integer variables beforehand.
    """
    ordering = tuple(variables)
    size = len(ordering)
    position = {name: index for index, name in enumerate(ordering)}

    halfspaces: List[SparseRow] = []
    for constraint in constraints:
        row = _constraint_row(constraint, position, size)
        halfspaces.append(row)
        if constraint.is_equality():
            halfspaces.append(-row)
    # t ≥ 0, i.e. -t ≤ 0 (the homogenising coordinate comes last).
    halfspaces.append(SparseRow((size,), (-1,)))

    lines, rays = _double_description(halfspaces, size + 1)

    vertices: List[Row] = []
    spatial_rays: List[Row] = []
    for ray in rays:
        if ray.numerator_at(size) > 0:
            vertices.append(_dense_row(ray, size + 1))
        elif ray.indices[0] < size:
            spatial_rays.append(_dense_row(ray, size + 1))
    if not vertices:
        # Without a single point the polyhedron is empty: drop the stray
        # recession directions.
        return GeneratorSystem(ordering)
    # The homogenising coordinate of a line must be zero because t ≥ 0.
    spatial_lines = [
        _dense_row(line, size + 1) for line in lines if line.indices[0] < size
    ]
    return GeneratorSystem(ordering, vertices, spatial_rays, spatial_lines)


def generators_to_constraints(system: GeneratorSystem) -> List[Constraint]:
    """Facet constraints of the polyhedron generated by *system*.

    Works by double description on the polar: a valid constraint
    ``a·x ≤ b`` corresponds to a vector ``(a, -b)`` in the polar of the
    homogenised cone, whose extreme rays are exactly the facets.
    """
    ordering = system.variables
    if system.is_empty():
        # The canonical representation of the empty polyhedron.
        return [Constraint(LinExpr.constant(1), Relation.LE)]

    halfspaces: List[SparseRow] = []
    for generator in system.vertices + system.rays:
        halfspaces.append(_integer_row(generator))
    for line in system.lines:
        row = _integer_row(line)
        halfspaces.append(row)
        halfspaces.append(-row)

    polar_lines, polar_rays = _double_description(halfspaces, len(ordering) + 1)

    constraints: List[Constraint] = []
    for line in polar_lines:
        constraint = _row_to_constraint(line, ordering, Relation.EQ)
        if constraint is not None:
            constraints.append(constraint)
    for ray in polar_rays:
        constraint = _row_to_constraint(ray, ordering, Relation.LE)
        if constraint is not None:
            constraints.append(constraint)
    return constraints


def _constraint_row(
    constraint: Constraint, position: Dict[str, int], size: int
) -> SparseRow:
    """The primitive integer normal ``(a, c)`` of ``a·x + c ⋈ 0``."""
    expr = constraint.expr
    pairs = sorted(
        (position[name], value) for name, value in expr.terms.items()
    )
    if expr.constant_term:
        pairs.append((size, expr.constant_term))
    if all(value.denominator == 1 for _, value in pairs):
        return SparseRow(
            [index for index, _ in pairs],
            [value.numerator for _, value in pairs],
        ).normalized_direction()
    return SparseRow.from_pairs(pairs).normalized_direction()


def _integer_row(values: Sequence[int]) -> SparseRow:
    """A dense primitive integer vector as a sparse row."""
    indices = [index for index, value in enumerate(values) if value]
    return SparseRow(indices, [values[index] for index in indices])


def _dense_row(row: SparseRow, size: int) -> Row:
    """An integer sparse row as a dense tuple of *size* integers."""
    values = [0] * size
    for index, numerator in row.iter_scaled():
        values[index] = numerator
    return tuple(values)


def _row_to_constraint(
    row: SparseRow, ordering: Sequence[str], relation: Relation
) -> Optional[Constraint]:
    """The interned constraint of a primitive polar row ``(a, c)``, which
    is already in canonical form; ``None`` for a trivially true one."""
    size = len(ordering)
    coefficients: Dict[str, Fraction] = {}
    constant = _ZERO
    for index, numerator in row.iter_scaled():
        if index < size:
            coefficients[ordering[index]] = Fraction(numerator)
        else:
            constant = Fraction(numerator)
    constraint = Constraint.canonical(LinExpr(coefficients, constant), relation)
    if not coefficients and constraint.is_trivially_true():
        return None
    return constraint
