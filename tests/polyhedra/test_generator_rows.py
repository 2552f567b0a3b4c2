"""The integer row arithmetic of generator systems against a Fraction reference.

A :class:`GeneratorSystem` keeps each generator as its homogenised primitive
integer row.  ``affine_image`` maps the rows in integers and ``merge``
deduplicates them as tuples.  Over random systems (lower-dimensional ones,
rays, lines and zero directions included) and random affine maps (copies,
affine terms with fractional coefficients and unconstrained outputs), both
must equal the reference below, row for row and in order.  The reference
maps the generators as :class:`Fraction` points and directions, drops the
directions the map sends to zero, deduplicates points exactly and
directions up to positive scaling, and only then builds the rows.  Every row that the double
description conversions, ``affine_image`` and ``merge`` produce is primitive,
with a positive weight on a vertex and a zero weight on a direction.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.polyhedra.dd import cone_double_description, constraints_to_generators
from tests.polyhedra.generator_rows import generator_system

small = st.integers(min_value=-3, max_value=3)
fractions = st.builds(Fraction, small, st.sampled_from([1, 2, 3]))


@st.composite
def coordinate_systems(draw, size):
    """Points and directions over *size* coordinates; a flattening puts
    every generator on the hyperplane ``x[0] = 0`` or the line of equal
    coordinates."""
    vector = st.lists(fractions, min_size=size, max_size=size)
    direction = st.lists(small, min_size=size, max_size=size)
    vertices = draw(st.lists(vector, max_size=3))
    rays = draw(st.lists(direction, max_size=2))
    lines = draw(st.lists(direction, max_size=2))
    flatten = draw(st.sampled_from([None, None, "plane", "diagonal"]))
    if flatten == "plane":
        vertices, rays, lines = (
            [[0] + list(v[1:]) for v in group] for group in (vertices, rays, lines)
        )
    elif flatten == "diagonal":
        vertices, rays, lines = (
            [[v[0]] * size for v in group] for group in (vertices, rays, lines)
        )
    return vertices, rays, lines


@st.composite
def outputs(draw, size):
    """An affine map from *size* coordinates: per output a copy, an affine
    form with fractional coefficients, or ``None``."""
    result = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["copy", "affine", "affine", "free"]))
        if kind == "copy":
            result.append(draw(st.integers(min_value=0, max_value=size - 1)))
        elif kind == "affine":
            terms = draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=size - 1), fractions
                    ),
                    max_size=3,
                )
            )
            result.append((terms, draw(fractions)))
        else:
            result.append(None)
    return result


def points(rows):
    return [[Fraction(value, row[-1]) for value in row[:-1]] for row in rows]


def directions(rows):
    return [[Fraction(value) for value in row[:-1]] for row in rows]


def direction_key(vector):
    """*vector* divided by the absolute value of its first nonzero entry
    (a zero vector is its own key)."""
    head = next((abs(value) for value in vector if value), 1)
    return tuple(value / head for value in vector)


def unique_points(vectors):
    return [list(vector) for vector in dict.fromkeys(map(tuple, vectors))]


def unique_directions(vectors):
    kept = {}
    for vector in vectors:
        kept.setdefault(direction_key(vector), vector)
    return list(kept.values())


def reference_image(system, variables, outputs):
    def image(vector, weight):
        result = []
        for output in outputs:
            if output is None:
                result.append(Fraction(0))
            elif isinstance(output, int):
                result.append(vector[output])
            else:
                terms, constant = output
                value = constant * weight
                for index, coefficient in terms:
                    value += coefficient * vector[index]
                result.append(value)
        return result

    def mapped(vectors):
        return [
            vector for vector in (image(other, 0) for other in vectors) if any(vector)
        ]

    size = len(outputs)
    free = [
        [int(index == position) for index in range(size)]
        for position, output in enumerate(outputs)
        if output is None
    ]
    return generator_system(
        variables,
        unique_points(image(vertex, 1) for vertex in points(system.vertices)),
        unique_directions(mapped(directions(system.rays))),
        free + unique_directions(mapped(directions(system.lines))),
    )


def reference_merge(first, second):
    return generator_system(
        first.variables,
        unique_points(points(first.vertices) + points(second.vertices)),
        unique_directions(directions(first.rays) + directions(second.rays)),
        unique_directions(directions(first.lines) + directions(second.lines)),
    )


def assert_primitive_rows(system):
    """Each row is primitive, vertices weigh more than 0, directions 0."""
    for row in system.vertices:
        assert row[-1] > 0 and gcd(*row) == 1
    for row in system.rays + system.lines:
        assert row[-1] == 0 and gcd(*row) == 1


def rows_of(system):
    return (system.vertices, system.rays, system.lines)


@st.composite
def image_cases(draw):
    size = draw(st.integers(min_value=1, max_value=3))
    system = generator_system(
        ("a", "b", "c")[:size], *draw(coordinate_systems(size))
    )
    return system, draw(outputs(size))


@given(image_cases())
@settings(max_examples=400, deadline=None)
def test_affine_image_equals_the_fraction_reference(case):
    system, outputs = case
    variables = tuple("y%d" % index for index in range(len(outputs)))
    image = system.affine_image(variables, outputs)
    assert rows_of(image) == rows_of(reference_image(system, variables, outputs))
    assert image.variables == variables
    assert_primitive_rows(image)


@st.composite
def merge_cases(draw):
    size = draw(st.integers(min_value=1, max_value=3))
    variables = ("a", "b", "c")[:size]
    first = generator_system(variables, *draw(coordinate_systems(size)))
    second = generator_system(variables, *draw(coordinate_systems(size)))
    return first, second


@given(merge_cases())
@settings(max_examples=300, deadline=None)
def test_merge_equals_the_fraction_reference(case):
    first, second = case
    assert rows_of(first.merge(second)) == rows_of(reference_merge(first, second))


@st.composite
def constraint_systems(draw):
    variables = ("a", "b", "c")
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        coefficients = draw(st.lists(fractions, min_size=3, max_size=3))
        expr = LinExpr.from_terms(zip(variables, coefficients)) + draw(fractions)
        rows.append(
            Constraint(expr, draw(st.sampled_from([Relation.LE] * 4 + [Relation.EQ])))
        )
    return rows


@given(constraint_systems(), constraint_systems())
@settings(max_examples=200, deadline=None)
def test_double_description_rows_are_primitive(first, second):
    variables = ("a", "b", "c")
    mine = constraints_to_generators(first, variables)
    theirs = constraints_to_generators(second, variables)
    for system in (mine, theirs, mine.merge(theirs)):
        assert_primitive_rows(system)
    lines, rays = cone_double_description(
        [
            ([constraint.expr.coefficient(name) for name in variables], False)
            for constraint in first
        ],
        3,
    )
    for row in lines + rays:
        assert isinstance(row, tuple) and len(row) == 3 and gcd(*row) == 1
