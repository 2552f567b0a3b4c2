"""Generator systems from coordinates, for the tests.

A :class:`~repro.polyhedra.generators.GeneratorSystem` holds each generator
as its homogenised primitive integer row: ``(c, w)`` with ``w > 0`` for the
vertex ``c / w`` and ``(d, 0)`` for a direction ``d``.  Tests write points
and directions as coordinates and build the rows here.
"""

from fractions import Fraction
from math import gcd
from typing import Sequence, Tuple

from repro.polyhedra.generators import GeneratorSystem


def integer_row(coordinates: Sequence, weight: int) -> Tuple[int, ...]:
    """``(coordinates, weight)`` scaled by a positive factor to a primitive
    integer row; a zero direction stays zero."""
    entries = [Fraction(value) for value in coordinates]
    scale = 1
    for entry in entries:
        scale = scale * entry.denominator // gcd(scale, entry.denominator)
    row = [int(entry * scale) for entry in entries] + [weight * scale]
    divisor = gcd(*row)
    if divisor > 1:
        row = [value // divisor for value in row]
    return tuple(row)


def generator_system(variables, vertices=(), rays=(), lines=()):
    """The system of the given points and directions, in order."""
    return GeneratorSystem(
        tuple(variables),
        [integer_row(vertex, 1) for vertex in vertices],
        [integer_row(ray, 0) for ray in rays],
        [integer_row(line, 0) for line in lines],
    )
