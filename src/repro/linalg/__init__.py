"""Exact rational linear algebra.

Everything in this package works over :class:`fractions.Fraction` so that
the whole toolchain (LP, SMT, polyhedra, ranking-function synthesis) is
exact: a ranking function reported by the library is a genuine certificate,
not a floating-point approximation.
"""

from repro.linalg.rational import (
    Rat,
    as_fraction,
    fraction_gcd,
    integer_normalize,
)
from repro.linalg.sparse import SparseRow
from repro.linalg.vector import Vector
from repro.linalg.matrix import (
    Matrix,
    complete_basis,
    in_span,
    linearly_independent,
    orthogonal_complement,
)

__all__ = [
    "Rat",
    "as_fraction",
    "fraction_gcd",
    "integer_normalize",
    "SparseRow",
    "Vector",
    "Matrix",
    "complete_basis",
    "in_span",
    "linearly_independent",
    "orthogonal_complement",
]
