"""Exact rational linear algebra: vectors and spans.

Everything in this package works over :class:`fractions.Fraction` so that
the whole toolchain (LP, SMT, polyhedra, ranking-function synthesis) is
exact: a ranking function reported by the library is a genuine certificate,
not a floating-point approximation.  A dense :class:`Vector` is the one
form of the stacked ``u`` space of the synthesiser, a :class:`Span` its
one subspace helper, and a :class:`SparseRow` the constraint row of the
simplex, Fourier–Motzkin, double-description and Farkas kernels.
"""

from repro.linalg.rational import (
    Rat,
    as_fraction,
    fraction_gcd,
    integer_normalize,
)
from repro.linalg.sparse import SparseRow
from repro.linalg.vector import Vector
from repro.linalg.matrix import Span, in_span, orthogonal_complement

__all__ = [
    "Rat",
    "as_fraction",
    "fraction_gcd",
    "integer_normalize",
    "SparseRow",
    "Vector",
    "Span",
    "in_span",
    "orthogonal_complement",
]
