"""The span of a family of exact rational vectors.

The synthesiser needs only two questions about a family of stacked
vectors: whether a vector lies in its span (the flat basis ``B`` and the
independence test of Theorem 1), and a basis of its orthogonal
complement (which turns the ``AvoidSpace(u, B)`` condition of the paper,
§4.1, into linear dis-equalities).  :class:`Span` answers both from the
reduced row echelon form (RREF) of the family, which it extends in place.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from typing import Iterable, List

from repro.linalg.vector import Vector


class Span:
    """``span(family)`` in ``Q^dimension``, kept in reduced row echelon form.

    A subspace has exactly one RREF, so everything read off it (the
    membership test, :meth:`complement`) depends on the span only, not
    on the vectors that built it or their order.
    """

    __slots__ = ("dimension", "_pivots", "_rows")

    def __init__(self, dimension: int, family: Iterable[Vector] = ()):
        self.dimension = dimension
        #: Pivot columns in increasing order, and the RREF row of each.
        self._pivots: List[int] = []
        self._rows: List[List[Fraction]] = []
        for vector in family:
            self.add(vector)

    def __len__(self) -> int:
        """The dimension of the span."""
        return len(self._rows)

    def _reduce(self, vector: Vector) -> List[Fraction]:
        """*vector* minus its part along the span: 0 at every pivot."""
        if len(vector) != self.dimension:
            raise ValueError(
                "dimension mismatch: %d vs %d" % (len(vector), self.dimension)
            )
        entries = list(vector)
        for pivot, row in zip(self._pivots, self._rows):
            factor = entries[pivot]
            if factor:
                entries = [a - factor * b for a, b in zip(entries, row)]
        return entries

    def __contains__(self, vector: Vector) -> bool:
        return not any(self._reduce(vector))

    def add(self, vector: Vector) -> bool:
        """Extend the span by *vector*; whether it grew."""
        entries = self._reduce(vector)
        pivot = next((i for i, entry in enumerate(entries) if entry), None)
        if pivot is None:
            return False
        scale = entries[pivot]
        entries = [entry / scale for entry in entries]
        for index, row in enumerate(self._rows):
            factor = row[pivot]
            if factor:
                self._rows[index] = [a - factor * b for a, b in zip(row, entries)]
        position = bisect(self._pivots, pivot)
        self._pivots.insert(position, pivot)
        self._rows.insert(position, entries)
        return True

    def complement(self) -> List[Vector]:
        """A basis of the orthogonal complement, one vector per free column.

        ``u`` lies in the span iff ``n · u = 0`` for every returned
        ``n``; the ``AvoidSpace(u, B)`` formula of the paper is therefore
        the disjunction of the dis-equalities ``n · u ≠ 0``.
        """
        pivots = set(self._pivots)
        basis: List[Vector] = []
        for free in range(self.dimension):
            if free in pivots:
                continue
            entries = [Fraction(0)] * self.dimension
            entries[free] = Fraction(1)
            for pivot, row in zip(self._pivots, self._rows):
                entries[pivot] = -row[free]
            basis.append(Vector(entries))
        return basis


def orthogonal_complement(family: Iterable[Vector], dimension: int) -> List[Vector]:
    """A basis of the orthogonal complement of ``span(family)`` in ``Q^dimension``."""
    return Span(dimension, family).complement()


def in_span(vector: Vector, family: Iterable[Vector]) -> bool:
    """Whether *vector* lies in the linear span of *family*."""
    return vector in Span(len(vector), family)
