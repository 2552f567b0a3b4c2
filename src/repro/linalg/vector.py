"""Dense exact rational vectors.

:class:`Vector` is an immutable fixed-length sequence of
:class:`fractions.Fraction` with the usual vector-space operations plus the
dot product and a few normalisation helpers that the polyhedra and ranking
code rely on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from repro.linalg.rational import Rat, as_fraction, integer_normalize


class Vector:
    """An immutable vector of exact rationals."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Rat]):
        self._entries = tuple(as_fraction(entry) for entry in entries)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, size: int) -> "Vector":
        """The zero vector of dimension *size*."""
        return cls([Fraction(0)] * size)

    @classmethod
    def unit(cls, size: int, index: int, value: Rat = 1) -> "Vector":
        """The vector with *value* at *index* and zero elsewhere."""
        entries = [Fraction(0)] * size
        entries[index] = as_fraction(value)
        return cls(entries)

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._entries)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return Vector(self._entries[index])
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return "Vector([%s])" % ", ".join(str(entry) for entry in self._entries)

    # -- vector space operations -------------------------------------------

    def __add__(self, other: "Vector") -> "Vector":
        self._check_same_size(other)
        return Vector(a + b for a, b in zip(self._entries, other._entries))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_same_size(other)
        return Vector(a - b for a, b in zip(self._entries, other._entries))

    def __neg__(self) -> "Vector":
        return Vector(-entry for entry in self._entries)

    def __mul__(self, scalar: Rat) -> "Vector":
        factor = as_fraction(scalar)
        return Vector(entry * factor for entry in self._entries)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rat) -> "Vector":
        factor = as_fraction(scalar)
        if factor == 0:
            raise ZeroDivisionError("division of a Vector by zero")
        return Vector(entry / factor for entry in self._entries)

    def dot(self, other: "Vector") -> Fraction:
        """Inner product ``self · other``."""
        self._check_same_size(other)
        return sum(
            (a * b for a, b in zip(self._entries, other._entries)), Fraction(0)
        )

    # -- predicates and helpers --------------------------------------------

    def is_zero(self) -> bool:
        """True when every entry is zero."""
        return all(entry == 0 for entry in self._entries)

    def entries(self) -> Sequence[Fraction]:
        """The underlying tuple of entries."""
        return self._entries

    def normalized(self) -> "Vector":
        """Scale to a primitive integer vector pointing in the same direction."""
        return Vector(integer_normalize(self._entries))

    def _check_same_size(self, other: "Vector") -> None:
        if len(self) != len(other):
            raise ValueError(
                "dimension mismatch: %d vs %d" % (len(self), len(other))
            )
