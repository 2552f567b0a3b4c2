"""Helpers for exact rational arithmetic.

The public type alias :data:`Rat` is anything convertible to
:class:`fractions.Fraction` (``int``, ``Fraction`` or a numeric string).
All conversion goes through :func:`as_fraction`, so floats are rejected
explicitly rather than silently introducing rounding error.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Sequence, Union

Rat = Union[int, Fraction, str]


def as_fraction(value: Rat) -> Fraction:
    """Convert *value* to an exact :class:`Fraction`.

    Floats are refused: they almost always indicate an accidental loss of
    exactness and would silently poison every solver downstream.

    >>> as_fraction(3)
    Fraction(3, 1)
    >>> as_fraction("2/5")
    Fraction(2, 5)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational coefficients")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "refusing to convert float %r to Fraction; "
            "pass an int, a Fraction or a string literal instead" % value
        )
    raise TypeError("cannot interpret %r as a rational number" % (value,))


def fraction_gcd(values: Iterable[Fraction]) -> Fraction:
    """Greatest common divisor of a collection of rationals.

    ``gcd(a/b, c/d) = gcd(a, c) / lcm(b, d)``; the result is the largest
    rational ``g`` such that every input is an integer multiple of ``g``.
    Returns ``0`` for an empty collection or all-zero inputs.
    """
    num_gcd = 0
    den_lcm = 1
    seen = False
    for value in values:
        # Fast path: callers overwhelmingly pass Fraction objects already
        # (this runs once per entry inside every normalisation), so skip
        # the isinstance ladder of as_fraction for them.
        frac = value if type(value) is Fraction else as_fraction(value)
        numerator = frac.numerator
        if not numerator:
            continue
        seen = True
        num_gcd = gcd(num_gcd, numerator)
        denominator = frac.denominator
        den_lcm = den_lcm * denominator // gcd(den_lcm, denominator)
    if not seen:
        return Fraction(0)
    return Fraction(num_gcd, den_lcm)


def integer_normalize(coefficients: Sequence[Rat]) -> List[Fraction]:
    """Scale *coefficients* by a positive rational to primitive integers.

    The returned list contains integers (as ``Fraction`` with denominator 1)
    whose collective gcd is 1, preserving the direction of the vector.  A
    zero vector is returned unchanged.

    >>> integer_normalize([Fraction(1, 2), Fraction(3, 2)])
    [Fraction(1, 1), Fraction(3, 1)]
    """
    fracs = [
        c if type(c) is Fraction else as_fraction(c) for c in coefficients
    ]
    divisor = fraction_gcd(fracs)
    if divisor == 0 or divisor == 1:
        return fracs
    return [frac / divisor for frac in fracs]
