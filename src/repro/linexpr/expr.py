"""Affine expressions over named variables with rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

from repro.linalg.rational import Rat, as_fraction


class LinExpr:
    """An affine expression ``Σ coefficient(v) · v + constant``.

    Instances are immutable.  Arithmetic operators build new expressions;
    comparison operators build :class:`repro.linexpr.constraint.Constraint`
    atoms, so programs and transition relations can be written naturally::

        x, y = var("x"), var("y")
        guard = (x <= 10) & (y >= 0)
    """

    __slots__ = ("_terms", "_constant", "_hash")

    def __init__(
        self,
        terms: Mapping[str, Rat] | None = None,
        constant: Rat = 0,
    ):
        cleaned: Dict[str, Fraction] = {}
        for name, coefficient in (terms or {}).items():
            value = (
                coefficient
                if type(coefficient) is Fraction
                else as_fraction(coefficient)
            )
            if value != 0:
                cleaned[name] = value
        self._terms: Tuple[Tuple[str, Fraction], ...] = tuple(
            sorted(cleaned.items())
        )
        self._constant = (
            constant if type(constant) is Fraction else as_fraction(constant)
        )
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, name: str) -> "LinExpr":
        """The expression consisting of the single variable *name*."""
        return cls({name: 1})

    @classmethod
    def constant(cls, value: Rat) -> "LinExpr":
        """The constant expression *value*."""
        return cls({}, value)

    @classmethod
    def from_terms(
        cls, pairs: Iterable[Tuple[str, Rat]], constant: Rat = 0
    ) -> "LinExpr":
        """Build from (variable, coefficient) pairs, summing duplicates."""
        accumulated: Dict[str, Fraction] = {}
        for name, coefficient in pairs:
            accumulated[name] = accumulated.get(name, Fraction(0)) + as_fraction(
                coefficient
            )
        return cls(accumulated, constant)

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> Dict[str, Fraction]:
        """Mapping from variable name to (non-zero) coefficient."""
        return dict(self._terms)

    @property
    def constant_term(self) -> Fraction:
        return self._constant

    def coefficient(self, name: str) -> Fraction:
        """Coefficient of *name* (zero if absent)."""
        for variable, value in self._terms:
            if variable == name:
                return value
        return Fraction(0)

    def variables(self) -> frozenset:
        """The set of variables with a non-zero coefficient."""
        return frozenset(name for name, _ in self._terms)

    def is_constant(self) -> bool:
        return not self._terms

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value: Union["LinExpr", Rat]) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        return LinExpr.constant(value)

    def __add__(self, other: Union["LinExpr", Rat]) -> "LinExpr":
        rhs = self._coerce(other)
        terms = dict(self._terms)
        for name, coefficient in rhs._terms:
            terms[name] = terms.get(name, Fraction(0)) + coefficient
        return LinExpr(terms, self._constant + rhs._constant)

    __radd__ = __add__

    def __sub__(self, other: Union["LinExpr", Rat]) -> "LinExpr":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union["LinExpr", Rat]) -> "LinExpr":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "LinExpr":
        return LinExpr(
            {name: -coefficient for name, coefficient in self._terms},
            -self._constant,
        )

    def __mul__(self, scalar: Rat) -> "LinExpr":
        factor = as_fraction(scalar)
        return LinExpr(
            {name: coefficient * factor for name, coefficient in self._terms},
            self._constant * factor,
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rat) -> "LinExpr":
        factor = as_fraction(scalar)
        if factor == 0:
            raise ZeroDivisionError("division of a LinExpr by zero")
        return self * (Fraction(1) / factor)

    # -- substitution / renaming --------------------------------------------

    def substitute(self, mapping: Mapping[str, "LinExpr"]) -> "LinExpr":
        """Replace each variable in *mapping* with the given expression."""
        result = LinExpr.constant(self._constant)
        for name, coefficient in self._terms:
            replacement = mapping.get(name)
            if replacement is None:
                result = result + LinExpr({name: coefficient})
            else:
                result = result + replacement * coefficient
        return result

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables according to *mapping* (missing names kept)."""
        return LinExpr.from_terms(
            [
                (mapping.get(name, name), coefficient)
                for name, coefficient in self._terms
            ],
            self._constant,
        )

    def evaluate(self, assignment: Mapping[str, Rat]) -> Fraction:
        """Value of the expression under a (total) variable assignment."""
        total = self._constant
        for name, coefficient in self._terms:
            if name not in assignment:
                raise KeyError("no value for variable %r" % name)
            total += coefficient * as_fraction(assignment[name])
        return total

    # -- comparisons build constraints --------------------------------------

    def __le__(self, other: Union["LinExpr", Rat]):
        from repro.linexpr.constraint import Constraint, Relation

        return Constraint(self - self._coerce(other), Relation.LE)

    def __ge__(self, other: Union["LinExpr", Rat]):
        from repro.linexpr.constraint import Constraint, Relation

        return Constraint(self._coerce(other) - self, Relation.LE)

    def __lt__(self, other: Union["LinExpr", Rat]):
        from repro.linexpr.constraint import Constraint, Relation

        return Constraint(self - self._coerce(other), Relation.LT)

    def __gt__(self, other: Union["LinExpr", Rat]):
        from repro.linexpr.constraint import Constraint, Relation

        return Constraint(self._coerce(other) - self, Relation.LT)

    def eq(self, other: Union["LinExpr", Rat]):
        """The equality constraint ``self = other``.

        ``==`` is kept for structural equality of expressions, so equations
        are written ``x.eq(y + 1)``.
        """
        from repro.linexpr.constraint import Constraint, Relation

        return Constraint(self - self._coerce(other), Relation.EQ)

    # -- equality / hashing / printing --------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._terms == other._terms and self._constant == other._constant

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self._terms, self._constant))
        return cached

    def __repr__(self) -> str:
        return "LinExpr(%s)" % str(self)

    def __str__(self) -> str:
        pieces = []
        for name, coefficient in self._terms:
            if coefficient == 1:
                pieces.append("+ %s" % name)
            elif coefficient == -1:
                pieces.append("- %s" % name)
            elif coefficient < 0:
                pieces.append("- %s*%s" % (-coefficient, name))
            else:
                pieces.append("+ %s*%s" % (coefficient, name))
        if self._constant != 0 or not pieces:
            if self._constant < 0:
                pieces.append("- %s" % (-self._constant))
            else:
                pieces.append("+ %s" % self._constant)
        text = " ".join(pieces)
        if text.startswith("+ "):
            text = text[2:]
        return text


def var(name: str) -> LinExpr:
    """Shorthand for :meth:`LinExpr.variable`."""
    return LinExpr.variable(name)


def const(value: Rat) -> LinExpr:
    """Shorthand for :meth:`LinExpr.constant`."""
    return LinExpr.constant(value)
