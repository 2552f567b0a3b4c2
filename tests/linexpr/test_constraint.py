"""Tests for atomic constraints."""

from fractions import Fraction

import pytest

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import var


class TestBasics:
    def test_relations(self):
        assert (var("x") <= 0).relation is Relation.LE
        assert (var("x") < 0).relation is Relation.LT
        assert var("x").eq(0).relation is Relation.EQ

    def test_trivially_true_false(self):
        assert (var("x") * 0 <= 1).is_trivially_true()
        assert (var("x") * 0 >= 1).is_trivially_false()
        assert not (var("x") <= 1).is_trivially_true()

    def test_requires_linexpr(self):
        with pytest.raises(TypeError):
            Constraint("x", Relation.LE)


class TestTransformations:
    def test_negate_le(self):
        negated = (var("x") <= 3).negate()
        assert negated.is_strict()
        assert negated.satisfied_by({"x": 4})
        assert not negated.satisfied_by({"x": 3})

    def test_negate_equality_raises(self):
        with pytest.raises(ValueError):
            var("x").eq(0).negate()

    def test_weaken(self):
        assert not (var("x") < 0).weaken().is_strict()
        assert (var("x") <= 0).weaken().relation is Relation.LE

    def test_tighten_for_integers(self):
        tightened = (var("x") < 5).tighten_for_integers()
        assert tightened.relation is Relation.LE
        assert tightened.satisfied_by({"x": 4})
        assert not tightened.satisfied_by({"x": 5})

    def test_tighten_skips_fractional(self):
        constraint = Constraint(var("x") * Fraction(1, 2), Relation.LT)
        assert constraint.tighten_for_integers().is_strict()

    def test_closure(self):
        x, y = var("x"), var("y")
        assert (x > 3).closure({"x"}) == (x >= 4)
        assert (x + y > 3).closure({"x"}) == (x + y >= 3)
        half = Constraint(x * Fraction(1, 2), Relation.LT)
        assert half.closure({"x"}) == Constraint(x * Fraction(1, 2), Relation.LE)
        assert x.eq(1).closure({"x"}) == x.eq(1)

    def test_normalized(self):
        constraint = (2 * var("x") + 4 * var("y") <= 6).normalized()
        assert constraint.expr.coefficient("x") == 1
        assert constraint.expr.constant_term == -3

    def test_substitute_and_rename(self):
        constraint = (var("x") + var("y") <= 0).rename({"x": "z"})
        assert "z" in constraint.variables()
        substituted = constraint.substitute({"z": var("y")})
        assert substituted.variables() == frozenset({"y"})


class TestEvaluation:
    def test_satisfied_by_le(self):
        assert (var("x") - 1 <= 0).satisfied_by({"x": 1})

    def test_satisfied_by_strict(self):
        assert not (var("x") < 0).satisfied_by({"x": 0})

    def test_satisfied_by_eq(self):
        assert (var("x") - var("y")).eq(0).satisfied_by({"x": 7, "y": 7})
