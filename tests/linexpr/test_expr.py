"""Tests for affine expressions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.linexpr.expr import LinExpr, const, var

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
exprs = st.builds(
    lambda a, b, c: LinExpr({"x": a, "y": b}, c), coeffs, coeffs, coeffs
)


class TestConstruction:
    def test_variable(self):
        assert var("x").terms == {"x": 1}

    def test_constant(self):
        assert const(5).constant_term == 5

    def test_zero_coefficients_dropped(self):
        assert LinExpr({"x": 0, "y": 2}).variables() == frozenset({"y"})

    def test_from_terms_sums_duplicates(self):
        expr = LinExpr.from_terms([("x", 1), ("x", 2)], 3)
        assert expr.coefficient("x") == 3
        assert expr.constant_term == 3


class TestArithmetic:
    def test_add(self):
        expr = var("x") + var("y") + 2
        assert expr.coefficient("x") == 1
        assert expr.constant_term == 2

    def test_sub(self):
        expr = var("x") - var("x")
        assert expr.is_constant()

    def test_rsub(self):
        expr = 5 - var("x")
        assert expr.coefficient("x") == -1
        assert expr.constant_term == 5

    def test_mul_div(self):
        expr = (var("x") * 3) / 2
        assert expr.coefficient("x") == Fraction(3, 2)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            var("x") / 0

    @given(exprs, exprs)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(exprs, coeffs)
    def test_scaling_distributes(self, a, k):
        assert (a + a) * k == a * k + a * k


class TestSubstitutionEvaluation:
    def test_substitute(self):
        expr = var("x") + 2 * var("y")
        substituted = expr.substitute({"y": var("x") + 1})
        assert substituted.coefficient("x") == 3
        assert substituted.constant_term == 2

    def test_rename(self):
        expr = (var("x") + var("y")).rename({"x": "z"})
        assert expr.variables() == frozenset({"z", "y"})

    def test_evaluate(self):
        expr = 2 * var("x") - var("y") + 1
        assert expr.evaluate({"x": 3, "y": 2}) == 5

    def test_evaluate_missing_variable(self):
        with pytest.raises(KeyError):
            var("x").evaluate({})


class TestComparisons:
    def test_le_builds_constraint(self):
        constraint = var("x") <= 3
        assert constraint.satisfied_by({"x": 3})
        assert not constraint.satisfied_by({"x": 4})

    def test_lt_is_strict(self):
        assert (var("x") < 3).is_strict()

    def test_ge_normalised(self):
        constraint = var("x") >= 3
        assert constraint.satisfied_by({"x": 3})
        assert not constraint.satisfied_by({"x": 2})

    def test_eq(self):
        constraint = var("x").eq(var("y"))
        assert constraint.satisfied_by({"x": 2, "y": 2})
        assert not constraint.satisfied_by({"x": 2, "y": 3})

    def test_structural_equality(self):
        assert var("x") + 1 == var("x") + 1
        assert hash(var("x")) == hash(var("x"))

    def test_str_round_trip_readable(self):
        text = str(2 * var("x") - var("y") + 3)
        assert "x" in text and "y" in text
