"""Tests for the formula AST and smart constructors."""

import pytest

from repro.linexpr.expr import var
from repro.linexpr.formula import (
    And,
    Atom,
    FALSE,
    Or,
    TRUE,
    atom,
    conjunction,
    disjunction,
)


class TestSmartConstructors:
    def test_conjunction_flattens(self):
        formula = conjunction([var("x") <= 0, conjunction([var("y") <= 0, var("z") <= 0])])
        assert isinstance(formula, And)
        assert len(formula.operands) == 3

    def test_conjunction_identity(self):
        assert conjunction([]) is TRUE
        assert conjunction([TRUE, TRUE]) is TRUE

    def test_conjunction_annihilator(self):
        assert conjunction([var("x") <= 0, FALSE]) is FALSE

    def test_disjunction_flattens(self):
        formula = disjunction([var("x") <= 0, disjunction([var("y") <= 0])])
        assert isinstance(formula, Or) or isinstance(formula, Atom)

    def test_disjunction_identity(self):
        assert disjunction([]) is FALSE
        assert disjunction([FALSE]) is FALSE

    def test_disjunction_annihilator(self):
        assert disjunction([TRUE, var("x") <= 0]) is TRUE

    def test_single_operand_unwrapped(self):
        assert isinstance(conjunction([var("x") <= 0]), Atom)

    def test_atom_coercion(self):
        assert isinstance(atom(var("x") <= 0), Atom)
        assert atom(True) is TRUE
        assert atom(False) is FALSE
        with pytest.raises(TypeError):
            atom(42)


class TestOperators:
    def test_and_operator(self):
        formula = atom(var("x") <= 0) & (var("y") <= 0)
        assert isinstance(formula, And)

    def test_or_operator(self):
        formula = atom(var("x") <= 0) | (var("y") <= 0)
        assert isinstance(formula, Or)

    def test_invert(self):
        formula = ~atom(var("x") <= 0)
        assert isinstance(formula, Atom)
        assert formula.constraint == (var("x") > 0).normalized()

    def test_children(self):
        inner = atom(var("x") <= 0)
        assert And([inner, inner]).children() == (inner, inner)
        assert inner.children() == ()

