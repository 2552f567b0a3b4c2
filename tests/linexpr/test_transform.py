"""Tests for formula transformations (NNF negation, renaming, DNF, …)."""

from repro.linexpr.expr import var
from repro.linexpr.formula import (
    And,
    FALSE,
    Or,
    TRUE,
    atom,
    conjunction,
    disjunction,
    negate_constraint,
)
from repro.linexpr.transform import (
    dnf_conjunctions,
    formula_atoms,
    formula_size,
    formula_variables,
    prime_suffix,
    rename_formula,
    substitute_formula,
)

x, y = var("x"), var("y")


class TestNnf:
    """``~f`` is the negation of *f* in negation normal form."""

    def test_double_negation(self):
        formula = ~~atom(x <= 0)
        assert formula_atoms(formula) == [(x <= 0).normalized()]

    def test_de_morgan(self):
        formula = ~conjunction([x <= 0, y <= 0])
        assert isinstance(formula, Or)
        assert all(atom.is_strict() for atom in formula_atoms(formula))
        assert isinstance(~disjunction([x <= 0, y <= 0]), And)

    def test_negated_equality_splits(self):
        formula = ~atom(x.eq(0))
        assert isinstance(formula, Or)
        assert len(formula.operands) == 2

    def test_constants(self):
        assert ~TRUE is FALSE
        assert ~FALSE is TRUE

    def test_negation_keeps_sharing(self):
        shared = conjunction([x <= 0, y <= 0])
        formula = conjunction([disjunction([shared, x >= 5]), disjunction([shared, y >= 5])])
        negated = ~formula
        assert formula_size(negated) == formula_size(formula)
        first, second = negated.operands
        assert first.operands[0] is second.operands[0]


class TestNegateConstraint:
    def test_le(self):
        negated = negate_constraint(x <= 0)
        atoms = formula_atoms(negated)
        assert len(atoms) == 1 and atoms[0].is_strict()

    def test_equality(self):
        assert isinstance(negate_constraint(x.eq(0)), Or)


class TestRenameSubstitute:
    def test_rename_free(self):
        renamed = rename_formula(conjunction([x <= 0, y <= 0]), {"x": "z"})
        assert "z" in formula_variables(renamed)
        assert "x" not in formula_variables(renamed)

    def test_rename_keeps_sharing(self):
        shared = conjunction([x <= 0, y <= 0])
        formula = conjunction([disjunction([shared, x >= 5]), disjunction([shared, y >= 5])])
        renamed = rename_formula(formula, {"x": "z"})
        first, second = renamed.operands
        assert first.operands[0] is second.operands[0]
        assert formula_variables(renamed) == frozenset({"y", "z"})

    def test_substitute(self):
        formula = substitute_formula(conjunction([x <= 5]), {"x": y + 1})
        assert formula_variables(formula) == frozenset({"y"})

    def test_prime_suffix(self):
        assert prime_suffix("x") == "x'"


class TestQueries:
    def test_formula_variables(self):
        formula = conjunction([x <= 0, disjunction([var("t") <= y, TRUE])])
        assert formula_variables(formula) == frozenset({"x"})
        formula = conjunction([x <= 0, disjunction([var("t") <= y, FALSE])])
        assert formula_variables(formula) == frozenset({"x", "y", "t"})

    def test_formula_variables_walks_each_node_once(self):
        # 60 levels of two parents sharing one child: an unfolding walk
        # would visit 2**60 nodes.
        node = atom(x <= 0)
        for level in range(60):
            node = conjunction([disjunction([node, var("v%d" % level) <= 0])] * 2)
        assert len(formula_variables(node)) == 61

    def test_formula_atoms_dedup(self):
        formula = conjunction([x <= 0, disjunction([x <= 0, y <= 0])])
        assert len(formula_atoms(formula)) == 2

    def test_formula_size_counts_shared_once(self):
        shared = conjunction([x <= 0, y <= 0])
        formula = disjunction([shared, shared])
        assert formula_size(formula) == formula_size(shared) + 1


class TestDnf:
    def test_simple_or(self):
        conjunctions = dnf_conjunctions(disjunction([x <= 0, y <= 0]))
        assert len(conjunctions) == 2

    def test_distribution(self):
        formula = conjunction(
            [disjunction([x <= 0, x >= 5]), disjunction([y <= 0, y >= 5])]
        )
        assert len(dnf_conjunctions(formula)) == 4

    def test_false_disjunct_dropped(self):
        formula = disjunction([FALSE, x <= 0])
        assert len(dnf_conjunctions(formula)) == 1

    def test_true_gives_empty_conjunction(self):
        assert dnf_conjunctions(TRUE) == [[]]
