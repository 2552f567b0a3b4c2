"""Tests for the lazy DPLL(T) solver."""


from repro.linexpr.expr import var
from repro.linexpr.formula import And, Exists, Or
from repro.metrics import recording
from repro.smt.solver import SmtSolver

x, y, z = var("x"), var("y"), var("z")


class TestSat:
    def test_conjunction(self):
        solver = SmtSolver()
        solver.assert_formula(And([x >= 0, x <= 5, y.eq(x + 1)]))
        result = solver.check()
        assert result.is_sat
        assert result.model["y"] == result.model["x"] + 1

    def test_disjunction_picks_feasible_branch(self):
        solver = SmtSolver()
        solver.assert_formula(And([x >= 3, Or([x <= 1, x <= 10])]))
        result = solver.check()
        assert result.is_sat
        assert result.model["x"] >= 3

    def test_bare_constraint_accepted(self):
        solver = SmtSolver()
        solver.assert_formula(x >= 7)
        assert solver.check().model["x"] >= 7

    def test_existential(self):
        solver = SmtSolver()
        solver.assert_formula(Exists(["t"], And([var("t") >= 0, x.eq(var("t") + 1)])))
        result = solver.check()
        assert result.is_sat
        assert result.model["x"] >= 1

    def test_integer_variables(self):
        solver = SmtSolver(integer_variables=["x"])
        solver.assert_formula(And([2 * x >= 1, 2 * x <= 3]))
        result = solver.check()
        assert result.is_sat
        assert result.model["x"] == 1

    def test_model_covers_free_variables(self):
        solver = SmtSolver()
        solver.assert_formula(Or([x >= 0, y >= 0]))
        model = solver.check().model
        assert "x" in model and "y" in model


class TestUnsat:
    def test_conjunction_conflict(self):
        solver = SmtSolver()
        solver.assert_formula(And([x >= 3, Or([x <= 1, x <= 2])]))
        assert solver.check().is_unsat

    def test_boolean_level_conflict(self):
        solver = SmtSolver()
        solver.assert_formula(x >= 1)
        solver.assert_formula(x <= 0)
        assert solver.check().is_unsat

    def test_integer_gap(self):
        solver = SmtSolver(integer_variables=["x"])
        solver.assert_formula(And([3 * x >= 1, 3 * x <= 2]))
        assert solver.check().is_unsat

    def test_statistics_recorded(self):
        solver = SmtSolver()
        solver.assert_formula(And([x >= 3, Or([x <= 1, x <= 2])]))
        with recording() as counters:
            solver.check()
        assert counters["smt.solver.theory_calls"] >= 1
        assert counters["smt.solver.sat_calls"] == (
            counters["smt.solver.theory_calls"] + 1
        )


class TestAssignment:
    def test_model_satisfies_the_returned_constraints(self):
        solver = SmtSolver()
        solver.assert_formula(Or([And([x >= 0, x <= 1]), And([x >= 10, x <= 11])]))
        constraints, model = solver.assignment()
        assert constraints
        assert all(constraint.satisfied_by(model) for constraint in constraints)
        assert model["x"] <= 1 or model["x"] >= 10

    def test_unsat_returns_none(self):
        solver = SmtSolver()
        solver.assert_formula(And([x >= 1, x <= 0]))
        assert solver.assignment() is None
