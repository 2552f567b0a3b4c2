"""Tests for the optimisation-modulo-theory layer."""



from repro.linexpr.expr import var
from repro.linexpr.formula import And, Or
from repro.smt.optimize import OptimizingSmtSolver

x, y = var("x"), var("y")


def example1_solver():
    xp, yp = var("x'"), var("y'")
    tau = Or(
        [
            And([x <= 10, y >= 0, xp.eq(x + 1), yp.eq(y - 1)]),
            And([x >= 0, y >= 0, xp.eq(x - 1), yp.eq(y - 1)]),
        ]
    )
    invariant = And([x + 1 >= 0, x <= 11, y + 1 >= 0, y <= x + 5, x + y <= 15])
    solver = OptimizingSmtSolver()
    solver.assert_formula(invariant)
    solver.assert_formula(tau)
    return solver


class TestMinimize:
    def test_simple_minimum(self):
        solver = OptimizingSmtSolver()
        solver.assert_formula(And([x >= 3, x <= 9]))
        result = solver.minimize(x)
        assert result.is_sat
        assert result.objective_value == 3

    def test_local_stays_in_one_disjunct(self):
        solver = OptimizingSmtSolver()
        solver.assert_formula(Or([And([x >= 5, x <= 6]), And([x >= 1, x <= 2])]))
        result = solver.minimize(x)
        assert result.objective_value in (1, 5)

    def test_unsat(self):
        solver = OptimizingSmtSolver()
        solver.assert_formula(And([x >= 1, x <= 0]))
        assert solver.minimize(x).is_unsat

    def test_unbounded_gives_ray(self):
        solver = OptimizingSmtSolver()
        solver.assert_formula(And([x <= 0, Or([y >= 0, y <= -1])]))
        result = solver.minimize(x)
        assert result.unbounded
        assert result.ray.get("x", 0) < 0

    def test_strict_constraints_respected(self):
        solver = OptimizingSmtSolver()
        solver.assert_formula(And([x >= -5, x <= 5, Or([x > 0, x < 0])]))
        result = solver.minimize(x)
        assert result.is_sat
        assert result.model["x"] != 0

    def test_check_without_objective(self):
        solver = OptimizingSmtSolver()
        solver.assert_formula(x >= 2)
        assert solver.check().is_sat


class TestScopedQueries:
    def test_scoped_formulas_hold_for_one_call(self):
        solver = OptimizingSmtSolver()
        solver.assert_formula(And([x >= 0, x <= 10]))
        assert solver.minimize(x, scoped=[x >= 4]).objective_value == 4
        assert solver.minimize(x).objective_value == 0
        assert solver.check(scoped=[x >= 11]).is_unsat
        assert solver.check().is_sat

    def test_scoped_variables_leave_the_model_with_their_query(self):
        solver = OptimizingSmtSolver()
        solver.assert_formula(x >= 0)
        assert "y" in solver.check(scoped=[y >= 1]).model
        assert "y" not in solver.check().model


class TestPaperExample1Queries:
    def test_y_decreases_by_one(self):
        solver = example1_solver()
        result = solver.minimize(y - var("y'"))
        assert result.objective_value == 1
        assert not result.unbounded

    def test_candidate_y_plus_one_is_strict(self):
        solver = example1_solver()
        solver.assert_formula((y - var("y'")) <= 0)
        assert solver.check().is_unsat

    def test_x_can_increase(self):
        solver = example1_solver()
        # The oracle's query for candidate x: a step on which x does not
        # decrease (λ·u ≤ 0), minimised inside its disjunct.
        solver.assert_formula((x - var("x'")) <= 0)
        result = solver.minimize(x - var("x'"))
        assert result.objective_value == -1
