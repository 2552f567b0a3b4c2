"""Tests for the branch-and-bound integer layer."""

from fractions import Fraction


from repro.linexpr.expr import LinExpr, var
from repro.lp.branch_bound import solve_ilp
from repro.lp.problem import LpStatus, Sense

x, y = var("x"), var("y")


class TestSolveIlp:
    def test_rounds_down(self):
        result = solve_ilp(x, [2 * x <= 7, x >= 0], ["x"], Sense.MAXIMIZE)
        assert result.objective == 3

    def test_rounds_up_for_minimisation(self):
        result = solve_ilp(x, [3 * x >= 4], ["x"], Sense.MINIMIZE)
        assert result.objective == 2

    def test_pure_lp_when_no_integers(self):
        result = solve_ilp(x, [2 * x <= 7, x >= 0], [], Sense.MAXIMIZE)
        assert result.objective == Fraction(7, 2)

    def test_infeasible_by_integrality(self):
        # 1/3 ≤ x ≤ 2/3 has rational but no integer solutions.
        result = solve_ilp(x, [3 * x >= 1, 3 * x <= 2], ["x"], Sense.MAXIMIZE)
        assert result.status is LpStatus.INFEASIBLE

    def test_two_dimensional(self):
        result = solve_ilp(
            x + y,
            [2 * x + 3 * y <= 12, x >= 0, y >= 0],
            ["x", "y"],
            Sense.MAXIMIZE,
        )
        assert result.objective == 6
        assert all(value.denominator == 1 for value in result.assignment.values())

    def test_unbounded_relaxation_reported(self):
        result = solve_ilp(x, [x <= 5], ["x"], Sense.MINIMIZE)
        assert result.status is LpStatus.UNBOUNDED

    def test_mixed_integer(self):
        result = solve_ilp(
            x + y, [x + y <= Fraction(7, 2), x >= 0, y >= 0], ["x"], Sense.MAXIMIZE
        )
        assert result.objective == Fraction(7, 2)


class TestMultipliers:
    def test_root_infeasibility_passes_farkas_multipliers(self):
        result = solve_ilp(x, [x >= 1, x <= 0], ["x"], Sense.MINIMIZE)
        assert result.status is LpStatus.INFEASIBLE
        assert result.multipliers == [1, 1]

    def test_infeasible_below_the_root_has_none(self):
        result = solve_ilp(x, [3 * x >= 1, 3 * x <= 2], ["x"], Sense.MAXIMIZE)
        assert result.status is LpStatus.INFEASIBLE
        assert result.multipliers is None

    def test_integer_optimum_has_none(self):
        result = solve_ilp(x, [2 * x <= 7, x >= 0], ["x"], Sense.MAXIMIZE)
        assert result.objective == 3
        assert result.multipliers is None


class TestFindIntegerPoint:
    def test_finds_point(self):
        result = solve_ilp(
            LinExpr(), [x >= 1, x <= 3, (x - y).eq(0)], ["x", "y"]
        )
        assert result.is_optimal
        assert result.assignment["x"].denominator == 1

    def test_infeasible(self):
        result = solve_ilp(LinExpr(), [2 * x >= 1, 2 * x <= 1], ["x"])
        assert result.status is LpStatus.INFEASIBLE
