"""Tests for the exact two-phase simplex."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.linexpr.expr import LinExpr, var
from repro.lp.problem import LinearProgram, Sense
from repro.lp.simplex import check_feasibility, solve_lp

x, y, z = var("x"), var("y"), var("z")


class TestBasicSolves:
    def test_bounded_maximum(self):
        result = solve_lp(x + y, [x <= 3, y <= 4, x + y <= 5, x >= 0, y >= 0], Sense.MAXIMIZE)
        assert result.is_optimal
        assert result.objective == 5

    def test_bounded_minimum(self):
        result = solve_lp(x, [x >= -7, x <= 3], Sense.MINIMIZE)
        assert result.objective == -7

    def test_infeasible(self):
        assert solve_lp(x, [x <= 0, x >= 1], Sense.MINIMIZE).is_infeasible

    def test_unbounded_with_ray(self):
        result = solve_lp(x, [x <= 5], Sense.MINIMIZE)
        assert result.is_unbounded
        assert result.ray["x"] < 0

    def test_equality_constraints(self):
        result = solve_lp(x, [(x + y).eq(10), x >= 2, y >= 3], Sense.MINIMIZE)
        assert result.objective == 2

    def test_free_variables(self):
        result = solve_lp(x - y, [x - y >= -3], Sense.MINIMIZE)
        assert result.objective == -3

    def test_fractional_optimum(self):
        result = solve_lp(x, [2 * x >= 1, 3 * x <= 2], Sense.MINIMIZE)
        assert result.objective == Fraction(1, 2)

    def test_constant_objective(self):
        result = solve_lp(LinExpr.constant(7), [x >= 0], Sense.MINIMIZE)
        assert result.objective == 7

    def test_strict_constraint_rejected(self):
        with pytest.raises(ValueError):
            solve_lp(x, [x < 1], Sense.MINIMIZE)

    def test_solution_satisfies_constraints(self):
        constraints = [x + 2 * y <= 14, 3 * x - y >= 0, x - y <= 2]
        result = solve_lp(x + y, constraints, Sense.MAXIMIZE)
        assert result.is_optimal
        for constraint in constraints:
            assert constraint.satisfied_by(result.assignment)

    def test_degenerate_redundant_rows(self):
        result = solve_lp(x, [x >= 0, x >= 0, (x - y).eq(0), (y - x).eq(0)], Sense.MINIMIZE)
        assert result.is_optimal
        assert result.objective == 0


class TestCheckFeasibility:
    def test_feasible(self):
        assert check_feasibility([x >= 0, x <= 1]).is_optimal

    def test_infeasible(self):
        assert check_feasibility([x >= 2, x <= 1]).is_infeasible


class TestLinearProgramModel:
    def test_num_rows_cols(self):
        program = LinearProgram(Sense.MAXIMIZE, x + y)
        program.add_constraints([x <= 1, y <= 2])
        assert program.num_rows == 2
        assert program.num_cols == 2

    def test_declared_variables_present(self):
        program = LinearProgram()
        program.declare("a", "b")
        assert program.variables()[:2] == ["a", "b"]

    def test_solve_wrapper(self):
        program = LinearProgram(Sense.MAXIMIZE, x)
        program.add_constraint(x <= 9)
        program.add_constraint(x >= 0)
        assert program.solve().objective == 9

    def test_strict_rejected(self):
        program = LinearProgram()
        with pytest.raises(ValueError):
            program.add_constraint(x < 1)


bounds = st.integers(min_value=-10, max_value=10)


class TestRandomisedBoxes:
    @given(bounds, bounds, bounds, bounds)
    @settings(max_examples=40, deadline=None)
    def test_box_optimum_hits_corner(self, lox, hix, loy, hiy):
        constraints = [x >= lox, x <= hix, y >= loy, y <= hiy]
        result = solve_lp(x + y, constraints, Sense.MAXIMIZE)
        if lox > hix or loy > hiy:
            assert result.is_infeasible
        else:
            assert result.is_optimal
            assert result.objective == hix + hiy

    @given(st.lists(st.tuples(bounds, bounds, bounds), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_feasible_point_satisfies_all(self, rows):
        constraints = [a * x + b * y <= c for a, b, c in rows]
        result = solve_lp(x + y, constraints + [x >= -20, y >= -20], Sense.MAXIMIZE)
        if result.is_optimal:
            for constraint in constraints:
                assert constraint.satisfied_by(result.assignment)


def _combination(constraints, multipliers) -> LinExpr:
    """``Σ μ_i·expr_i`` over the input constraints."""
    total = LinExpr()
    for constraint, weight in zip(constraints, multipliers):
        total = total + constraint.expr * weight
    return total


def _signs_ok(constraints, multipliers) -> bool:
    return all(
        weight >= 0 or constraint.is_equality()
        for constraint, weight in zip(constraints, multipliers)
    )


class TestMultipliers:
    def test_infeasible_gives_farkas_certificate(self):
        constraints = [x >= 1, y >= 0, x + y <= 0]
        result = solve_lp(x, constraints, Sense.MINIMIZE)
        assert result.is_infeasible
        assert len(result.multipliers) == len(constraints)
        assert _signs_ok(constraints, result.multipliers)
        total = _combination(constraints, result.multipliers)
        assert total.is_constant() and total.constant_term > 0

    def test_negated_and_equality_rows(self):
        # x = 3 and 2y = x are sign-flipped in standard form (negative rhs).
        constraints = [x.eq(3), (2 * y).eq(x), y <= 1]
        result = solve_lp(LinExpr(), constraints, Sense.MINIMIZE)
        assert result.is_infeasible
        total = _combination(constraints, result.multipliers)
        assert _signs_ok(constraints, result.multipliers)
        assert total.is_constant() and total.constant_term > 0

    @pytest.mark.parametrize("sense", [Sense.MINIMIZE, Sense.MAXIMIZE])
    def test_optimal_duals_certify_the_optimum(self, sense):
        constraints = [x <= 3, y <= 4, x + y <= 5, x >= -1, y >= -2]
        objective = 2 * x + y + 7
        result = solve_lp(objective, constraints, sense)
        assert result.is_optimal
        assert _signs_ok(constraints, result.multipliers)
        # Σ μ_i·expr_i = f* − f when minimising, g − g* when maximising.
        expected = (
            result.objective - objective
            if sense is Sense.MINIMIZE
            else objective - result.objective
        )
        assert _combination(constraints, result.multipliers) == expected

    def test_unbounded_has_no_multipliers(self):
        assert solve_lp(x, [x <= 5], Sense.MINIMIZE).multipliers is None

    @given(st.lists(st.tuples(bounds, bounds, bounds), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_systems_certify_their_status(self, rows):
        constraints = [a * x + b * y <= c for a, b, c in rows]
        constraints += [x >= -20, y >= -20, x + y <= 30]
        result = solve_lp(x - y, constraints, Sense.MINIMIZE)
        assert _signs_ok(constraints, result.multipliers)
        total = _combination(constraints, result.multipliers)
        if result.is_infeasible:
            assert total.is_constant() and total.constant_term > 0
        else:
            assert total == result.objective - (x - y)
