"""Tests for the branch-and-bound integer layer."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, settings, strategies as st

from repro.linexpr.expr import LinExpr, var
from repro.lp.branch_bound import _gcd_refutes, solve_ilp
from repro.lp.problem import LpStatus, Sense
from repro.metrics import recording

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


def _determinant(matrix):
    if not matrix:
        return 1
    return sum(
        (-1) ** column
        * matrix[0][column]
        * _determinant([row[:column] + row[column + 1 :] for row in matrix[1:]])
        for column in range(len(matrix[0]))
        if matrix[0][column]
    )


def _divisor(matrix, size):
    """The gcd of the *size* × *size* minors of *matrix* (0 when all vanish)."""
    divisor = 0
    for rows in combinations(range(len(matrix)), size):
        for columns in combinations(range(len(matrix[0])), size):
            minor = [[matrix[i][j] for j in columns] for i in rows]
            divisor = gcd(divisor, _determinant(minor))
    return divisor


def _integer_solvable(matrix, constants):
    """Heger's criterion: ``A·x = b`` has an integer solution iff ``A`` and
    ``[A | b]`` have the same rank ``r`` and the same gcd of ``r × r``
    minors."""
    augmented = [row + [b] for row, b in zip(matrix, constants)]
    rank = max(
        [0]
        + [
            size
            for size in range(1, min(len(matrix), len(matrix[0])) + 1)
            if _divisor(matrix, size)
        ]
    )
    if rank < len(matrix) and _divisor(augmented, rank + 1):
        return False
    return _divisor(matrix, rank) == _divisor(augmented, rank)


class TestEqualityRefutation:
    """The gcd test reads every integer combination of the equalities.

    A row with no variable is left to the LP, so every drawn row has one.
    """

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(-4, 4), min_size=3, max_size=3).filter(any),
                st.integers(-6, 6),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_refutes_exactly_the_integer_infeasible_systems(self, rows):
        names = ("a", "b", "c")
        equalities = [
            (LinExpr(dict(zip(names, coefficients))) - constant).eq(0)
            for coefficients, constant in rows
        ]
        matrix = [list(coefficients) for coefficients, _ in rows]
        constants = [constant for _, constant in rows]
        assert _gcd_refutes(equalities, set(names)) == (
            not _integer_solvable(matrix, constants)
        )

    def test_reads_only_equalities_over_integer_variables(self):
        a, b, c = var("a"), var("b"), var("c")
        system = [(a - 2 * b).eq(0), (a - 2 * c).eq(1)]
        assert _gcd_refutes(system, {"a", "b", "c"})
        assert not _gcd_refutes(system, {"a", "b"})
        assert not _gcd_refutes([a - 2 * b <= 0, a - 2 * c >= 1], {"a", "b", "c"})

    def test_refutations_are_counted(self):
        a, b, c = var("a"), var("b"), var("c")
        # The root relaxation a = 0, c = -1/2 branches only after the test.
        system = [(a - 2 * b).eq(0), (a - 2 * c).eq(1), a >= 0]
        with recording() as counters:
            result = solve_ilp(a, system, ["a", "b", "c"])
        assert result.status is LpStatus.INFEASIBLE
        assert counters["lp.ilp.gcd_refutations"] == 1
        with recording() as counters:
            result = solve_ilp(a, [(a - 2 * b).eq(1), a >= 0], ["a", "b"])
        assert result.objective == 1
        assert "lp.ilp.gcd_refutations" not in counters
