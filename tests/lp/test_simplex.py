"""Tests for the exact two-phase simplex."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr, var
from repro.lp.problem import LinearProgram, LinearRow, Sense
from repro.lp.simplex import (
    _EqualityElimination,
    _constraint_rows,
    _expr_row,
    _linear_row,
    check_feasibility,
    solve_lp,
)
from repro.polyhedra.projection import fourier_motzkin

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


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def fractional_systems(draw):
    """Non-strict rows over x, y, z with fractional coefficients."""
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(fractions, min_size=3, max_size=3),
                fractions,
                st.sampled_from([Relation.LE, Relation.EQ]),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return [
        Constraint(LinExpr(dict(zip("xyz", coefficients)), constant), relation)
        for coefficients, constant, relation in rows
    ]


class TestLinearRows:
    @given(fractional_systems())
    @settings(max_examples=100, deadline=None)
    def test_lowered_rows_solve_like_their_constraints(self, constraints):
        # The integer row is the constraint's exact values: the simplex
        # gets the same SparseRow and takes the same pivots.
        rows = [LinearRow.of(constraint) for constraint in constraints]
        position = {"x": 0, "y": 1, "z": 2}
        for constraint, row in zip(constraints, rows):
            assert _linear_row(row, position) == _expr_row(
                constraint.expr, position, "constraint"
            )
        objective = x - 2 * y + z
        variables = ["x", "y", "z"]
        expected = solve_lp(objective, constraints, Sense.MINIMIZE, variables)
        assert solve_lp(objective, rows, Sense.MINIMIZE, variables) == expected
        mixed = rows[:1] + constraints[1:]
        assert solve_lp(objective, mixed, Sense.MINIMIZE, variables) == expected

    def test_positions_out_of_name_order(self):
        expr = 2 * x - 3 * y + 1
        position = {"x": 1, "y": 0}
        assert _linear_row(LinearRow.of(expr <= 0), position) == _expr_row(
            expr, position, "constraint"
        )

    def test_undeclared_variable_is_refused(self):
        with pytest.raises(ValueError, match="undeclared variable 'y'"):
            solve_lp(x, [LinearRow.of(x + y <= 1)], Sense.MINIMIZE, ["x"])

    def test_satisfied_by(self):
        row = LinearRow.of(Constraint(x / 2 - y, Relation.LT))
        assert row.satisfied_by({"x": Fraction(1), "y": Fraction(1)})
        assert not row.satisfied_by({"x": Fraction(2), "y": Fraction(1)})
        with pytest.raises(KeyError):
            row.satisfied_by({"x": Fraction(0)})

    @given(
        fractional_systems(),
        st.lists(fractions, min_size=3, max_size=3),
        st.sampled_from(list(Relation)),
    )
    @settings(max_examples=60, deadline=None)
    def test_satisfied_by_agrees_with_the_constraint(
        self, constraints, values, relation
    ):
        point = dict(zip("xyz", values))
        for constraint in constraints:
            constraint = Constraint(constraint.expr, relation)
            assert LinearRow.of(constraint).satisfied_by(
                point
            ) == constraint.satisfied_by(point)


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


# -- equality elimination --------------------------------------------------

names = ("w", "x", "y", "z")
coefficient = st.integers(min_value=-3, max_value=3)
random_row = st.tuples(
    st.lists(coefficient, min_size=4, max_size=4),
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([Relation.LE, Relation.EQ]),
)
senses = st.sampled_from([Sense.MINIMIZE, Sense.MAXIMIZE])


def _system(rows):
    return [
        Constraint(
            LinExpr(dict(zip(names, coefficients)), constant), relation
        )
        for coefficients, constant, relation in rows
    ]


def _as_inequalities(constraints):
    """Each ``e = 0`` written as ``e ≤ 0 ∧ −e ≤ 0``: nothing to eliminate."""
    rows = []
    for constraint in constraints:
        rows.append(Constraint(constraint.expr, Relation.LE))
        if constraint.is_equality():
            rows.append(Constraint(-constraint.expr, Relation.LE))
    return rows


def _assert_only_nonnegative(residual, nonnegative, sign):
    """*residual* is ``sign·Σ ν_k·x_k`` with every ``ν_k ≥ 0``, ``x_k`` nonnegative.

    The implicit ``−x_k ≤ 0`` rows of *nonnegative* variables carry
    multipliers of their own, which ``LpResult.multipliers`` leaves out.
    """
    for name, value in residual.terms.items():
        assert name in nonnegative and value * sign >= 0


def _assert_certificate(constraints, objective, sense, result, nonnegative):
    """The Farkas or ``f* − f`` identity of ``result.multipliers``."""
    multipliers = result.multipliers
    assert len(multipliers) == len(constraints)
    assert _signs_ok(constraints, multipliers)
    total = _combination(constraints, multipliers)
    if result.is_infeasible:
        assert total.constant_term > 0
        _assert_only_nonnegative(total, nonnegative, 1)
        return
    expected = (
        result.objective - objective
        if sense is Sense.MINIMIZE
        else objective - result.objective
    )
    residual = expected - total
    assert residual.constant_term == 0
    _assert_only_nonnegative(residual, nonnegative, -1)


def _assert_improving_ray(constraints, objective, sense, result, nonnegative):
    ray = result.ray
    for constraint in constraints:
        slope = LinExpr(constraint.expr.terms).evaluate(ray)
        assert slope == 0 if constraint.is_equality() else slope <= 0
    for name in nonnegative:
        assert ray[name] >= 0
    gain = LinExpr(objective.terms).evaluate(ray)
    assert gain < 0 if sense is Sense.MINIMIZE else gain > 0


class TestEqualityElimination:
    @given(
        st.lists(random_row, min_size=1, max_size=7),
        st.lists(coefficient, min_size=4, max_size=4),
        senses,
        st.sets(st.sampled_from(names), max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_system_without_equalities(
        self, rows, objective_coefficients, sense, nonnegative
    ):
        constraints = _system(rows)
        objective = LinExpr(dict(zip(names, objective_coefficients)), 1)
        nonnegative = frozenset(nonnegative)
        result = solve_lp(
            objective, constraints, sense, names, nonnegative=nonnegative
        )
        reference = solve_lp(
            objective,
            _as_inequalities(constraints),
            sense,
            names,
            nonnegative=nonnegative,
        )
        assert result.status is reference.status
        assert result.objective == reference.objective
        if result.is_infeasible:
            _assert_certificate(
                constraints, objective, sense, result, nonnegative
            )
            return
        assert set(result.assignment) == set(names)
        for constraint in constraints:
            assert constraint.satisfied_by(result.assignment)
        for name in nonnegative:
            assert result.assignment[name] >= 0
        if result.is_unbounded:
            assert result.multipliers is None
            _assert_improving_ray(
                constraints, objective, sense, result, nonnegative
            )
        else:
            assert objective.evaluate(result.assignment) == result.objective
            _assert_certificate(
                constraints, objective, sense, result, nonnegative
            )

    @pytest.mark.parametrize("sense", [Sense.MINIMIZE, Sense.MAXIMIZE])
    def test_objective_on_an_eliminated_variable(self, sense):
        # ``y`` occurs once, so ``y = x + 1`` eliminates it; the objective's
        # own combination of that row must enter its multiplier.
        constraints = [y.eq(x + 1), x >= 2]
        objective = y if sense is Sense.MINIMIZE else -y
        result = solve_lp(objective, constraints, sense)
        assert result.is_optimal
        assert result.assignment == {"x": 2, "y": 3}
        assert result.objective == (3 if sense is Sense.MINIMIZE else -3)
        # Σ μ·e = 3 − y: the equality row weighs −1 (+1 would mean the
        # objective's combination entered with the wrong sign).
        assert result.multipliers == [-1, 1]
        _assert_certificate(constraints, objective, sense, result, frozenset())

    def test_contradictory_equalities(self):
        constraints = [x.eq(1), x.eq(2)]
        result = solve_lp(LinExpr(), constraints, Sense.MINIMIZE)
        assert result.is_infeasible
        _assert_certificate(
            constraints, LinExpr(), Sense.MINIMIZE, result, frozenset()
        )

    def test_redundant_equalities(self):
        constraints = [(x + y).eq(2), (2 * x + 2 * y).eq(4), (x - y).eq(0)]
        result = solve_lp(x + 3 * y, constraints, Sense.MAXIMIZE)
        assert result.is_optimal
        assert result.assignment == {"x": 1, "y": 1}
        assert result.objective == 4
        _assert_certificate(
            constraints, x + 3 * y, Sense.MAXIMIZE, result, frozenset()
        )

    def test_unbounded_ray_through_eliminated_variables(self):
        constraints = [z.eq(x + y), y.eq(2 * x), x >= 0]
        result = solve_lp(z, constraints, Sense.MAXIMIZE)
        assert result.is_unbounded
        assert result.ray["x"] > 0
        assert result.ray["y"] == 2 * result.ray["x"]
        assert result.ray["z"] == 3 * result.ray["x"]
        _assert_improving_ray(
            constraints, z, Sense.MAXIMIZE, result, frozenset()
        )

    def test_nonnegative_variables_are_never_eliminated(self):
        # ``x = 1`` has only a nonnegative variable: the row stays.
        # ``x = y + z`` must pivot on ``y`` or ``z``, never on ``x``.
        constraints = [x.eq(1), x.eq(y + z), z <= 4]
        variables = ["x", "y", "z"]
        position = {name: index for index, name in enumerate(variables)}
        presolve = _EqualityElimination(
            _expr_row(LinExpr(), position, "objective"),
            _constraint_rows(constraints, position),
            variables,
            frozenset({"x"}),
        )
        assert presolve.kept == [0, 2]
        assert [variables[pivot] for pivot, _ in presolve.pivots] == ["y"]
        assert presolve.kept_variables == [(0, "x"), (2, "z")]

    def test_pivot_is_the_rarest_variable_then_the_first_name(self):
        constraints = [(x + y + z).eq(3), x + y <= 1, x - z <= 0]
        variables = ["x", "y", "z"]
        position = {name: index for index, name in enumerate(variables)}
        presolve = _EqualityElimination(
            _expr_row(LinExpr(), position, "objective"),
            _constraint_rows(constraints, position),
            variables,
            frozenset(),
        )
        # x occurs in 3 rows, y and z in 2 each: the tie goes to y.
        assert [variables[pivot] for pivot, _ in presolve.pivots] == ["y"]

    def test_equality_reducing_to_a_constant_stays(self):
        constraints = [(x + y).eq(1), (2 * x + 2 * y).eq(3)]
        result = solve_lp(x, constraints, Sense.MINIMIZE)
        assert result.is_infeasible
        _assert_certificate(
            constraints, x, Sense.MINIMIZE, result, frozenset()
        )


# -- coefficients beyond machine integers ---------------------------------------

#: Column scale factors past int64: every coefficient of ``x`` is
#: multiplied by 2**70 and every coefficient of ``z`` by 3**45.
_BIG_SCALES = {"x": Fraction(2**70), "z": Fraction(3**45)}

w = var("w")

#: ``(constraints, objective, sense, variables to project away)``.
_BIG_SYSTEMS = [
    (
        [x + y <= 4, x - y >= -2, y >= 0, x >= 0, z <= x + 1, z >= y - 3],
        x + 2 * y + z,
        Sense.MAXIMIZE,
        ["x", "z"],
    ),
    (
        [(x + z).eq(y + 3), 2 * x - z <= 7, z >= -5, y <= 10, w <= x + y, w >= z],
        3 * x - y + w,
        Sense.MINIMIZE,
        ["x", "w"],
    ),
    (
        [x - z <= 1, z - x <= 1, y >= x + z],
        y - 3 * z,
        Sense.MINIMIZE,
        ["x"],
    ),
    (
        [x + z <= 1, x >= 1, z >= 1],
        x,
        Sense.MAXIMIZE,
        ["z"],
    ),
]


def _rescale(expr, scales):
    return LinExpr(
        {name: value * scales.get(name, 1) for name, value in expr.terms.items()},
        expr.constant_term,
    )


def _rescale_constraint(constraint, scales):
    return Constraint(_rescale(constraint.expr, scales), constraint.relation)


def _unscaled(values):
    """A point of the scaled system as a point of the original one."""
    return {name: value * _BIG_SCALES.get(name, 1) for name, value in values.items()}


def _direction(values):
    peak = max(abs(value) for value in values.values())
    return {name: value / peak for name, value in values.items()}


@pytest.mark.parametrize("constraints, objective, sense, eliminate", _BIG_SYSTEMS)
def test_coefficients_beyond_int64_are_exact(constraints, objective, sense, eliminate):
    # Substituting x = 2**70·x', z = 3**45·z' changes no status or optimum,
    # and maps every solution and projected constraint back exactly.
    inverse = {name: 1 / scale for name, scale in _BIG_SCALES.items()}
    scaled = [_rescale_constraint(c, _BIG_SCALES) for c in constraints]
    scaled_objective = _rescale(objective, _BIG_SCALES)

    plain = solve_lp(objective, constraints, sense)
    big = solve_lp(scaled_objective, scaled, sense)
    assert big.status == plain.status
    assert big.objective == plain.objective
    assert big.pivots == plain.pivots
    assert _unscaled(big.assignment) == plain.assignment
    if plain.is_unbounded:
        # A ray is only defined up to a positive factor.
        assert _direction(_unscaled(big.ray)) == _direction(plain.ray)

    projected = {c.normalized() for c in fourier_motzkin(constraints, eliminate)}
    projected_big = {
        _rescale_constraint(c, inverse).normalized()
        for c in fourier_motzkin(scaled, eliminate)
    }
    assert projected_big == projected
