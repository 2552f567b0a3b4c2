"""The exact rational Gauss/Fourier–Motzkin decision engine."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.farkas import (
    FarkasBudgetExceeded,
    Refutation,
    Witness,
    decide_system,
    is_infeasible,
    tighten_integer_strict,
)
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr, var

x, y, z = var("x"), var("y"), var("z")


class TestRefutations:
    def test_contradictory_bounds(self):
        decision = decide_system([x >= 1, x <= 0])
        assert isinstance(decision, Refutation)
        assert decision.eliminated_variables == 1

    def test_strict_cycle(self):
        assert is_infeasible([x > 0, x < 0])

    def test_strict_against_equal_bound(self):
        assert is_infeasible([x > 3, x <= 3])
        assert not is_infeasible([x >= 3, x <= 3])

    def test_equality_chain(self):
        assert is_infeasible([x.eq(y + 1), y.eq(3), x <= 3])
        assert not is_infeasible([x.eq(y + 1), y.eq(3), x <= 4])

    def test_transitive_chain(self):
        assert is_infeasible([x - y <= 0, y - z <= 0, z - x <= -1])

    def test_constant_false(self):
        decision = decide_system([Constraint(LinExpr({}, 1), Relation.LE)])
        assert isinstance(decision, Refutation)

    def test_inconsistent_equalities(self):
        assert is_infeasible([x.eq(1), x.eq(2)])

    def test_rational_coefficients(self):
        half = LinExpr({"x": Fraction(1, 2)})
        assert is_infeasible([Constraint(half - 1, Relation.LT), x >= 2])

    def test_reason_names_the_contradiction(self):
        # The text is formatted from the kept rows when it is read.
        combined = decide_system([x >= 1, x <= 0])
        assert combined.reason == (
            "eliminating x combines x <= 0 and - x + 1 <= 0 into 1 <= 0"
        )
        substituted = decide_system([x.eq(y + 1), y.eq(3), x <= 3])
        assert substituted.reason == "substituting x yields 1 <= 0"
        constant = decide_system([Constraint(LinExpr({}, 1), Relation.LE)])
        assert constant.reason == "constant constraint 1 <= 0 is false"


class TestWitnesses:
    def satisfies(self, witness, constraints):
        for constraint in constraints:
            assert constraint.satisfied_by(
                {name: witness.assignment.get(name, Fraction(0))
                 for name in constraint.variables()}
            ), constraint

    def test_empty_system(self):
        decision = decide_system([])
        assert isinstance(decision, Witness)

    def test_box(self):
        constraints = [x >= 1, x <= 5, y > x, y <= 100]
        decision = decide_system(constraints)
        assert isinstance(decision, Witness)
        self.satisfies(decision, constraints)

    def test_witness_prefers_integers(self):
        decision = decide_system([x > 0, x < 10])
        assert isinstance(decision, Witness)
        assert decision.assignment["x"].denominator == 1

    def test_fractional_interval_gets_fractional_witness(self):
        constraints = [2 * x > 1, 2 * x < 3]  # x in (1/2, 3/2) minus endpoints
        decision = decide_system(constraints)
        assert isinstance(decision, Witness)
        self.satisfies(decision, constraints)

    def test_equalities_propagate_into_witness(self):
        decision = decide_system([x.eq(y + 2), y >= 10])
        assert isinstance(decision, Witness)
        a = decision.assignment
        assert a["x"] == a["y"] + 2 and a["y"] >= 10

    def test_strict_and_nonstrict_bound_at_the_same_value(self):
        # Regression: at equal bound values the *strict* bound is the
        # binding one; picking the non-strict twin used to produce a
        # witness on the forbidden boundary.
        for constraints in (
            [x <= 5, x < 5],
            [x >= 5, x > 5],
            [x >= 2, x > 2, x <= 5, x < 5],
            [x.eq(y), y <= 0, y < 0],
        ):
            decision = decide_system(constraints)
            assert isinstance(decision, Witness), constraints
            self.satisfies(decision, constraints)

    def test_one_sided_variables(self):
        # x only bounded below, y only above: both eliminated for free.
        decision = decide_system([x >= 7, y <= -7])
        assert isinstance(decision, Witness)
        assert decision.assignment["x"] >= 7
        assert decision.assignment["y"] <= -7

    def test_is_integral(self):
        witness = Witness({"a": Fraction(3), "b": Fraction(1, 2)})
        assert witness.is_integral(["a"])
        assert not witness.is_integral(["a", "b"])
        assert not witness.is_integral()


class TestBudget:
    def test_budget_raises_instead_of_guessing(self):
        n = 14
        names = ["v%d" % i for i in range(n)]
        constraints = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                constraints.append(var(a) + var(b) >= 1)
                constraints.append(var(a) - var(b) <= 3)
        with pytest.raises(FarkasBudgetExceeded):
            decide_system(constraints, row_budget=40)


class TestIntegerTightening:
    def test_tightens_integral_strict_atoms(self):
        tightened = tighten_integer_strict([x > 0], lambda name: True)
        assert len(tightened) == 1
        assert not tightened[0].is_strict()
        # x > 0 became x >= 1, so x >= 1 must still be feasible and
        # 2x < 2 (x < 1) now contradicts it.
        assert is_infeasible(tightened + [2 * x < 2])

    def test_leaves_rational_variables_alone(self):
        tightened = tighten_integer_strict([x > 0], lambda name: False)
        assert tightened[0].is_strict()

    def test_integer_refutation_beyond_rationals(self):
        # 2x = 1 has rational but no integer solutions... the engine is
        # rational, so only the tightened strict form shows this kind of
        # gap: 0 < x < 1 is rationally feasible, integrally not.
        system = [x > 0, x < 1]
        assert not is_infeasible(system)
        assert is_infeasible(tighten_integer_strict(system, lambda name: True))

    def test_divides_an_integer_row_by_its_gcd(self):
        # 3x + 3y + 5 > 0 holds exactly on the integer points of
        # x + y >= -1: the constant -5/3 rounds up to the next integer.
        (rounded,) = tighten_integer_strict(
            [3 * x + 3 * y + 5 > 0], lambda name: True
        )
        assert rounded == Constraint(LinExpr({"x": -1, "y": -1}, -1), Relation.LE)
        (closed,) = tighten_integer_strict([4 * x - 6 * y <= 3], lambda name: True)
        assert closed == (2 * x - 3 * y <= 1)
        # Rational coefficients and equalities are kept as they are.
        kept = [
            Fraction(1, 2) * x <= 1,
            Constraint(LinExpr({"x": 2, "y": 2}, -1), Relation.EQ),
        ]
        assert tighten_integer_strict(kept, lambda name: True) == kept


_BOX = range(-4, 5)


class TestIntegerRoundingProperty:
    @given(
        st.lists(st.integers(-6, 6), min_size=2, max_size=2).filter(any),
        st.integers(-30, 30),
        st.sampled_from([Relation.LE, Relation.LT]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rounded_row_keeps_the_integer_points(
        self, coefficients, constant, relation
    ):
        row = Constraint(
            LinExpr(dict(zip(("x", "y"), coefficients)), constant), relation
        )
        (rounded,) = tighten_integer_strict([row], lambda name: True)
        assert not rounded.is_strict()
        for point in itertools.product(_BOX, repeat=2):
            assignment = dict(zip(("x", "y"), point))
            assert rounded.satisfied_by(assignment) == row.satisfied_by(
                assignment
            )
