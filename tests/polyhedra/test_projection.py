"""Tests for Fourier–Motzkin elimination and entailment."""

from hypothesis import given, settings, strategies as st

from repro.linexpr.expr import var
from repro.polyhedra.projection import (
    entails,
    fourier_motzkin,
    project_constraints,
    remove_redundant,
)

x, y, z = var("x"), var("y"), var("z")


class TestEliminateVariable:
    def test_bounds_combine(self):
        result = fourier_motzkin([x <= y, x >= z], ["x"])
        assert len(result) == 1
        assert entails(result, z <= y)

    def test_equality_substituted(self):
        result = fourier_motzkin([x.eq(y + 1), x <= 5], ["x"])
        assert entails(result, y <= 4)

    def test_unrelated_kept(self):
        result = fourier_motzkin([y <= 3], ["x"])
        assert result == [(y <= 3)]

    def test_no_lower_bound_drops_uppers(self):
        result = fourier_motzkin([x <= y], ["x"])
        assert result == []


class TestProjection:
    def test_project_box(self):
        constraints = [x >= 0, x <= 1, y >= 2, y <= 3, x <= y]
        projected = project_constraints(constraints, ["x"])
        assert entails(projected, x >= 0)
        assert entails(projected, x <= 1)
        for constraint in projected:
            assert constraint.variables() <= {"x"}

    def test_chain(self):
        constraints = [x <= y, y <= z, z <= 5]
        result = fourier_motzkin(constraints, ["y", "z"])
        assert entails(result, x <= 5)

    @given(st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_projection_preserves_satisfiability(self, a, b):
        lo, hi = min(a, b), max(a, b)
        constraints = [x >= lo, x <= hi, y.eq(x)]
        projected = project_constraints(constraints, ["y"])
        assert entails(projected, y >= lo)
        assert entails(projected, y <= hi)


class TestRedundancy:
    def test_removes_weaker_bound(self):
        assert len(remove_redundant([x <= 1, x <= 5])) == 1

    def test_keeps_both_sides(self):
        result = remove_redundant([x >= 0, x <= 1])
        assert len(result) == 2

    def test_duplicates_removed(self):
        assert len(remove_redundant([x <= 1, 2 * x <= 2])) == 1


class TestEntailment:
    def test_positive(self):
        assert entails([x >= 1, y >= x], y >= 1)

    def test_negative(self):
        assert not entails([x >= 0], x >= 1)

    def test_equality_entailment(self):
        assert entails([x.eq(3)], x >= 3)
        assert entails([x >= 3, x <= 3], x.eq(3))

    def test_unsatisfiable_entails_everything(self):
        assert entails([x >= 1, x <= 0], y >= 100)
