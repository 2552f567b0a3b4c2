"""Tests for the polyhedra domain the analyzer runs: guard rows closed by
``Constraint.closure``, polyhedra transfers and widening up to thresholds."""


from repro.linexpr.expr import var
from repro.polyhedra.polyhedron import Polyhedron

x, y = var("x"), var("y")


def constrain(value, constraints):
    """The analyzer's guard step, with every variable an integer."""
    integers = set(value.variables)
    return value.intersect_constraints(
        constraint.closure(integers) for constraint in constraints
    )


def widen(previous, current, thresholds=()):
    """The analyzer's widening step at a widening point."""
    return previous.widen(previous.join(current), thresholds)


class TestPolyhedraDomain:
    def setup_method(self):
        self.top = Polyhedron.universe(["x", "y"])

    def test_relational_constrain(self):
        value = constrain(self.top, [x <= y, y <= 3])
        assert value.entails_constraint(x <= 3)

    def test_assign_relational(self):
        value = constrain(self.top, [x >= 0, x <= 2])
        assigned = value.assign("y", x + 1)
        assert assigned.entails_constraint(y.eq(x + 1))

    def test_widen_with_thresholds(self):
        top = Polyhedron.universe(["x"])
        previous = constrain(top, [x >= 0, x <= 1])
        current = constrain(top, [x >= 0, x <= 2])
        widened = widen(previous, current, [x <= 10])
        assert widened.entails_constraint(x <= 10)
        assert not widened.entails_constraint(x <= 2)

    def test_widen_without_thresholds(self):
        previous = constrain(self.top, [x >= 0, x <= 1])
        current = constrain(self.top, [x >= 0, x <= 2])
        widened = widen(previous, current)
        assert widened.entails_constraint(x >= 0)
        assert not widened.entails_constraint(x <= 2)

    def test_strict_guard_on_integers(self):
        value = constrain(self.top, [x > 3])
        assert value.entails_constraint(x >= 4)
