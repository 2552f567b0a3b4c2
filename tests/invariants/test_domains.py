"""Tests for the polyhedra abstract domain."""


from repro.invariants.polyhedra_domain import PolyhedraDomain
from repro.linexpr.expr import var

x, y = var("x"), var("y")


class TestPolyhedraDomain:
    def setup_method(self):
        self.domain = PolyhedraDomain(["x", "y"])

    def test_relational_constrain(self):
        value = self.domain.constrain(self.domain.top(), [x <= y, y <= 3])
        assert value.entails_constraint(x <= 3)

    def test_assign_relational(self):
        value = self.domain.constrain(self.domain.top(), [x >= 0, x <= 2])
        assigned = self.domain.assign(value, "y", x + 1)
        assert assigned.entails_constraint(y.eq(x + 1))

    def test_widen_with_thresholds(self):
        domain = PolyhedraDomain(["x"], thresholds=[x <= 10])
        previous = domain.constrain(domain.top(), [x >= 0, x <= 1])
        current = domain.constrain(domain.top(), [x >= 0, x <= 2])
        widened = domain.widen(previous, current)
        assert widened.entails_constraint(x <= 10)
        assert not widened.entails_constraint(x <= 2)

    def test_widen_without_thresholds(self):
        previous = self.domain.constrain(self.domain.top(), [x >= 0, x <= 1])
        current = self.domain.constrain(self.domain.top(), [x >= 0, x <= 2])
        widened = self.domain.widen(previous, current)
        assert widened.entails_constraint(x >= 0)
        assert not widened.entails_constraint(x <= 2)

    def test_strict_guard_on_integers(self):
        value = self.domain.constrain(self.domain.top(), [x > 3])
        assert value.entails_constraint(x >= 4)
