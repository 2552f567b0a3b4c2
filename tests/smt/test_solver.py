"""Tests for the lazy DPLL(T) solver."""

import pytest

import repro.smt.solver as solver_module
from repro.linexpr.expr import var
from repro.linexpr.formula import And, Or
from repro.metrics import recording
from repro.smt.solver import SmtSolver, TheoryRoundLimit

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
        # Auxiliary variables are left free, which makes them existential:
        # the formula is satisfiable when some t makes it true.
        solver = SmtSolver()
        solver.assert_formula(And([var("t") >= 0, x.eq(var("t") + 1)]))
        result = solver.check()
        assert result.is_sat
        assert result.model["x"] == result.model["t"] + 1 >= 1

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

    def test_statistics_recorded(self):
        # No two atoms are parallel, so no bound axiom refutes the
        # conflict before the theory sees it.
        solver = SmtSolver()
        solver.assert_formula(And([x + y >= 3, y <= 1, Or([x <= 1, x - y <= 0])]))
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


class TestRoundCap:
    def test_cap_raises_a_counted_typed_error(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_THEORY_ROUNDS", 1)
        solver = SmtSolver()
        solver.assert_formula(And([x + y >= 3, y <= 1, Or([x <= 1, x - y <= 0])]))
        with recording() as counters:
            with pytest.raises(TheoryRoundLimit, match="within 1 rounds"):
                solver.check()
        assert counters["smt.solver.round_cap_hits"] == 1


# Three paths, two of them theory-inconsistent with x + y ≥ 3 ∧ y ≤ 1;
# no two atoms are parallel, so only the theory finds the conflicts.
PATHS = And([x + y >= 3, y <= 1, Or([x - 2 * y >= 10, x <= 1, x - y <= 0])])


def record_theory_checks(monkeypatch):
    checked = []
    real = solver_module.check_conjunction

    def recording_check(constraints, *args, **kwargs):
        checked.append(list(constraints))
        return real(constraints, *args, **kwargs)

    monkeypatch.setattr(solver_module, "check_conjunction", recording_check)
    return checked


class TestGuards:
    def test_guarded_formula_holds_until_retired(self):
        solver = SmtSolver()
        solver.assert_formula(x >= 0)
        guard = solver.new_guard()
        solver.assert_formula(x + y <= -1, guard=guard)
        solver.assert_formula(y >= 0, guard=guard)
        assert solver.check().is_unsat
        solver.retire(guard)
        assert solver.check().is_sat

    def test_retired_atoms_never_reach_the_theory(self, monkeypatch):
        solver = SmtSolver()
        solver.assert_formula(x >= 0)
        guard = solver.new_guard()
        solver.assert_formula(Or([z <= -1, x + z >= 4]), guard=guard)
        assert solver.check().is_sat
        solver.retire(guard)
        checked = record_theory_checks(monkeypatch)
        result = solver.check()
        assert result.is_sat
        assert checked
        assert all("z" not in c.variables() for row in checked for c in row)
        assert "z" not in result.model

    def test_lemmas_outlive_the_query_that_learned_them(self, monkeypatch):
        checked = record_theory_checks(monkeypatch)

        def query(solver):
            guard = solver.new_guard()
            solver.assert_formula(x <= 100, guard=guard)
            before = len(checked)
            assert solver.check().is_sat
            solver.retire(guard)
            return len(checked) - before

        shared = SmtSolver()
        shared.assert_formula(PATHS)
        first = query(shared)
        second = query(shared)
        fresh = SmtSolver()
        fresh.assert_formula(PATHS)
        assert first == query(fresh) > 1
        assert second == 1

    def test_unsat_under_a_guard_is_for_that_query_only(self):
        solver = SmtSolver()
        solver.assert_formula(PATHS)
        guard = solver.new_guard()
        solver.assert_formula(x <= -100, guard=guard)
        assert solver.check().is_unsat
        solver.retire(guard)
        assert solver.check().is_sat
