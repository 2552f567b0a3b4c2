"""Tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.sat import SatSolver


def brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any(bits[abs(lit) - 1] if lit > 0 else not bits[abs(lit) - 1] for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def make_solver(num_vars, clauses):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_variable()
    ok = True
    for clause in clauses:
        ok = solver.add_clause(clause) and ok
    return solver, ok


class TestBasics:
    def test_single_unit(self):
        solver, _ = make_solver(1, [[1]])
        assert solver.solve() == {1: True}

    def test_contradiction(self):
        solver, ok = make_solver(1, [[1], [-1]])
        assert not ok or solver.solve() is None

    def test_empty_clause_rejected(self):
        solver, ok = make_solver(1, [[]])
        assert not ok

    def test_zero_literal_rejected(self):
        solver = SatSolver()
        solver.new_variable()
        with pytest.raises(ValueError):
            solver.add_clause([0])

    def test_tautology_ignored(self):
        solver, ok = make_solver(1, [[1, -1]])
        assert ok and solver.solve() is not None

    def test_implication_chain(self):
        clauses = [[1], [-1, 2], [-2, 3], [-3, 4]]
        solver, _ = make_solver(4, clauses)
        model = solver.solve()
        assert model == {1: True, 2: True, 3: True, 4: True}

    def test_pigeonhole_2_into_1(self):
        # Two pigeons, one hole: unsatisfiable.
        clauses = [[1], [2], [-1, -2]]
        solver, ok = make_solver(2, clauses)
        assert not ok or solver.solve() is None

    def test_model_satisfies_all_clauses(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        solver, _ = make_solver(3, clauses)
        model = solver.solve()
        assert model is not None
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    def test_assumptions_conflict(self):
        solver, _ = make_solver(2, [[1, 2]])
        assert solver.solve(assumptions=[-1, -2]) is None
        assert solver.solve() is not None

    def test_incremental_clause_addition(self):
        solver, _ = make_solver(2, [[1, 2]])
        assert solver.solve() is not None
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is None


class TestAssumptions:
    def test_false_assumption_is_unsat_for_that_call_only(self):
        solver, _ = make_solver(2, [[1], [1, 2]])
        assert solver.solve(assumptions=[-1]) is None
        assert solver.solve() is not None
        assert solver.solve(assumptions=[2]) is not None

    def test_unit_learned_under_assumptions_is_kept(self):
        # Under the assumption 1, deciding ¬2 propagates 3 and conflicts
        # on (2 ∨ ¬3): the learned clause is the unit 2, which follows
        # from the clauses alone and must outlive the call.
        solver, _ = make_solver(3, [[2, 3], [2, -3]])
        assert solver.solve(assumptions=[1]) is not None
        # With 2 fixed at level 0 these two clauses refute at once.
        assert solver.add_clause([-2, 4])
        assert not solver.add_clause([-2, -4])
        assert solver.solve() is None


clause_strategy = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=14,
)


class TestAgainstBruteForce:
    @given(clause_strategy)
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_truth_table(self, clauses):
        solver, ok = make_solver(5, clauses)
        expected = brute_force(5, clauses)
        if not ok:
            assert not expected
            return
        model = solver.solve()
        assert (model is not None) == expected
        if model is not None:
            for clause in clauses:
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    @given(
        clause_strategy,
        st.lists(
            st.integers(min_value=1, max_value=5).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_assumptions_agree_with_truth_table(self, clauses, assumptions):
        solver, ok = make_solver(5, clauses)
        if not ok:
            assert not brute_force(5, clauses)
            return
        model = solver.solve(assumptions)
        expected = brute_force(5, clauses + [[literal] for literal in assumptions])
        assert (model is not None) == expected
        if model is not None:
            assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)
        # The assumptions, and what was learned under them, do not leak.
        assert (solver.solve() is not None) == brute_force(5, clauses)


class ScanSolver(SatSolver):
    """The reference decision rule: the lowest index of maximal activity."""

    def _pick_branch_literal(self):
        best_variable, best_activity = None, -1.0
        for variable in range(1, self._num_vars + 1):
            if variable in self._assignment:
                continue
            if self._activity[variable] > best_activity:
                best_variable, best_activity = variable, self._activity[variable]
        if best_variable is None:
            return None
        return best_variable if self._phase[best_variable] else -best_variable


class TestHeapDecisions:
    @pytest.mark.parametrize("scale", [1.0, 1e99], ids=["plain", "rescaled"])
    def test_heap_picks_what_the_scan_picks(self, scale):
        # Activities start at seed·scale.  At scale 1e99 a conflict's bump
        # crosses 1e100 while unassigned variables hold activity: the
        # rescale must rebuild the heap for the picks to agree.
        rng = random.Random(0)
        for _ in range(600):
            num_vars = rng.randint(6, 14)
            seeds = [rng.randint(0, 9) for _ in range(num_vars)]
            clauses = [
                [
                    rng.choice([v, -v])
                    for v in rng.sample(range(1, num_vars + 1), rng.randint(2, 3))
                ]
                for _ in range(rng.randint(num_vars // 2, 5 * num_vars))
            ]
            assumptions = [rng.choice([v, -v]) for v in range(1, rng.randint(1, 4))]
            solvers = [SatSolver(), ScanSolver()]
            results = []
            for solver in solvers:
                for variable, seed in enumerate(seeds, start=1):
                    solver.new_variable()
                    solver._activity_increment = seed * scale
                    solver._bump_activity(variable)
                solver._activity_increment = 5 * scale
                for clause in clauses:
                    solver.add_clause(clause)
                results.append([solver.solve(assumptions), solver.solve()])
            assert results[0] == results[1]
            assert solvers[0]._activity == solvers[1]._activity
