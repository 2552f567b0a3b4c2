"""Tests for the problem encoding and the LP of Definition 11."""

from fractions import Fraction

import pytest

from repro.api import Analysis
from repro.core.lp_instance import LpStatistics, RankingLp, record_lp
from repro.core.problem import ONE_COORDINATE, InvariantRow, TerminationProblem
from repro.linalg.vector import Vector
from repro.metrics import recording


@pytest.fixture
def example1_problem(example1_automaton):
    return Analysis(example1_automaton).problem()


def slot(problem, location, variable):
    """The index of ``u``'s coordinate (cut point, space variable)."""
    width = len(problem.space_variables)
    return problem.cutset.index(location) * width + problem.space_variables.index(
        variable
    )


class TestProblemEncoding:
    def test_space_includes_one_coordinate(self, example1_problem):
        assert ONE_COORDINATE in example1_problem.space_variables
        assert example1_problem.stacked_dimension == len(
            example1_problem.cutset
        ) * (example1_problem.num_variables + 1)

    def test_difference_variables_order(self, example1_problem):
        # u is laid out cut point by cut point over (x, 1).
        problem = example1_problem
        stacked = Vector(range(problem.stacked_dimension))
        ranking = problem.ranking(stacked)
        assert ranking.stacked_vector(problem.cutset) == stacked
        location = problem.cutset[0]
        assert list(ranking.coefficients[location]) == list(
            range(problem.num_variables)
        )
        assert ranking.offsets[location] == slot(problem, location, ONE_COORDINATE)

    def test_invariant_rows_are_homogeneous(self, example1_problem):
        problem = example1_problem
        width = len(problem.space_variables)
        for row in problem.invariant_rows():
            # Every row is e_k(a, −b): a·x − b·1 in one cut point's block,
            # kept as its nonzero entries in index order.
            indices = [index for index, _ in row.terms]
            assert indices == sorted(indices)
            assert all(0 <= index < problem.stacked_dimension for index in indices)
            assert all(value != 0 for _, value in row.terms)
            assert {index // width for index in indices} == {row.cutpoint}

    def test_one_row_present_per_cutpoint(self, example1_problem):
        problem = example1_problem
        for k, location in enumerate(problem.cutset):
            one = InvariantRow(k, ((slot(problem, location, ONE_COORDINATE), 1),))
            assert one in problem.invariant_rows()

    def test_transition_formula_satisfiable(self, example1_problem):
        from repro.linexpr.transform import formula_atoms
        from repro.smt.solver import SmtSolver

        formula = example1_problem.transition_formula()
        solver = SmtSolver()
        solver.assert_formula(formula)
        assert solver.check().is_sat
        # u is substituted per block, never defined: no atom names it.
        names = {name for atom in formula_atoms(formula) for name in atom.variables()}
        assert names and not any(name.startswith("u[") for name in names)

    def test_objective_uses_offsets(self, example1_problem):
        ranking = example1_problem.zero_ranking()
        ranking.offsets[example1_problem.cutset[0]] = Fraction(3)
        objective = ranking.stacked_vector(example1_problem.cutset)
        one_slots = [
            slot(example1_problem, location, ONE_COORDINATE)
            for location in example1_problem.cutset
        ]
        assert any(objective[index] == 3 for index in one_slots)

    def test_statistics(self, example1_problem):
        stats = example1_problem.statistics()
        assert stats["cut_points"] == 1
        assert stats["blocks"] == 1
        assert stats["paths_summarised"] == 2

    def test_reserved_variable_name_rejected(self, example1_automaton):
        from repro.invariants.invariant_map import InvariantMap

        with pytest.raises(ValueError):
            TerminationProblem(
                [ONE_COORDINATE],
                ["k0"],
                InvariantMap.universal([ONE_COORDINATE], ["k0"]),
                [],
            )

    def test_empty_cutset_rejected(self, example1_automaton):
        from repro.invariants.invariant_map import InvariantMap

        with pytest.raises(ValueError):
            TerminationProblem(
                ["x"], [], InvariantMap.universal(["x"], []), []
            )


class TestRankingLp:
    def test_always_feasible(self, example1_problem):
        lp = RankingLp(example1_problem)
        lp.add_counterexample(Vector([1] * example1_problem.stacked_dimension))
        solution = lp.solve()
        assert solution.deltas[0] in (0, 1)

    def test_decreasing_counterexample_gets_delta_one(self, example1_problem):
        # u with y-component 1 corresponds to a step where y decreases by 1;
        # the invariant provides y + 1 ≥ 0, so δ must reach 1.
        u = Vector.unit(
            example1_problem.stacked_dimension, slot(example1_problem, "k0", "y")
        )
        lp = RankingLp(example1_problem)
        lp.add_counterexample(u)
        solution = lp.solve()
        assert solution.deltas[0] == 1
        component = solution.ranking
        assert component.coefficients["k0"][
            example1_problem.variables.index("y")
        ] > 0

    def test_dimension_mismatch_rejected(self, example1_problem):
        lp = RankingLp(example1_problem)
        with pytest.raises(ValueError):
            lp.add_counterexample(Vector([1, 2]))

    def test_statistics_recorded(self, example1_problem):
        lp = RankingLp(example1_problem)
        lp.add_counterexample(Vector([0] * example1_problem.stacked_dimension))
        with recording() as counts:
            lp.solve()
        statistics = LpStatistics.from_metrics(counts)
        assert statistics.instances == 1
        assert statistics.max_rows == 1

    def test_statistics_merge(self):
        with recording() as counts:
            with recording():
                record_lp(2, 3, 1, warm=False)
            record_lp(4, 1, 0, warm=True)
        a = LpStatistics.from_metrics(counts)
        assert a.instances == 2
        assert a.max_rows == 4
        assert a.average_cols == 2.0


class TestCutPointInvariants:
    """The problem holds the invariants of its cut points and no other:
    synthesis, the checker and the eager baselines read nothing else."""

    def test_the_computed_cutset(self, example4_automaton):
        problem = Analysis(example4_automaton).problem()
        assert sorted(problem.invariants.locations()) == sorted(problem.cutset)
        assert "start" not in problem.cutset

    def test_a_given_cutset(self, example4_automaton):
        problem = Analysis(example4_automaton, cutset=["2"]).problem()
        assert problem.cutset == ("2",)
        assert list(problem.invariants.locations()) == ["2"]

    def test_a_location_outside_the_cutset_has_no_invariant(
        self, example4_automaton
    ):
        problem = Analysis(example4_automaton, cutset=["2"]).problem()
        assert problem.invariant("2").constraints
        for location in ("1", "start", "nowhere"):
            with pytest.raises(ValueError, match="not a cut point"):
                problem.invariant(location)
