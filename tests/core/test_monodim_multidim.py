"""Tests for Algorithms 1–3 at the engine level (below the prover driver)."""


import pytest

from repro.api import Analysis
from repro.linalg.vector import Vector
from repro.metrics import recording
from repro.program.builder import AutomatonBuilder
from repro.smt.solver import SmtSolver
from repro.synthesis.engine import CegisEngine, MaxIterationsExceeded
from repro.linalg.matrix import orthogonal_complement
from repro.linexpr.expr import var
from repro.linexpr.formula import FALSE, TRUE
from repro.linexpr.transform import prime_suffix
from repro.synthesis.oracles import make_oracle


x, y = var("x"), var("y")


def build_problem(automaton):
    return Analysis(automaton).problem()


def paper_engine(max_iterations=200):
    """The paper's configuration: smt oracle, extremal counterexamples."""
    return CegisEngine(make_oracle("smt"), max_iterations=max_iterations)


def synthesize_component(problem, max_iterations=200):
    return paper_engine(max_iterations).synthesize_component(problem)


def synthesize_lexicographic(problem, max_dimension=None):
    return paper_engine().synthesize_lexicographic(
        problem, max_dimension=max_dimension
    )


class TestMonodim:
    def test_example1_strict_component(self, example1_automaton):
        problem = build_problem(example1_automaton)
        with recording() as counters:
            result = synthesize_component(problem)
        assert result.strict
        assert not result.is_trivial
        assert counters["synthesis.engine.counterexamples"] >= 1

    def test_stutter_gives_non_strict(self, stutter_automaton):
        problem = build_problem(stutter_automaton)
        result = synthesize_component(problem)
        assert not result.strict

    def test_lexicographic_needs_more_than_one_dimension(
        self, lexicographic_automaton
    ):
        problem = build_problem(lexicographic_automaton)
        result = synthesize_component(problem)
        # A single component cannot strictly decrease both transitions unless
        # it cleverly combines them; either way it must be a quasi component.
        assert result.ranking is not None

    def test_iteration_budget_enforced(self, example1_automaton):
        problem = build_problem(example1_automaton)
        with pytest.raises(MaxIterationsExceeded):
            synthesize_component(problem, max_iterations=0)


class TestAvoidSpace:
    """``AvoidSpace_b`` over one self-loop block that havocs ``x`` and ``y``.

    The block has no post-state, so its vector is ``u = (x − x', y − y',
    0)``; each test pins a step of the block so that ``u`` is a chosen
    vector and asks whether the block's ``AvoidSpace`` formula still holds.
    """

    @staticmethod
    def havoc_problem():
        builder = AutomatonBuilder(["x", "y"], initial="k0")
        builder.transition(
            "k0", "k0", guard=[x >= 0, y >= 0], updates={"x": None, "y": None}
        )
        return build_problem(builder.build())

    @staticmethod
    def solver_at(problem, basis, u):
        location = problem.cutset[0]
        block_map = problem.block_map(location, location)
        complement = orthogonal_complement(basis, problem.stacked_dimension)
        solver = SmtSolver()
        solver.assert_formula(problem.blocks[0].formula)
        solver.assert_formula(block_map.avoid_space(complement))
        for index, variable in enumerate(problem.variables):
            solver.assert_formula(
                (var(variable) - var(prime_suffix(variable))).eq(u[index])
            )
        return solver

    def test_empty_basis_excludes_zero(self):
        problem = self.havoc_problem()
        solver = self.solver_at(problem, [], [0] * problem.num_variables)
        assert solver.check().is_unsat

    def test_basis_direction_excluded(self):
        problem = self.havoc_problem()
        dimension = problem.stacked_dimension
        basis = [Vector([1 if i == 0 else 0 for i in range(dimension)])]
        # Force u to be exactly the basis vector: must be unsatisfiable.
        u = [1 if i == 0 else 0 for i in range(problem.num_variables)]
        assert self.solver_at(problem, basis, u).check().is_unsat

    def test_off_basis_direction_allowed(self):
        problem = self.havoc_problem()
        dimension = problem.stacked_dimension
        basis = [Vector([1 if i == 0 else 0 for i in range(dimension)])]
        u = [1 if i == 1 else 0 for i in range(problem.num_variables)]
        assert self.solver_at(problem, basis, u).check().is_sat

    def test_constant_stride_avoids_every_space_without_it(self, example1_automaton):
        """Both arms of Example 1 decrement ``y``: ``u_y = 1`` on every
        step, so ``u`` avoids every span that leaves ``e_y`` out."""
        problem = build_problem(example1_automaton)
        block_map = problem.block_map(problem.cutset[0], problem.cutset[0])
        dimension = problem.stacked_dimension
        x_axis = Vector.unit(dimension, 0)
        y_axis = Vector.unit(dimension, 1)
        avoid = block_map.avoid_space(orthogonal_complement([x_axis], dimension))
        assert avoid is TRUE
        assert block_map.is_zero() is FALSE
        within = block_map.avoid_space(
            orthogonal_complement([x_axis, y_axis], dimension)
        )
        assert within is FALSE


class TestMultidim:
    def test_example1_dimension_one(self, example1_automaton):
        problem = build_problem(example1_automaton)
        outcome = synthesize_lexicographic(problem)
        assert outcome.success
        assert outcome.dimension == 1

    def test_lexicographic_success(self, lexicographic_automaton):
        problem = build_problem(lexicographic_automaton)
        outcome = synthesize_lexicographic(problem)
        assert outcome.success
        assert 1 <= outcome.dimension <= 2

    def test_failure_reported(self, stutter_automaton):
        problem = build_problem(stutter_automaton)
        outcome = synthesize_lexicographic(problem)
        assert not outcome.success
        assert outcome.ranking is None

    def test_max_dimension_cap(self, lexicographic_automaton):
        problem = build_problem(lexicographic_automaton)
        outcome = synthesize_lexicographic(problem, max_dimension=1)
        # With the cap at 1 the synthesis either finds a 1-D witness or fails.
        assert outcome.dimension <= 1
