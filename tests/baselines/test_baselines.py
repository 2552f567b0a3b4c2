"""Tests for the baseline provers (PR, eager Farkas, eager generators, heuristic)."""

import pytest

from repro.api import Analysis, AnalysisConfig
from repro.baselines import (
    dnf_prover,
    eager_farkas_lexicographic,
    eager_generator_synthesis,
    heuristic_prover,
    podelski_rybalchenko,
)
from repro.benchsuite.registry import get_program
from repro.core.certificate import check_certificate
from repro.core.lp_instance import LpStatistics
from repro.linexpr.expr import var
from repro.metrics import recording
from repro.program.builder import AutomatonBuilder


CONFIG = AnalysisConfig(check_certificates=False)


def problem_for(automaton):
    return Analysis(automaton, config=CONFIG).problem()


def run_counted(prover, problem):
    """Run *prover* on *problem*; its result and the view of its LP counts."""
    with recording() as counts:
        result = prover(problem)
    return result, LpStatistics.from_metrics(counts)


@pytest.fixture
def countdown_problem(countdown_automaton):
    return problem_for(countdown_automaton)


@pytest.fixture
def example1_problem(example1_automaton):
    return problem_for(example1_automaton)


@pytest.fixture
def stutter_problem(stutter_automaton):
    return problem_for(stutter_automaton)


@pytest.fixture
def lexicographic_problem(lexicographic_automaton):
    return problem_for(lexicographic_automaton)


class TestDnfExpansion:
    def test_example1_has_two_disjuncts(self, example1_problem):
        disjuncts = example1_problem.disjuncts()
        assert len(disjuncts) == 2

    def test_infeasible_paths_pruned(self):
        x = var("x")
        builder = AutomatonBuilder(["x"], initial="k")
        builder.transition("k", "k", guard=[x > 0, x < 0], updates={"x": x - 1})
        builder.transition("k", "k", guard=[x > 0], updates={"x": x - 1})
        disjuncts = problem_for(builder.build()).disjuncts()
        assert len(disjuncts) == 1

    def test_rows_are_immutable(self, example1_problem):
        disjuncts = example1_problem.disjuncts()
        assert all(isinstance(d.constraints, tuple) for d in disjuncts)
        with pytest.raises(AttributeError):
            disjuncts[0].constraints = ()

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_each_baseline_run_expands_its_own_paths(
        self, example1_problem, monkeypatch, order
    ):
        """The expansion is timed inside every run, whatever ran first."""
        import repro.core.problem

        expanded = []
        original = repro.core.problem.dnf_conjunctions

        def counted(formula):
            expanded.append(formula)
            return original(formula)

        monkeypatch.setattr(repro.core.problem, "dnf_conjunctions", counted)
        provers = (
            dnf_prover,
            eager_farkas_lexicographic,
            eager_generator_synthesis,
            heuristic_prover,
            podelski_rybalchenko,
        )
        blocks = len(example1_problem.blocks)
        for runs, prover in enumerate(provers[::order], start=1):
            prover(example1_problem)
            assert len(expanded) == runs * blocks


@pytest.mark.parametrize(
    "prover", [eager_farkas_lexicographic, podelski_rybalchenko]
)
def test_eager_lp_solves_are_counted(prover, example1_problem):
    """Every eager Farkas LP is one cold solve, and its pivots are counted."""
    _, statistics = run_counted(prover, example1_problem)
    assert statistics.cold_solves == statistics.instances >= 1
    assert statistics.warm_solves == 0
    assert statistics.pivots > 0


class TestPodelskiRybalchenko:
    def test_countdown(self, countdown_problem):
        result = podelski_rybalchenko(countdown_problem)
        assert result.proved

    def test_example1(self, example1_problem):
        result = podelski_rybalchenko(example1_problem)
        assert result.proved

    def test_stutter_rejected(self, stutter_problem):
        assert not podelski_rybalchenko(stutter_problem).proved

    def test_lexicographic_out_of_reach(self, lexicographic_problem):
        # A single linear ranking function may or may not exist here, but the
        # result must at least be sound: if claimed, the certificate holds.
        result = podelski_rybalchenko(lexicographic_problem)
        if result.proved:
            verdict = check_certificate(lexicographic_problem, result.ranking)
            assert verdict.status == "valid"


class TestEagerFarkas:
    def test_countdown(self, countdown_problem):
        result, statistics = run_counted(
            eager_farkas_lexicographic, countdown_problem
        )
        assert result.proved
        assert statistics.instances >= 1

    def test_example1_certificate(self, example1_problem):
        result = eager_farkas_lexicographic(example1_problem)
        assert result.proved
        verdict = check_certificate(example1_problem, result.ranking)
        assert verdict.status == "valid"

    def test_lexicographic(self, lexicographic_problem):
        result = eager_farkas_lexicographic(lexicographic_problem)
        assert result.proved

    def test_stutter_rejected(self, stutter_problem):
        assert not eager_farkas_lexicographic(stutter_problem).proved

    def test_lp_bigger_than_lazy(self, example1_problem, example1_automaton):
        _, eager = run_counted(eager_farkas_lexicographic, example1_problem)
        lazy = Analysis(example1_automaton, config=CONFIG).run("termite")
        assert eager.max_rows > lazy.lp_statistics.max_rows


class TestEagerGenerators:
    def test_countdown(self, countdown_problem):
        result = eager_generator_synthesis(countdown_problem)
        assert result.proved
        assert result.details["generators"] >= 1

    def test_example1(self, example1_problem):
        result = eager_generator_synthesis(example1_problem)
        assert result.proved

    def test_stutter_rejected(self, stutter_problem):
        assert not eager_generator_synthesis(stutter_problem).proved


def havoc_at_loop_end():
    """``while (x ≥ 1) x := nondet``: the havoc is the last edge into the head.

    It does not terminate.  ``x'`` occurs in no row of the loop's path
    polyhedron; read as fixed at 0, it made the eager generators claim the
    ranking ``x − 1``, which the certificate checker rejects.
    """
    x = var("x")
    builder = AutomatonBuilder(["x"], initial="head")
    builder.transition("head", "head", guard=[x >= 1], updates={"x": None})
    builder.transition("head", "exit", guard=[x <= 0])
    return builder.build()


class TestHavocOnTheLastEdge:
    def test_primed_variable_is_a_free_dimension(self):
        (loop,) = [
            disjunct
            for disjunct in problem_for(havoc_at_loop_end()).disjuncts()
            if disjunct.target == "head"
        ]
        assert "x'" not in {
            name for row in loop.constraints for name in row.variables()
        }
        assert "x'" in loop.variables()

    @pytest.mark.parametrize(
        "tool, config",
        [
            ("eager_generators", AnalysisConfig()),
            ("termite", AnalysisConfig(cex_oracle="dd")),
            ("termite", AnalysisConfig()),
        ],
        ids=["eager_generators", "termite-dd", "termite-smt"],
    )
    def test_not_proved(self, tool, config):
        result = Analysis(havoc_at_loop_end(), config=config).run(tool)
        assert not result.proved
        assert result.ranking is None


class TestHeuristic:
    def test_countdown(self, countdown_problem):
        result = heuristic_prover(countdown_problem)
        assert result.proved

    def test_example1(self, example1_problem):
        result = heuristic_prover(example1_problem)
        assert result.proved

    def test_stutter_rejected(self, stutter_problem):
        assert not heuristic_prover(stutter_problem).proved

    def test_result_shape(self, countdown_problem):
        result = heuristic_prover(countdown_problem)
        assert result.name.startswith("heuristic")
        assert result.time_seconds >= 0
        assert "candidates" in result.details

    def test_records_every_lp_it_solves(self):
        program = get_program("wtc", "easy2")
        result = Analysis(program.build(), config=CONFIG).run("heuristic")
        statistics = result.lp_statistics
        assert statistics.instances > 0
        assert statistics.pivots > 0
        assert statistics.cold_solves == statistics.instances
        assert statistics.warm_solves == 0
