"""Tests for the baseline provers (PR, eager Farkas, eager generators, heuristic)."""

import pytest

from repro.api import Analysis, AnalysisConfig
from repro.baselines import (
    eager_farkas_lexicographic,
    eager_generator_synthesis,
    heuristic_prover,
    podelski_rybalchenko,
)
from repro.baselines.dnf import expand_disjuncts
from repro.core.certificate import check_certificate
from repro.linexpr.expr import var
from repro.program.builder import AutomatonBuilder


CONFIG = AnalysisConfig(check_certificates=False)


def problem_for(automaton):
    return Analysis(automaton, config=CONFIG).problem()


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
        disjuncts = expand_disjuncts(example1_problem)
        assert len(disjuncts) == 2

    def test_infeasible_paths_pruned(self):
        x = var("x")
        builder = AutomatonBuilder(["x"], initial="k")
        builder.transition("k", "k", guard=[x > 0, x < 0], updates={"x": x - 1})
        builder.transition("k", "k", guard=[x > 0], updates={"x": x - 1})
        disjuncts = expand_disjuncts(problem_for(builder.build()))
        assert len(disjuncts) == 1


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
        result = eager_farkas_lexicographic(countdown_problem)
        assert result.proved
        assert result.lp_statistics.instances >= 1

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
        eager = eager_farkas_lexicographic(example1_problem)
        lazy = Analysis(example1_automaton, config=CONFIG).run("termite")
        assert eager.lp_statistics.max_rows > lazy.lp_statistics.max_rows


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
