"""Tests for ranking-function objects and certificate checking."""

from fractions import Fraction


from repro.api import Analysis, AnalysisConfig
from repro.core.certificate import check_certificate
from repro.core.ranking import AffineRankingFunction, LexicographicRankingFunction
from repro.linalg.vector import Vector


def _analysis(automaton):
    return Analysis(automaton, config=AnalysisConfig(check_certificates=False))


class TestRankingObjects:
    def make(self):
        return AffineRankingFunction(
            ("x", "y"),
            {"k": Vector([1, -2])},
            {"k": Fraction(3)},
        )

    def test_expression(self):
        expr = self.make().expression("k")
        assert expr.coefficient("x") == 1
        assert expr.coefficient("y") == -2
        assert expr.constant_term == 3

    def test_evaluate(self):
        assert self.make().evaluate("k", {"x": 2, "y": 1}) == 3

    def test_stacked_vector_includes_offset(self):
        assert self.make().stacked_vector(["k"]) == Vector([1, -2, 3])

    def test_is_trivial(self):
        trivial = AffineRankingFunction(("x",), {"k": Vector([0])}, {"k": Fraction(0)})
        assert trivial.is_trivial()
        assert not self.make().is_trivial()

    def test_lexicographic_evaluate(self):
        lex = LexicographicRankingFunction([self.make(), self.make()])
        assert lex.dimension == 2
        assert lex.evaluate("k", {"x": 0, "y": 0}) == (3, 3)

    def test_pretty_strings(self):
        assert "ρ(k" in self.make().pretty()
        assert LexicographicRankingFunction([]).pretty() == "⟨⟩"


class TestCertificate:
    def test_valid_certificate_accepted(self, example1_automaton):
        analysis = _analysis(example1_automaton)
        problem = analysis.problem()
        result = analysis.run("termite")
        assert check_certificate(problem, result.ranking).status == "valid"

    def test_bogus_certificate_rejected_decrease(self, example1_automaton):
        problem = _analysis(example1_automaton).problem()
        bogus = LexicographicRankingFunction(
            [
                AffineRankingFunction(
                    problem.variables,
                    {"k0": Vector([1, 0])},   # x does not decrease on t1
                    {"k0": Fraction(100)},
                )
            ]
        )
        assert check_certificate(problem, bogus).status == "invalid"

    def test_bogus_certificate_rejected_nonnegative(self, example1_automaton):
        problem = _analysis(example1_automaton).problem()
        bogus = LexicographicRankingFunction(
            [
                AffineRankingFunction(
                    problem.variables,
                    {"k0": Vector([0, 1])},
                    {"k0": Fraction(-1000)},  # wildly negative offset
                )
            ]
        )
        assert check_certificate(problem, bogus).status == "invalid"

    def test_empty_ranking_only_for_acyclic(self, example1_automaton):
        problem = _analysis(example1_automaton).problem()
        verdict = check_certificate(problem, LexicographicRankingFunction([]))
        assert verdict.status == "invalid"
