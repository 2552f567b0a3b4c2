"""The independent certificate checker against real and corrupted proofs."""

import copy
from fractions import Fraction

from repro.api import Analysis, AnalysisConfig
from repro.checking.checker import CertificateVerdict, check_ranking
from repro.core.ranking import LexicographicRankingFunction

LISTING1 = """
var x, y;
while (x > 0 and y > 0) {
    if (nondet()) { x = x - 1; y = nondet(); } else { y = y - 1; }
}
"""

COUNTDOWN = """
var x;
while (x > 0) { x = x - 1; }
"""

STRAIGHT_LINE = """
var x;
x = x + 1;
x = x - 2;
"""


def analyse(source, tool="termite", **config_kwargs):
    analysis = Analysis(source, config=AnalysisConfig(**config_kwargs))
    return analysis.problem(), analysis.run(tool)


class TestAcceptsRealCertificates:
    def test_countdown(self):
        problem, result = analyse(COUNTDOWN)
        verdict = check_ranking(problem, result.ranking)
        assert verdict.accepted
        assert verdict.refuted == verdict.obligations > 0

    def test_listing1_lexicographic(self):
        problem, result = analyse(LISTING1)
        assert result.dimension == 2
        verdict = check_ranking(problem, result.ranking)
        assert verdict.accepted

    def test_baseline_certificates_accepted(self):
        for tool in ("eager_farkas", "podelski_rybalchenko", "heuristic", "dnf"):
            problem, result = analyse(COUNTDOWN, tool=tool)
            assert result.proved, tool
            verdict = check_ranking(problem, result.ranking)
            assert verdict.accepted, (tool, verdict)

    def test_integer_mode(self):
        problem, result = analyse(COUNTDOWN, integer_mode=True)
        verdict = check_ranking(problem, result.ranking, integer_mode=True)
        assert verdict.accepted


class TestRejectsCorruptedCertificates:
    def corrupt(self, ranking, scale):
        bad = copy.deepcopy(ranking)
        component = bad.components[0]
        for location in component.coefficients:
            component.coefficients[location] = (
                component.coefficients[location] * Fraction(scale)
            )
        return bad

    def test_flipped_sign_is_rejected_with_witness(self):
        problem, result = analyse(COUNTDOWN)
        verdict = check_ranking(problem, self.corrupt(result.ranking, -1))
        assert verdict.status == CertificateVerdict.INVALID
        assert verdict.failures
        assert verdict.failures[0].witness  # concrete counterexample state

    def test_zeroed_certificate_is_rejected(self):
        problem, result = analyse(COUNTDOWN)
        verdict = check_ranking(problem, self.corrupt(result.ranking, 0))
        assert verdict.status == CertificateVerdict.INVALID
        cases = {failure.case for failure in verdict.failures}
        assert any("no component decreased" in case for case in cases)

    def test_truncated_lexicographic_certificate(self):
        problem, result = analyse(LISTING1)
        truncated = LexicographicRankingFunction(result.ranking.components[1:])
        verdict = check_ranking(problem, truncated)
        assert verdict.status == CertificateVerdict.INVALID

    def test_empty_certificate_on_cyclic_program(self):
        problem, _ = analyse(COUNTDOWN)
        verdict = check_ranking(problem, LexicographicRankingFunction())
        assert verdict.status == CertificateVerdict.INVALID

    def test_certificate_missing_a_cut_point_is_invalid_not_a_crash(self):
        problem, result = analyse(COUNTDOWN)
        mangled = copy.deepcopy(result.ranking)
        for component in mangled.components:
            component.coefficients.clear()
            component.offsets.clear()
        verdict = check_ranking(problem, mangled)
        assert verdict.status == CertificateVerdict.INVALID
        assert any(
            "undefined at cut point" in failure.case
            for failure in verdict.failures
        )


class TestEdges:
    def test_acyclic_program_trivially_valid(self):
        problem, result = analyse(STRAIGHT_LINE)
        assert result.proved
        verdict = check_ranking(
            problem, result.ranking or LexicographicRankingFunction()
        )
        assert verdict.accepted
        assert verdict.obligations == 0

    def test_disjunct_cap_yields_inconclusive(self):
        problem, result = analyse(LISTING1)
        verdict = check_ranking(problem, result.ranking, disjunct_cap=1)
        assert verdict.status == CertificateVerdict.INCONCLUSIVE
        assert verdict.notes

    def test_verdict_serialises(self):
        import json

        problem, result = analyse(COUNTDOWN)
        verdict = check_ranking(problem, result.ranking)
        document = json.loads(json.dumps(verdict.to_dict()))
        assert document["status"] == "valid"
        assert document["obligations"] == verdict.obligations
