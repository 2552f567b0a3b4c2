"""The cross-prover differential harness catches planted unsoundness."""

import pytest

from repro.api import AnalysisConfig
from repro.api.registry import (
    Prover,
    _REGISTRY,
    register_prover,
)
from repro.api.result import AnalysisResult, AnalysisStatus
from repro.checking.checker import CertificateVerdict
from repro.checking.differential import (
    FuzzReport,
    ProgramAudit,
    _tally,
    audit_generated_program,
    audit_source,
    default_fuzz_config,
    fuzz,
    run_differential,
)
from repro.checking.generator import ProgramGenerator


class BogusProver(Prover):
    """Deliberately unsound: proves everything with a junk certificate."""

    name = "bogus_test_prover"
    summary = "test stub: claims TERMINATING with the zero ranking"

    def prove(self, problem, config):
        ranking_source = problem.zero_ranking()
        from repro.core.ranking import LexicographicRankingFunction

        return AnalysisResult(
            tool=self.name,
            status=AnalysisStatus.TERMINATING,
            ranking=LexicographicRankingFunction([ranking_source]),
            dimension=1,
        )


class BogusNontermProver(Prover):
    """Deliberately unsound the other way: disproves everything, no lasso."""

    name = "bogus_nonterm_test_prover"
    summary = "test stub: claims NONTERMINATING without a witness"

    def prove(self, problem, config):
        return AnalysisResult(
            tool=self.name,
            status=AnalysisStatus.NONTERMINATING,
        )


@pytest.fixture
def bogus_prover():
    register_prover(BogusProver())
    try:
        yield BogusProver.name
    finally:
        _REGISTRY.pop(BogusProver.name, None)


@pytest.fixture
def bogus_nonterm_prover():
    register_prover(BogusNontermProver())
    try:
        yield BogusNontermProver.name
    finally:
        _REGISTRY.pop(BogusNontermProver.name, None)


class TestAuditSource:
    def test_sound_tools_pass_clean(self):
        audit = audit_source(
            "var x; while (x > 0) { x = x - 1; }",
            tools=["termite", "heuristic"],
        )
        assert audit.build_error is None
        assert not audit.violations
        assert audit.verdicts["termite"].accepted

    def test_malformed_source_is_a_build_error_not_a_crash(self):
        audit = audit_source("var x; while (x > 0) {")
        assert audit.build_error is not None
        assert not audit.results

    def test_zero_ranking_is_rejected(self, bogus_prover):
        audit = audit_source(
            "var x; while (x > 0) { x = x - 1; }", tools=[bogus_prover]
        )
        kinds = {violation.kind for violation in audit.violations}
        assert "certificate_rejected" in kinds
        violation = audit.violations[0]
        assert violation.failures, "rejection must carry obligation failures"

    def test_nonterminating_ground_truth(self, bogus_prover):
        program = ProgramGenerator(0).generate(6)  # a nonterm gadget
        audit = audit_generated_program(program, tools=[bogus_prover])
        kinds = {violation.kind for violation in audit.violations}
        assert "proved_nonterminating" in kinds


class TestTwoSidedGroundTruth:
    def test_nonterm_claim_on_terminating_program(self, bogus_nonterm_prover):
        program = ProgramGenerator(2).generate(0)  # a countdown
        assert program.expected == "terminating"
        audit = audit_generated_program(program, tools=[bogus_nonterm_prover])
        kinds = {violation.kind for violation in audit.violations}
        assert "nonterm_on_terminating" in kinds
        assert "lasso_rejected" in kinds  # the claim carried no witness

    def test_missing_lasso_is_rejected_even_without_ground_truth(
        self, bogus_nonterm_prover
    ):
        audit = audit_source(
            "var x; while (x >= 0) { x = x + 1; }",
            tools=[bogus_nonterm_prover],
        )
        kinds = {violation.kind for violation in audit.violations}
        assert kinds == {"lasso_rejected"}
        assert "without a lasso witness" in audit.violations[0].detail

    def test_real_nontermination_verdict_is_audited_clean(self):
        audit = audit_source(
            "var x; while (x >= 0) { x = x + 1; }",
            tools=["termite"],
            config=default_fuzz_config(),
        )
        assert not audit.violations
        verdict = audit.lasso_verdicts["termite"]
        assert verdict.status == "valid"

    def test_report_counts_lassos(self):
        report = fuzz(
            seed=6,
            count=8,
            tools=["termite"],
            config=default_fuzz_config(),
        )
        assert report.ok, report.summary()
        document = report.to_dict()
        assert document["lassos_valid"] <= document["lassos_checked"]
        assert "lassos audited" in report.summary()


class TestCampaign:
    def test_small_campaign_is_clean_and_deterministic(self):
        report = fuzz(
            seed=1,
            count=4,
            tools=["heuristic", "dnf"],
            config=default_fuzz_config(),
        )
        assert report.ok, report.summary()
        assert report.programs == 4
        again = fuzz(
            seed=1,
            count=4,
            tools=["heuristic", "dnf"],
            config=default_fuzz_config(),
        )
        assert report.outcomes == again.outcomes

    def test_violations_are_shrunk(self, bogus_prover):
        programs = [ProgramGenerator(2).generate(0)]  # a countdown
        report = run_differential(
            programs, tools=[bogus_prover], shrink=True, max_shrink_checks=40
        )
        assert not report.ok
        violation = next(
            v for v in report.violations if v.kind == "certificate_rejected"
        )
        assert violation.original_source, "shrinking should have bitten"
        assert len(violation.source) < len(violation.original_source)
        assert "while" in violation.source

    def test_checker_crash_fails_the_report(self, monkeypatch):
        # A crashing checker is a checker bug: it must not be mistaken for
        # a prover error and tallied as an ordinary per-tool outcome.
        import repro.api.pipeline as pipeline

        def crash(*args, **kwargs):
            raise RuntimeError("checker crash")

        monkeypatch.setattr(pipeline, "check_certificate", crash)
        programs = [ProgramGenerator(2).generate(0)]  # a countdown
        report = run_differential(programs, tools=["termite"], shrink=False)
        assert not report.ok
        assert "checker crash" in report.build_errors[0]

    def test_report_serialises(self):
        report = fuzz(seed=1, count=2, tools=["heuristic"])
        import json

        document = json.loads(json.dumps(report.to_dict()))
        assert document["schema_version"] == 1
        assert document["programs"] == 2
        assert document["ok"] is True

    def test_timeout_is_reported_not_fatal(self):
        report = fuzz(
            seed=1, count=2, tools=["heuristic"], timeout=0.000001
        )
        assert report.programs == 2
        assert report.timeouts
        assert report.ok  # timeouts are not soundness violations


class TestDefaultConfig:
    def test_default_fuzz_config_is_lean(self):
        # The certificate stage keeps its default; only the synthesis
        # budgets are lean.
        config = default_fuzz_config()
        assert isinstance(config, AnalysisConfig)
        assert config.check_certificates is True
        assert (config.max_iterations, config.max_dimension) == (60, 4)
        assert config.nonterm == "auto"


class TestRelativeCompleteness:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_termite_proves_what_eager_farkas_proves(self, seed):
        # Termite finds a lexicographic linear ranking function whenever
        # one exists relative to the invariants, as eager Farkas does,
        # and the eager generator enumeration proves what termite proves.
        audits = []
        report = fuzz(
            seed=seed,
            count=200,
            tools=["termite", "eager_farkas", "eager_generators"],
            shrink=False,
            progress=lambda position, audit: audits.append(audit),
        )
        assert report.ok
        assert len(audits) == 200

        def proved(audit, tool):
            return any(r.tool == tool and r.proved for r in audit.results)

        def missed(by, tool):
            return [
                audit.name
                for audit in audits
                if proved(audit, by) and not proved(audit, tool)
            ]

        assert missed("eager_farkas", "termite") == []
        assert missed("termite", "eager_generators") == []
        assert report.certificates_inconclusive == 0
        assert report.lassos_inconclusive == 0


class TestCompletenessGaps:
    @staticmethod
    def audit(proved, valid):
        """An audit where the tools in *proved* prove, and the verdicts of
        those in *valid* are valid (the others' invalid)."""
        audit = ProgramAudit(name="p")
        for tool in ("termite", "eager_farkas", "dnf"):
            status = "terminating" if tool in proved else "unknown"
            audit.results.append(AnalysisResult(tool=tool, status=status))
            if tool in proved:
                audit.verdicts[tool] = CertificateVerdict(
                    status=CertificateVerdict.VALID
                    if tool in valid
                    else CertificateVerdict.INVALID
                )
        return audit

    def test_tally_counts_valid_eager_proofs_termite_misses(self):
        report = FuzzReport(seed=0, count=5, tools=["termite", "eager_farkas", "dnf"])
        for proved, valid in [
            ({"termite", "eager_farkas", "dnf"}, {"termite", "eager_farkas", "dnf"}),
            ({"eager_farkas"}, {"eager_farkas"}),  # a gap
            ({"dnf"}, {"dnf"}),  # a gap
            ({"eager_farkas", "dnf"}, set()),  # invalid proofs: no gap
            (set(), set()),
        ]:
            _tally(report, self.audit(proved, valid))
        assert report.completeness_gaps == 2
        assert report.to_dict()["completeness_gaps"] == 2
        assert "2 completeness gaps" in report.summary()

    def test_no_gap_without_termite(self):
        report = FuzzReport(seed=0, count=1, tools=["eager_farkas", "dnf"])
        audit = self.audit({"eager_farkas"}, {"eager_farkas"})
        audit.results = [r for r in audit.results if r.tool != "termite"]
        _tally(report, audit)
        assert report.completeness_gaps == 0
