"""One claim audit: ``Analysis.certify`` is the only place a checker runs.

``repro check`` reads the verdict of the pipeline's ``certificate``
stage, and the fuzz harness and the service cache call ``certify``
directly, so each decided claim costs exactly one checker call on every
surface.
"""

import json

import pytest

import repro.api.pipeline as pipeline
import repro.checking.recurrence as recurrence
from repro.api import Analysis, AnalysisConfig, AnalysisRequest, analyze
from repro.api.registry import Prover, _REGISTRY, register_prover
from repro.api.result import AnalysisResult, AnalysisStatus
from repro.checking.differential import audit_source
from repro.cli import main
from repro.service import ResultCache

COUNTDOWN = "var x;\nwhile (x > 0) { x = x - 1; }\n"
NONTERM = "var x;\nwhile (x >= 0) { x = x + 1; }\n"
STRAIGHT = "var x;\nx = 1;\n"


class Rankingless(Prover):
    name = "rankingless_certify_stub"
    summary = "test stub: TERMINATING with no certificate"

    def prove(self, problem, config):
        return AnalysisResult(tool=self.name, status=AnalysisStatus.TERMINATING)


@pytest.fixture(autouse=True)
def rankingless():
    register_prover(Rankingless())
    try:
        yield
    finally:
        _REGISTRY.pop(Rankingless.name, None)


@pytest.fixture
def checker_calls(monkeypatch):
    calls = []
    real_certificate = pipeline.check_certificate
    real_recurrence = recurrence.check_recurrence

    def certificate(*args, **kwargs):
        calls.append("check_certificate")
        return real_certificate(*args, **kwargs)

    def recurrence_(*args, **kwargs):
        calls.append("check_recurrence")
        return real_recurrence(*args, **kwargs)

    monkeypatch.setattr(pipeline, "check_certificate", certificate)
    monkeypatch.setattr(recurrence, "check_recurrence", recurrence_)
    return calls


# (tool, source, nonterm, checker expected to run, verdict status)
CLAIMS = [
    ("termite", COUNTDOWN, "off", ["check_certificate"], "valid"),
    ("termite", NONTERM, "only", ["check_recurrence"], "valid"),
    (Rankingless.name, COUNTDOWN, "off", [], "invalid"),
]


@pytest.mark.parametrize("tool, source, nonterm, checkers, status", CLAIMS)
class TestOneCheckerCallPerClaim:
    def test_repro_check(
        self, tool, source, nonterm, checkers, status, checker_calls,
        tmp_path, capsys,
    ):
        path = tmp_path / "program.imp"
        path.write_text(source)
        code = main(
            ["check", str(path), "--json", "--tool", tool, "--nonterm", nonterm]
        )
        assert code == (0 if status == "valid" else 3)
        row = json.loads(capsys.readouterr().out)["programs"][0]
        assert row["verdict"]["status"] == status
        assert checker_calls == checkers

    def test_audit_source(
        self, tool, source, nonterm, checkers, status, checker_calls
    ):
        audit = audit_source(
            source, tools=[tool], config=AnalysisConfig(nonterm=nonterm)
        )
        assert checker_calls == checkers
        if status == "valid":
            assert not audit.violations
        else:
            assert [v.kind for v in audit.violations] == ["missing_certificate"]

    def test_cache_hit(
        self, tool, source, nonterm, checkers, status, checker_calls
    ):
        cache = ResultCache()
        query = AnalysisRequest(
            program=source,
            tool=tool,
            config=AnalysisConfig(nonterm=nonterm),
        )
        computed = analyze(query)
        assert computed.certificate_checked is (status == "valid")
        cache.store(query, computed)
        del checker_calls[:]
        hit = cache.lookup(query)
        assert checker_calls == checkers
        assert (hit is not None) is (status == "valid")


class TestAuditRule:
    def test_acyclic_rankingless_claim_has_nothing_to_audit(self):
        claim = AnalysisResult(tool="stub", status=AnalysisStatus.TERMINATING)
        assert Analysis(STRAIGHT).certify(claim) is None

    def test_missing_lasso_is_invalid_without_building_the_problem(self):
        analysis = Analysis(NONTERM)
        claim = AnalysisResult(tool="stub", status=AnalysisStatus.NONTERMINATING)
        verdict = analysis.certify(claim)
        assert verdict.status == "invalid" and verdict.certificate_missing
        assert not analysis.problem_built

    def test_unknown_has_nothing_to_audit(self):
        claim = AnalysisResult(tool="stub", status=AnalysisStatus.UNKNOWN)
        assert Analysis(COUNTDOWN).certify(claim) is None
