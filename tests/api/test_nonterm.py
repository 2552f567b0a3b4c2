"""Nontermination through the API: config knobs, results, pipeline, auto."""

import json
import os
from collections import Counter

import pytest

from repro.api import (
    AnalysisConfig,
    AnalysisResult,
    AnalysisStatus,
    Analysis,
    ConfigError,
    NONTERM_MODES,
    analyze,
    available_provers,
)
from repro.checking.corpus import load_corpus
from repro.metrics import recording

NONTERM = "var x; while (x >= 0) { x = x + 1; }"
TERM = "var x; while (x > 0) { x = x - 1; }"

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
PROGRAMS = [("term", TERM), ("nonterm", NONTERM)] + [
    (entry.name, entry.source) for entry in load_corpus(CORPUS_DIR)
]


class TestConfig:
    def test_default_is_off(self):
        config = AnalysisConfig()
        assert config.nonterm == "off"
        assert config.nonterm_budget == 64

    @pytest.mark.parametrize("mode", NONTERM_MODES)
    def test_modes_round_trip(self, mode):
        config = AnalysisConfig(nonterm=mode, nonterm_budget=7)
        replica = AnalysisConfig.from_json(config.to_json())
        assert replica == config

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(nonterm="race")

    @pytest.mark.parametrize("budget", [0, -1, True, "many"])
    def test_invalid_budget_rejected(self, budget):
        with pytest.raises(ConfigError):
            AnalysisConfig(nonterm_budget=budget)


class TestRegistry:
    def test_termite_advertises_nontermination(self):
        assert "termite" in available_provers("nontermination")

    def test_baselines_do_not(self):
        assert available_provers("nontermination") == ["termite"]


class TestResultSerialisation:
    def test_lasso_round_trips_exactly(self):
        result = analyze(NONTERM, config=AnalysisConfig(nonterm="only"))
        assert result.status is AnalysisStatus.NONTERMINATING
        assert result.lasso is not None
        document = json.loads(result.to_json())
        assert document["lasso"] == result.lasso.to_dict()
        replica = AnalysisResult.from_json(result.to_json())
        assert replica == result
        assert replica.lasso == result.lasso

    def test_lasso_key_absent_without_witness(self):
        result = analyze(TERM)
        assert "lasso" not in result.to_dict()

    def test_disproved_property(self):
        result = AnalysisResult(status="nonterminating")
        assert result.disproved and not result.proved


class TestPipeline:
    def test_only_mode_certifies_the_lasso(self):
        analysis = Analysis(NONTERM, config=AnalysisConfig(nonterm="only"))
        result = analysis.run("termite")
        assert result.status is AnalysisStatus.NONTERMINATING
        assert result.certificate_checked
        assert result.details["lasso_verdict"]["status"] == "valid"
        assert result.stage_seconds("certificate") >= 0
        assert any(stage.name == "certificate" for stage in result.stages)

    def test_only_mode_on_terminating_program_is_unknown(self):
        result = analyze(TERM, config=AnalysisConfig(nonterm="only"))
        assert result.status is AnalysisStatus.UNKNOWN
        assert result.lasso is None

    def test_off_mode_never_attaches_a_lasso(self):
        result = analyze(NONTERM)
        assert result.status is AnalysisStatus.UNKNOWN
        assert result.lasso is None

    def test_baseline_prover_ignores_nonterm(self):
        result = analyze(
            NONTERM, tool="heuristic", config=AnalysisConfig(nonterm="auto")
        )
        assert result.status is AnalysisStatus.UNKNOWN


class TestRace:
    """``nonterm="auto"``: termination first, then nontermination."""

    def test_auto_mode_disproves_the_nonterminating_loop(self):
        result = analyze(NONTERM, config=AnalysisConfig(nonterm="auto"))
        assert result.status is AnalysisStatus.NONTERMINATING
        assert result.lasso is not None
        assert result.certificate_checked

    def test_auto_mode_still_proves_the_terminating_loop(self):
        result = analyze(TERM, config=AnalysisConfig(nonterm="auto"))
        assert result.status is AnalysisStatus.TERMINATING
        assert result.ranking is not None
        assert result.certificate_checked

    def test_auto_mode_unknown_keeps_both_messages(self):
        # Neither side can decide this one within the tiny budgets.
        source = (
            "var x, y; while (x + y > 0) "
            "{ x = nondet(); y = nondet(); assume(x + y < 100); }"
        )
        result = analyze(
            source,
            config=AnalysisConfig(
                nonterm="auto", max_iterations=3, nonterm_budget=1
            ),
        )
        assert result.status in (
            AnalysisStatus.UNKNOWN,
            AnalysisStatus.NONTERMINATING,
        )

    def test_acyclic_program_short_circuits(self):
        result = analyze("var x; x = 1;", config=AnalysisConfig(nonterm="auto"))
        assert result.status is AnalysisStatus.TERMINATING


def _run(name, source, mode):
    """Analyse with termite; return the result and its run-only metrics."""
    analysis = Analysis(source, config=AnalysisConfig(nonterm=mode), name=name)
    with recording() as build:
        analysis.problem()
    result = analysis.run("termite")
    return result, Counter(result.metrics) - Counter(build)


class TestAutoIsSequential:
    """``auto`` is termination, then nontermination if not proved."""

    @pytest.mark.parametrize(
        "name,source", PROGRAMS, ids=[name for name, _ in PROGRAMS]
    )
    def test_auto_is_off_then_only(self, name, source):
        off, off_run = _run(name, source, "off")
        auto, auto_run = _run(name, source, "auto")
        again, _ = _run(name, source, "auto")
        assert auto.metrics == again.metrics
        if off.status is AnalysisStatus.TERMINATING:
            assert auto.status is AnalysisStatus.TERMINATING
            assert auto.ranking == off.ranking
            assert auto.iterations == off.iterations
            assert auto.dimension == off.dimension
            assert auto.lp_statistics == off.lp_statistics
            assert auto.metrics == off.metrics
        else:
            _, only_run = _run(name, source, "only")
            assert auto_run == off_run + only_run
