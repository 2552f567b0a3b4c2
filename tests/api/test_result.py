"""AnalysisResult: exact JSON round-trips, including rankings and stats."""

import json
from fractions import Fraction

import pytest

from repro.api import (
    AnalysisResult,
    AnalysisStatus,
    Provenance,
    StageTiming,
    analyze,
)
from repro.api.result import ranking_from_dict, ranking_to_dict
from repro.core.lp_instance import LpStatistics, record_lp
from repro.core.ranking import (
    AffineRankingFunction,
    LexicographicRankingFunction,
)
from repro.linalg.vector import Vector
from repro.metrics import recording

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"


def _sample_ranking() -> LexicographicRankingFunction:
    return LexicographicRankingFunction(
        [
            AffineRankingFunction(
                variables=("x", "y"),
                coefficients={
                    "k0": Vector([Fraction(11), Fraction(1)]),
                    "k1": Vector([Fraction(-2, 3), Fraction(0)]),
                },
                offsets={"k0": Fraction(-1), "k1": Fraction(5, 7)},
                strict=True,
            ),
            AffineRankingFunction(
                variables=("x", "y"),
                coefficients={"k0": Vector([Fraction(0), Fraction(1)])},
                offsets={"k0": Fraction(0)},
            ),
        ]
    )


class TestRankingSerialisation:
    def test_round_trip_is_exact(self):
        ranking = _sample_ranking()
        through_json = json.loads(json.dumps(ranking_to_dict(ranking)))
        assert ranking_from_dict(through_json) == ranking

    def test_fractions_survive_exactly(self):
        ranking = _sample_ranking()
        rebuilt = ranking_from_dict(ranking_to_dict(ranking))
        assert rebuilt.components[0].offsets["k1"] == Fraction(5, 7)
        assert rebuilt.components[0].coefficients["k1"][0] == Fraction(-2, 3)

    def test_empty_ranking(self):
        empty = LexicographicRankingFunction()
        assert ranking_from_dict(ranking_to_dict(empty)) == empty


class TestResultSerialisation:
    def test_synthetic_round_trip_is_exact(self):
        with recording() as counts:
            record_lp(5, 7, 3, warm=True)
        statistics = LpStatistics.from_metrics(counts)
        result = AnalysisResult(
            tool="termite",
            program="sample",
            status=AnalysisStatus.TERMINATING,
            ranking=_sample_ranking(),
            time_seconds=0.125,
            iterations=4,
            dimension=2,
            lp_statistics=statistics,
            certificate_checked=True,
            problem_statistics={"blocks": 2, "cutpoints": 1},
            stages=[StageTiming("invariants", 0.01), StageTiming("synthesis", 0.1)],
            message="all good",
            details={"disjuncts": 3},
            metrics={"smt.solver.sat_calls": 12, "lp.ilp.bb_limit_fallbacks": 1},
        )
        rebuilt = AnalysisResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert rebuilt.metrics == result.metrics
        assert AnalysisResult.from_json(result.to_json()) == result

    def test_failure_round_trip(self):
        result = AnalysisResult(
            tool="dnf",
            program="broken",
            status=AnalysisStatus.TIMEOUT,
            time_seconds=30.0,
            error="timeout after 30.0s",
            timed_out=True,
        )
        assert AnalysisResult.from_json(result.to_json()) == result

    def test_real_analysis_round_trips(self):
        result = analyze(COUNTDOWN, tool="termite", name="countdown")
        assert result.proved and result.ranking is not None
        rebuilt = AnalysisResult.from_json(result.to_json())
        assert rebuilt == result
        assert rebuilt.ranking.pretty() == result.ranking.pretty()
        assert rebuilt.metrics == result.metrics != {}

    def test_status_string_compatibility(self):
        # The enum inherits str: old-style string comparisons keep working.
        result = analyze(COUNTDOWN)
        assert result.status == "terminating"
        assert result.proved

    def test_derived_json_keys_present(self):
        document = analyze(COUNTDOWN).to_dict()
        assert document["proved"] is True
        assert document["time_ms"] > 0
        assert {"instances", "average_rows", "pivots"} <= set(document["lp"])

    def test_provenance_round_trips(self):
        result = AnalysisResult(
            tool="termite",
            program="sample",
            status=AnalysisStatus.TERMINATING,
            provenance=Provenance(
                cache="hit", key="ab" * 32, revalidated=True, worker_pid=42
            ),
        )
        rebuilt = AnalysisResult.from_json(result.to_json())
        assert rebuilt == result
        assert rebuilt.provenance.cache == "hit"
        assert rebuilt.provenance.revalidated is True
        assert rebuilt.provenance.worker_pid == 42

    def test_provenance_with_a_removed_degraded_entry_loads(self):
        # Payloads stored while the service still shed work under load
        # carry a ``degraded`` list; it is ignored on load and not written.
        provenance = Provenance.from_dict(
            {
                "cache": "miss",
                "key": "cd" * 32,
                "revalidated": False,
                "worker_pid": 7,
                "degraded": ["nonterm:auto->off"],
            }
        )
        assert provenance == Provenance(cache="miss", key="cd" * 32, worker_pid=7)
        assert "degraded" not in provenance.to_dict()

    def test_provenance_defaults_to_none(self):
        result = analyze(COUNTDOWN)
        assert result.provenance is None
        assert result.to_dict()["provenance"] is None
        assert AnalysisResult.from_json(result.to_json()).provenance is None

    def test_provenance_rejects_unknown_disposition(self):
        with pytest.raises(ValueError):
            Provenance(cache="maybe")

    def test_stage_seconds_helper(self):
        result = analyze(COUNTDOWN)
        stage_names = [stage.name for stage in result.stages]
        assert stage_names == [
            "frontend",
            "invariants",
            "cutset",
            "large_block",
            "synthesis",
            "certificate",
        ]
        assert result.time_seconds == sum(s.seconds for s in result.stages)
        assert result.stage_seconds("synthesis") > 0
