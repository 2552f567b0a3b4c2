"""The staged pipeline: hook ordering, problem caching, batch execution."""

import os
import subprocess
import sys
from collections import Counter

import pytest

import repro
from repro.api import (
    Analysis,
    AnalysisConfig,
    STAGES,
    analyze,
    analyze_many,
)
from repro.api.pipeline import run_tools_on_program
from repro.api.result import AnalysisResult
from repro.core.lp_instance import LpStatistics
from repro.benchsuite import get_suite
from repro.frontend import compile_program
from repro.metrics import recording
from repro.reporting.runner import run_suite

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"
NESTED = """
var i, j, n;
assume(n >= 0 and n <= 1000);
i = 0;
while (i < n) {
    j = 0;
    while (j < n) { j = j + 1; }
    i = i + 1;
}
"""


class TestStageHooks:
    def test_events_arrive_in_pipeline_order(self):
        events = []
        analysis = Analysis(
            COUNTDOWN,
            observers=[lambda event, stage, seconds: events.append((event, stage))],
        )
        analysis.run("termite")
        expected = []
        for stage in STAGES:
            expected.extend([("start", stage), ("end", stage)])
        assert events == expected

    def test_end_events_carry_seconds(self):
        seconds = []
        analysis = Analysis(
            COUNTDOWN,
            observers=[
                lambda event, stage, elapsed: seconds.append(elapsed)
                if event == "end"
                else None
            ],
        )
        analysis.run("termite")
        assert len(seconds) == len(STAGES)
        assert all(value >= 0.0 for value in seconds)

    def test_certificate_stage_skipped_when_disabled(self):
        events = []
        analysis = Analysis(
            COUNTDOWN,
            config=AnalysisConfig(check_certificates=False),
            observers=[lambda event, stage, seconds: events.append(stage)],
        )
        result = analysis.run("termite")
        assert result.proved
        assert "certificate" not in events

    def test_build_stages_fire_once_across_tools(self):
        events = []
        analysis = Analysis(
            COUNTDOWN,
            observers=[
                lambda event, stage, seconds: events.append(stage)
                if event == "start"
                else None
            ],
        )
        analysis.run("termite")
        analysis.run("heuristic")
        assert events.count("invariants") == 1
        assert events.count("synthesis") == 2


class TestProblemCache:
    def test_problem_is_cached_and_shared(self):
        analysis = Analysis(NESTED)
        first = analysis.problem()
        assert analysis.problem_built
        assert analysis.problem() is first
        analysis.run("heuristic")
        assert analysis.problem() is first

    def test_results_share_build_timings(self):
        analysis = Analysis(NESTED, config=AnalysisConfig(check_certificates=False))
        termite = analysis.run("termite")
        heuristic = analysis.run("heuristic")
        build = [(s.name, s.seconds) for s in termite.stages if s.name != "synthesis"]
        other = [(s.name, s.seconds) for s in heuristic.stages if s.name != "synthesis"]
        assert build == other
        assert analysis.build_seconds() > 0

    def test_automaton_input_records_zero_cost_frontend(self):
        automaton = compile_program(COUNTDOWN, "countdown")
        result = Analysis(automaton).run("termite")
        assert result.stage_seconds("frontend") == 0.0
        assert result.proved

    def test_automaton_and_source_inputs_agree(self):
        automaton = compile_program(NESTED, "nested")
        compiled = Analysis(automaton).run("termite")
        parsed = analyze(NESTED, tool="termite", name="nested")
        assert compiled.proved == parsed.proved is True
        assert compiled.dimension == parsed.dimension

    def test_rejects_unknown_program_type(self):
        with pytest.raises(TypeError):
            Analysis(42)


class TestProjectionSavingsAttribution:
    def test_build_savings_reappear_in_every_result(self):
        # Like the shared build-stage timings, the counters of the
        # problem build (the LP calls the pruned projection saved among
        # them) belong to every result of the Analysis, not just
        # whichever tool ran first; each run adds only its own.
        analysis = Analysis(
            NESTED,
            config=AnalysisConfig(check_certificates=False),
            name="nested",
        )
        with recording() as build:
            analysis.problem()
        with recording() as termite:
            first = analysis.run("termite")
        with recording() as heuristic:
            second = analysis.run("heuristic")
        assert build["polyhedra.projection.lp_calls_saved"] > 0
        assert first.metrics == dict(Counter(build) + Counter(termite))
        assert second.metrics == dict(Counter(build) + Counter(heuristic))
        assert termite["smt.solver.sat_calls"] > 0


#: Terminates, but not provably with interval-free polyhedral invariants
#: from an unbounded start, and has no recurrence set: UNKNOWN both ways.
UNDECIDED = "var x, y; while (x > 0) { x = x + y; y = y - 1; }"


def _minus(metrics, build):
    return dict(Counter(metrics) - Counter(build))


def _undecided_runs():
    """UNDECIDED under each ``nonterm`` mode: results and build counts."""
    results = {}
    builds = {}
    for mode in ("off", "only", "auto"):
        analysis = Analysis(
            UNDECIDED, config=AnalysisConfig(nonterm=mode), name="undecided"
        )
        with recording() as build:
            analysis.problem()
        results[mode] = analysis.run("termite")
        builds[mode] = build
    return results, builds


class TestMetrics:
    def test_program_analysed_twice_gives_identical_metrics(self):
        first = Analysis(NESTED, name="nested").run("termite")
        second = Analysis(NESTED, name="nested").run("termite")
        assert first.metrics["smt.solver.theory_calls"] > 0
        assert first.metrics == second.metrics

    def test_jobs_do_not_change_per_program_metrics(self):
        programs = get_suite("wtc")[:4]
        serial = run_suite("wtc", programs, jobs=1)
        parallel = run_suite("wtc", programs, jobs=2)
        assert [r.metrics for r in serial.outcomes] == [
            r.metrics for r in parallel.outcomes
        ]
        assert all(r.metrics for r in serial.outcomes)

    def test_auto_race_counts_both_lanes_exactly_once(self):
        # An undecided auto run is an "off" run followed by an "only" run.
        results, builds = _undecided_runs()
        assert all(r.status == "unknown" for r in results.values())
        lanes = Counter(_minus(results["off"].metrics, builds["off"])) + Counter(
            _minus(results["only"].metrics, builds["only"])
        )
        assert _minus(results["auto"].metrics, builds["auto"]) == dict(lanes)
        assert lanes["smt.solver.sat_calls"] > 0
        assert lanes["nontermination.engine.candidates"] > 0

    def test_auto_lanes_merge_max_counters(self):
        # The lanes' run counters merge by the recorder's rule: sums, but
        # a ``.max`` counter keeps the larger of the two lanes' values.
        results, builds = _undecided_runs()
        off, only, auto = (
            _minus(results[mode].metrics, builds[mode])
            for mode in ("off", "only", "auto")
        )
        assert off["core.lp_instance.rows.max"] > 0
        for name in set(off) | set(only):
            lanes = (off.get(name, 0), only.get(name, 0))
            expected = max(lanes) if name.endswith(".max") else sum(lanes)
            assert auto[name] == expected, name
        assert results["auto"].lp_statistics == results["off"].lp_statistics
        assert results["only"].lp_statistics == LpStatistics()

    def test_lp_statistics_is_the_view_of_the_synthesis_counts(self):
        result = Analysis(NESTED, name="nested").run("termite")
        rebuilt = AnalysisResult.from_json(result.to_json())
        assert rebuilt.lp_statistics == result.lp_statistics
        assert rebuilt.lp_statistics == LpStatistics.from_metrics(rebuilt.metrics)
        assert rebuilt.lp_statistics.instances > 0
        assert rebuilt.lp_statistics.max_rows == rebuilt.metrics[
            "core.lp_instance.rows.max"
        ]

    def test_budget_overrun_keeps_the_counts_of_the_aborted_component(self):
        config = AnalysisConfig(max_iterations=1)
        result = Analysis(NESTED, config=config, name="nested").run("termite")
        assert result.status == "unknown"
        assert "exceeded 1 iterations" in result.message
        assert result.iterations == result.lp_statistics.oracle_queries >= 1
        assert result.lp_statistics.instances > 0


class TestBatchExecution:
    def test_run_tools_on_program_shares_one_build(self):
        results = run_tools_on_program(
            COUNTDOWN, ["termite", "heuristic", "dnf"],
            AnalysisConfig(check_certificates=False), name="countdown",
        )
        assert [r.tool for r in results] == ["termite", "heuristic", "dnf"]
        assert all(r.proved for r in results)
        builds = {
            tuple(
                (s.name, s.seconds) for s in r.stages if s.name != "synthesis"
            )
            for r in results
        }
        assert len(builds) == 1  # one shared problem build

    def test_build_failure_yields_error_result_per_tool(self):
        results = run_tools_on_program(
            "var x; while (", ["termite", "heuristic"], name="broken"
        )
        assert len(results) == 2
        assert all(r.status == "error" for r in results)
        assert all(r.error for r in results)

    def test_analyze_many_is_program_major_and_deterministic(self):
        inline = analyze_many(
            [COUNTDOWN, NESTED], tools=["heuristic", "dnf"],
            names=["countdown", "nested"],
        )
        assert [(r.program, r.tool) for r in inline] == [
            ("countdown", "heuristic"),
            ("countdown", "dnf"),
            ("nested", "heuristic"),
            ("nested", "dnf"),
        ]
        parallel = analyze_many(
            [COUNTDOWN, NESTED], tools=["heuristic", "dnf"],
            names=["countdown", "nested"], jobs=2, timeout=120,
        )
        assert [(r.program, r.tool, r.proved) for r in parallel] == [
            (r.program, r.tool, r.proved) for r in inline
        ]


def test_import_leaves_numpy_unloaded():
    # Every LP and projection runs on exact Python integers.
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro, repro.cli, repro.service\n"
        "assert 'numpy' not in sys.modules, 'importing repro loaded numpy'\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env=dict(os.environ, PYTHONPATH=source_root),
    )
