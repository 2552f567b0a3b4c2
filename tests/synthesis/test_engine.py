"""The CEGIS engine: budgets, events, and the shared elimination loop."""

import pytest

from repro.api import Analysis, AnalysisConfig
from repro.api.pipeline import analyze
from repro.api.request import AnalysisRequest
from repro.benchsuite.registry import get_suite
from repro.checking.generator import ProgramGenerator
from repro.metrics import recording
from repro.synthesis.engine import (
    CegisEngine,
    MaxIterationsExceeded,
    eliminate_lexicographic,
)
from repro.synthesis.oracles import make_oracle


def build_problem(automaton):
    return Analysis(automaton).problem()


def make_engine(observers=(), max_iterations=200, oracle="smt", extremal=True):
    return CegisEngine(
        make_oracle(oracle),
        extremal=extremal,
        max_iterations=max_iterations,
        observers=observers,
    )


class TestComponentSynthesis:
    def test_example1_strict_component(self, example1_automaton):
        problem = build_problem(example1_automaton)
        with recording() as counters:
            result = make_engine().synthesize_component(problem)
        assert result.strict
        assert not result.is_trivial
        assert counters["synthesis.engine.counterexamples"] >= 1

    @pytest.mark.parametrize("oracle", ["smt", "dd"])
    def test_stutter_check_reuses_the_oracle_context(
        self, oracle, countdown_automaton, monkeypatch
    ):
        """The strict component's ``u = 0`` query builds no solver of its own."""
        from repro.smt.solver import SmtSolver

        problem = build_problem(countdown_automaton)
        builds = []
        original = SmtSolver.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SmtSolver, "__init__", counting_init)
        result = make_engine(oracle=oracle).synthesize_component(problem)
        assert result.strict
        # dd builds its confirmation context only when enumeration runs dry.
        assert len(builds) == 1 if oracle == "smt" else len(builds) <= 1

    def test_stutter_gives_non_strict(self, stutter_automaton):
        problem = build_problem(stutter_automaton)
        result = make_engine().synthesize_component(problem)
        assert not result.strict

    def test_iteration_budget_enforced(self, example1_automaton):
        problem = build_problem(example1_automaton)
        with pytest.raises(MaxIterationsExceeded):
            make_engine(max_iterations=0).synthesize_component(problem)

    def test_budget_overrun_reports_the_iterations_run(self):
        source = next(p for p in get_suite("wtc") if p.name == "wise").source
        result = Analysis(
            source, config=AnalysisConfig(max_iterations=2)
        ).run("termite")
        assert result.status.value == "unknown"
        assert "exceeded 2 iterations" in result.message
        assert result.iterations == result.lp_statistics.oracle_queries
        assert result.iterations >= 2

    def test_theory_round_cap_reports_unknown(self, monkeypatch):
        import repro.smt.solver as solver_module

        # wtc/wcet2 is proved without the cap, and one of its queries
        # still needs a second theory round.
        source = next(p for p in get_suite("wtc") if p.name == "wcet2").source
        assert Analysis(source).run("termite").proved
        monkeypatch.setattr(solver_module, "MAX_THEORY_ROUNDS", 1)
        result = Analysis(source).run("termite")
        assert result.status.value == "unknown"
        assert "did not converge within 1 rounds" in result.message
        assert result.metrics["smt.solver.round_cap_hits"] == 1

    def test_unified_counters_folded_into_lp_statistics(
        self, example1_automaton
    ):
        from repro.core.lp_instance import LpStatistics

        problem = build_problem(example1_automaton)
        with recording() as counters:
            result = make_engine().synthesize_component(problem)
        shared = LpStatistics.from_metrics(counters)
        assert shared.oracle_queries == result.iterations
        assert shared.cex_rows == (
            counters["synthesis.engine.counterexamples"]
            + counters.get("synthesis.engine.rays", 0)
        )
        assert shared.instances >= 1
        # The counters survive the JSON round-trip.
        assert LpStatistics.from_dict(shared.to_dict()) == shared


class TestLexicographic:
    def test_example1_dimension_one(self, example1_automaton):
        problem = build_problem(example1_automaton)
        outcome = make_engine().synthesize_lexicographic(problem)
        assert outcome.success
        assert outcome.dimension == 1

    def test_failure_reported(self, stutter_automaton):
        problem = build_problem(stutter_automaton)
        outcome = make_engine().synthesize_lexicographic(problem)
        assert not outcome.success
        assert outcome.ranking is None

    @pytest.mark.parametrize("oracle", ["smt", "dd"])
    def test_flat_rays_do_not_block_strictness(self, oracle):
        # The step set from the outer to the inner loop head holds a
        # line: δ = 0 on its two rays, while every vertex decreases.
        # Strictness counts the vertices, so one component proves it.
        program = ProgramGenerator(0).generate(8)
        assert program.name == "fuzz-0-8-nested"
        result = analyze(
            AnalysisRequest(
                program=program.source,
                name=program.name,
                config=AnalysisConfig(cex_oracle=oracle),
            )
        )
        assert result.proved
        assert result.dimension == 1
        assert result.details["certificate_verdict"]["status"] == "valid"

    def test_max_dimension_cap(self, lexicographic_automaton):
        problem = build_problem(lexicographic_automaton)
        outcome = make_engine().synthesize_lexicographic(
            problem, max_dimension=1
        )
        assert outcome.dimension <= 1


class TestEvents:
    def test_event_stream_is_well_bracketed(self, example1_automaton):
        problem = build_problem(example1_automaton)
        events = []
        engine = make_engine(observers=[events.append])
        engine.synthesize_lexicographic(problem)

        kinds = [event.kind for event in events]
        assert kinds[0] == "component_start"
        assert kinds[-1] == "component_end"
        assert kinds.count("component_start") == kinds.count("component_end")
        iterations = [e for e in events if e.kind == "iteration"]
        assert iterations, "no per-iteration events emitted"
        # Iterations are numbered 1.. within their component.
        for component in {event.component for event in iterations}:
            numbers = [
                event.iteration
                for event in iterations
                if event.component == component
            ]
            assert numbers == list(range(1, len(numbers) + 1))

    def test_component_start_names_oracle_and_strategy(
        self, countdown_automaton
    ):
        problem = build_problem(countdown_automaton)
        events = []
        engine = make_engine(
            observers=[events.append], oracle="dd", extremal=False
        )
        engine.synthesize_component(problem)
        start = events[0]
        assert start.payload["oracle"] == "dd"
        assert start.payload["strategy"] == "arbitrary"


class TestEliminateLexicographic:
    def test_empty_items_trivially_proved(self):
        components, remaining, proved = eliminate_lexicographic(
            [], lambda remaining: pytest.fail("must not be called"), 4
        )
        assert proved and not components and not remaining

    def test_eliminates_until_done(self):
        calls = []

        def find(remaining):
            calls.append(list(remaining))
            return ("c%d" % len(calls), [0])

        components, remaining, proved = eliminate_lexicographic(
            ["a", "b", "c"], find, 10
        )
        assert proved
        assert components == ["c1", "c2", "c3"]
        assert calls == [["a", "b", "c"], ["b", "c"], ["c"]]

    def test_stops_without_progress(self):
        components, remaining, proved = eliminate_lexicographic(
            ["a", "b"], lambda remaining: None, 10
        )
        assert not proved
        assert remaining == ["a", "b"]
        assert components == []

    def test_dimension_cap(self):
        components, remaining, proved = eliminate_lexicographic(
            ["a", "b", "c"], lambda remaining: ("c", [0]), 2
        )
        assert not proved
        assert len(components) == 2
        assert remaining == ["c"]

    def test_batch_elimination(self):
        components, remaining, proved = eliminate_lexicographic(
            ["a", "b", "c"], lambda remaining: ("c", list(range(len(remaining)))), 4
        )
        assert proved and len(components) == 1 and not remaining


class TestDeterminism:
    """A run is a function of its program and configuration alone."""

    @staticmethod
    def _event_stream(problem, extremal):
        events = []
        engine = make_engine(
            observers=[events.append], oracle="dd", extremal=extremal
        )
        engine.synthesize_lexicographic(problem)
        return [
            (event.kind, event.component, event.iteration, repr(event.payload))
            for event in events
        ]

    def test_repeat_runs_identical_event_streams(self, example1_automaton):
        problem = build_problem(example1_automaton)
        first = self._event_stream(problem, extremal=True)
        assert first == self._event_stream(problem, extremal=True)

    def test_repeat_runs_identical_streams_arbitrary(
        self, lexicographic_automaton
    ):
        problem = build_problem(lexicographic_automaton)
        first = self._event_stream(problem, extremal=False)
        assert first == self._event_stream(problem, extremal=False)
