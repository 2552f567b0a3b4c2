"""Tests for the abstract-interpretation engine."""

from pathlib import Path

from repro.api import Analysis, AnalysisConfig, AnalysisStatus
from repro.benchsuite.registry import get_program
from repro.invariants.analyzer import InvariantAnalyzer, compute_invariants
from repro.invariants.invariant_map import InvariantMap
from repro.linexpr.expr import var
from repro.linexpr.formula import disjunction
from repro.metrics import recording
from repro.polyhedra.polyhedron import Polyhedron
from repro.program.builder import AutomatonBuilder

x, y, i, j, n = var("x"), var("y"), var("i"), var("j"), var("n")


def counter_loop():
    builder = AutomatonBuilder(["i", "n"], initial="start", initial_condition=[n <= 100])
    builder.transition("start", "head", updates={"i": 0})
    builder.transition("head", "head", guard=[i < n], updates={"i": i + 1})
    return builder.build()


def two_sided_countdown():
    """Counts down from either side of 0; diverges when it starts at -5."""
    builder = AutomatonBuilder(
        ["x"],
        initial="init",
        initial_condition=disjunction([x >= 1, x <= -5]),
        integer_variables=["x"],
    )
    builder.transition("init", "head")
    builder.transition("head", "head", guard=[x >= 1], updates={"x": x - 1})
    builder.transition("head", "head", guard=[x <= -1], updates={"x": x - 1})
    builder.transition("head", "exit", guard=[x.eq(0)])
    return builder.build()


class TestPolyhedralInvariants:
    def test_counter_bounds(self):
        invariants = compute_invariants(counter_loop())
        head = invariants.get("head")
        assert head.entails_constraint(i >= 0)
        assert head.entails_constraint(i <= 100)

    def test_initial_condition_used(self):
        builder = AutomatonBuilder(["x"], initial="a", initial_condition=[x.eq(3)])
        builder.transition("a", "b", updates={"x": x + 1})
        invariants = compute_invariants(builder.build())
        assert invariants.get("b").entails_constraint(x.eq(4))

    def test_unreachable_location_is_empty(self):
        builder = AutomatonBuilder(["x"], initial="a")
        builder.transition("a", "b", guard=[x >= 0, x <= -1])
        invariants = compute_invariants(builder.build())
        assert invariants.get("b").is_empty()

    def test_paper_example1_invariant_supports_ranking(self):
        builder = AutomatonBuilder(
            ["x", "y"], initial="start", initial_condition=[x.eq(5), y.eq(10)]
        )
        builder.transition("start", "k0")
        builder.transition(
            "k0", "k0", guard=[x <= 10, y >= 0], updates={"x": x + 1, "y": y - 1}
        )
        builder.transition(
            "k0", "k0", guard=[x >= 0, y >= 0], updates={"x": x - 1, "y": y - 1}
        )
        invariant = compute_invariants(builder.build()).get("k0")
        assert invariant.entails_constraint(y >= -1)

    def test_nested_loop_invariants(self):
        builder = AutomatonBuilder(["i", "j"], initial="start")
        builder.transition("start", "1", updates={"i": 0})
        builder.transition("1", "2", guard=[i < 5], updates={"j": 0})
        builder.transition("2", "2", guard=[i >= 3, j <= 9], updates={"j": j + 1})
        builder.transition("2", "1", guard=[i <= 2], updates={"i": i + 1})
        builder.transition("2", "1", guard=[j > 9], updates={"i": i + 1})
        invariants = compute_invariants(builder.build())
        assert invariants.get("1").entails_constraint(i >= 0)
        assert invariants.get("1").entails_constraint(i <= 5)
        assert invariants.get("2").entails_constraint(i <= 4)
        assert invariants.get("2").entails_constraint(j <= 10)

    def test_disjunctive_initial_condition_seeds_every_disjunct(self):
        invariants = compute_invariants(two_sided_countdown())
        head = invariants.get("head")
        assert head.contains_point({"x": 1})
        assert head.contains_point({"x": -5})
        assert not head.entails_constraint(x >= 0)


class TestInvariantMap:
    def test_universal(self):
        invariants = InvariantMap.universal(["x"], ["a", "b"])
        assert invariants.get("a").is_universe()
        assert "b" in invariants

    def test_from_constraints(self):
        invariants = InvariantMap.from_constraints(["x"], {"a": [x >= 0]})
        assert invariants.get("a").entails_constraint(x >= 0)
        assert invariants.get("missing").is_universe()

    def test_formula(self):
        invariants = InvariantMap.from_constraints(["x"], {"a": [x >= 0, x <= 2]})
        from repro.smt.solver import SmtSolver

        solver = SmtSolver()
        solver.assert_formula(invariants.formula("a"))
        solver.assert_formula(x >= 3)
        assert solver.check().is_unsat


class TestDisjunctiveInitialCondition:
    """Seeding with only the first disjunct made the invariant unsound:
    the x ≤ -5 start was dropped and termination was "proved"."""

    def test_termination_is_not_claimed(self):
        result = Analysis(two_sided_countdown()).run()
        assert result.status is AnalysisStatus.UNKNOWN

    def test_nontermination_is_proved(self):
        result = Analysis(
            two_sided_countdown(), config=AnalysisConfig(nonterm="auto")
        ).run()
        assert result.status is AnalysisStatus.NONTERMINATING
        assert result.certificate_checked


def result_metrics(name):
    program = get_program("wtc", name)
    return Analysis(program.source, name=program.name).run("termite").metrics


class TestGeneratorCounters:
    """The invariant stage reports how it used the generators."""

    def test_counters_appear_in_the_result_metrics(self):
        metrics = result_metrics("wcet2")
        for name in (
            "polyhedra.polyhedron.transfers_on_generators",
            "polyhedra.polyhedron.transfers_by_fm",
            "polyhedra.projection.rows_by_saturation",
            "polyhedra.projection.rows_to_lp",
            "polyhedra.polyhedron.emptiness_without_lp",
        ):
            assert metrics.get(name, 0) > 0, name
        # Every row sent to the LP is one entailment LP.
        assert (
            metrics["polyhedra.projection.lp_calls"]
            >= metrics["polyhedra.projection.rows_to_lp"]
        )

    def test_locations_nothing_reads_are_not_minimised(self):
        # cousot9's two redundancy LPs were at locations outside the
        # cut-set; their values are no longer minimised.
        assert result_metrics("cousot9").get("polyhedra.projection.rows_to_lp", 0) == 0


class TestMinimisedWhenRead:
    """``run`` minimises a location's value when its constraints are first
    read; until then nothing is converted."""

    def test_reading_minimises_once(self, monkeypatch):
        calls = []
        minimized = Polyhedron.minimized

        def counted(polyhedron):
            calls.append(polyhedron)
            return minimized(polyhedron)

        monkeypatch.setattr(Polyhedron, "minimized", counted)
        invariants = compute_invariants(counter_loop())
        assert calls == []
        head = invariants.get("head")
        rows = head.constraints
        assert len(calls) == 1
        assert head.constraints == rows
        assert len(calls) == 1
        assert head.entails_constraint(i >= 0)
        assert head.entails_constraint(i <= 100)

    def test_the_emptiness_flag_is_kept(self):
        builder = AutomatonBuilder(["x"], initial="a")
        builder.transition("a", "b", guard=[x >= 0, x <= -1])
        invariants = compute_invariants(builder.build())
        with recording() as counters:
            assert invariants.get("b").is_empty()
        assert counters == {"polyhedra.polyhedron.emptiness_without_lp": 1}


class RecordingAnalyzer(InvariantAnalyzer):
    """Logs every post: its transition, source, image and whether the
    image was computed (``_image`` ran) or reused, and the phase."""

    def __init__(self, automaton):
        super().__init__(automaton)
        self.phase = "ascending"
        self.log = []
        self._computed = False

    def _descending_pass(self, values):
        self.phase = "descending"
        return super()._descending_pass(values)

    def _image(self, value, transition):
        self._computed = True
        return super()._image(value, transition)

    def _post(self, value, transition):
        self._computed = False
        image = super()._post(value, transition)
        self.log.append((self.phase, transition, value, image, self._computed))
        return image


class TestPostReuse:
    """The descending pass reuses the ascending phase's final posts."""

    def recorded(self):
        program = get_program("wtc", "cousot9")
        analyzer = RecordingAnalyzer(Analysis(program.source).automaton())
        analyzer.run()
        return analyzer.log

    def test_a_reused_post_is_the_ascending_phase_image(self):
        log = self.recorded()
        built = {
            id(transition): image
            for phase, transition, _, image, computed in log
            if phase == "ascending" and computed
        }
        reused = [entry for entry in log if not entry[4]]
        assert reused
        for phase, transition, _, image, _ in reused:
            assert phase == "descending"
            assert image is built[id(transition)]

    def test_a_changed_source_is_never_reused(self):
        last_source = {}
        for _, transition, value, _, computed in self.recorded():
            if last_source.get(id(transition)) is not value:
                assert computed
            else:
                assert not computed
            last_source[id(transition)] = value

    def test_an_equal_but_distinct_source_is_posted_again(self):
        analyzer = InvariantAnalyzer(counter_loop())
        transition = analyzer.automaton.outgoing("head")[0]
        first = Polyhedron.universe(analyzer.variables)
        with recording() as counters:
            image = analyzer._post(first, transition)
            assert analyzer._post(first, transition) is image
            again = analyzer._post(Polyhedron.universe(analyzer.variables), transition)
        assert again is not image
        assert again.equals(image)
        assert counters["invariants.analyzer.posts_reused"] == 1

    def test_listing1_reuses_posts(self):
        source = (Path(__file__).parents[2] / "examples" / "listing1.imp").read_text()
        with recording() as counters:
            Analysis(source, name="listing1").problem()
        assert counters["invariants.analyzer.posts_reused"] > 0
