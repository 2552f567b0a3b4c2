"""Tests for the abstract-interpretation engine."""


from repro.api import Analysis, AnalysisConfig, AnalysisStatus
from repro.benchsuite.registry import get_program
from repro.invariants.analyzer import compute_invariants
from repro.invariants.invariant_map import InvariantMap
from repro.linexpr.expr import var
from repro.linexpr.formula import disjunction
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


class TestGeneratorCounters:
    """The invariant stage reports how it used the generators."""

    def test_counters_appear_in_the_result_metrics(self):
        program = get_program("wtc", "cousot9")
        metrics = Analysis(program.source, name=program.name).run("termite").metrics
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
