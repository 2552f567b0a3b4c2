"""End-to-end reproduction of the paper's worked examples."""


from repro.api import Analysis, AnalysisConfig, analyze
from repro.core import check_certificate


class TestExample1:
    def test_terminates_with_dimension_one(self, example1_automaton):
        result = analyze(example1_automaton)
        assert result.proved
        assert result.dimension == 1
        assert result.certificate_checked

    def test_ranking_depends_on_y(self, example1_automaton):
        result = analyze(example1_automaton)
        component = result.ranking.components[0]
        expression = component.expression("k0")
        # The paper derives ρ(x, y) = y + 1; any valid witness must give y a
        # positive coefficient and x a non-positive influence.
        assert expression.coefficient("y") > 0

    def test_lp_instances_stay_tiny(self, example1_automaton):
        result = analyze(example1_automaton)
        assert result.lp_statistics.max_rows <= 5

    def test_explicit_paper_invariant(self, example1_automaton):
        from repro.invariants.invariant_map import InvariantMap
        from repro.linexpr.expr import var

        x, y = var("x"), var("y")
        invariants = InvariantMap.from_constraints(
            ["x", "y"],
            {
                "k0": [x + 1 >= 0, x <= 11, y + 1 >= 0, y <= x + 5, x + y <= 15],
                "start": [x.eq(5), y.eq(10)],
            },
        )
        result = Analysis(example1_automaton, invariants=invariants).run("termite")
        assert result.proved
        assert result.certificate_checked


class TestExample3:
    def test_algorithm_terminates_even_without_proof(self, example3_automaton):
        """The naive loop would diverge; the corrected one must halt."""
        config = AnalysisConfig(max_iterations=60)
        result = Analysis(example3_automaton, config=config).run("termite")
        assert result.status in ("terminating", "unknown")

    def test_no_false_positives_from_rays(self, example3_automaton):
        result = analyze(example3_automaton)
        if result.proved:
            problem = Analysis(example3_automaton).problem()
            assert check_certificate(problem, result.ranking)


class TestExample4:
    def test_nested_loop_proved(self, example4_automaton):
        result = analyze(example4_automaton)
        assert result.proved
        assert result.certificate_checked

    def test_multi_control_point_ranking(self, example4_automaton):
        result = analyze(example4_automaton)
        component = result.ranking.components[0]
        assert set(component.coefficients) == {"1", "2"}


class TestClassics:
    def test_countdown(self, countdown_automaton):
        result = analyze(countdown_automaton)
        assert result.proved and result.dimension == 1

    def test_stutter_is_not_proved(self, stutter_automaton):
        result = analyze(stutter_automaton)
        assert not result.proved

    def test_lexicographic_family(self, lexicographic_automaton):
        result = analyze(lexicographic_automaton)
        assert result.proved
        assert result.certificate_checked

    def test_random_walk_not_proved(self):
        from repro.linexpr.expr import var
        from repro.program.builder import AutomatonBuilder

        x = var("x")
        builder = AutomatonBuilder(["x"], initial="k")
        builder.transition("k", "k", guard=[x > 0], updates={"x": None})
        result = analyze(builder.build())
        assert not result.proved
