"""Oracle unit behaviour: witnesses, exhaustion, determinism."""

from fractions import Fraction
from pathlib import Path

import pytest

from repro.api import Analysis, AnalysisConfig
from repro.benchsuite.registry import get_suite
from repro.checking.checker import CertificateVerdict, check_ranking
from repro.linexpr.constraint import Relation
from repro.linexpr.expr import LinExpr
from repro.metrics import recording
from repro.synthesis.engine import CegisEngine
from repro.synthesis.oracles import (
    DdEnumerationOracle,
    SmtOptimizingOracle,
    make_oracle,
)


def problem_for(automaton):
    return Analysis(automaton).problem()


def zero_objective(problem):
    """The first engine query: refute the all-zero candidate."""
    return problem.zero_ranking().stacked_vector(problem.cutset)


#: ``examples/listing1.imp``: the paper's Listing 1.
EXAMPLE_LISTING1 = (
    Path(__file__).parents[2] / "examples" / "listing1.imp"
).read_text()


def wtc_source(name):
    return next(p for p in get_suite("wtc") if p.name == name).source


class TestSmtOracle:
    def test_extremal_witness_on_countdown(self, countdown_automaton):
        problem = problem_for(countdown_automaton)
        oracle = SmtOptimizingOracle()
        oracle.reset(problem, ())
        objective = zero_objective(problem)
        group = oracle.find(objective, [])
        assert group, "the zero candidate must be refutable"
        witness = group[0]
        assert witness.kind == "vertex"
        assert not witness.vector.is_zero()
        # The witness is a genuine non-increasing step: λ·u ≤ 0 with λ = 0.
        assert objective.dot(witness.vector) == 0

    def test_arbitrary_model_also_violates(self, countdown_automaton):
        problem = problem_for(countdown_automaton)
        oracle = SmtOptimizingOracle()
        oracle.reset(problem, ())
        group = oracle.find(zero_objective(problem), [], extremal=False)
        assert group and group[0].kind == "vertex"

    def test_factory_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown counterexample oracle"):
            make_oracle("magic")
        with pytest.raises(ValueError, match="unknown counterexample oracle"):
            make_oracle("sampling")
        assert make_oracle("smt").name == "smt"
        instance = DdEnumerationOracle()
        assert make_oracle(instance) is instance


class TestDdOracle:
    def test_returns_enumerated_generators(self, countdown_automaton):
        problem = problem_for(countdown_automaton)
        oracle = DdEnumerationOracle()
        oracle.reset(problem, ())
        objective = zero_objective(problem)
        group = oracle.find(objective, [])
        assert group
        for witness in group:
            assert witness.origin == "dd"
            assert objective.dot(witness.vector) <= 0

    def test_consumed_generators_are_not_returned_again(
        self, countdown_automaton
    ):
        problem = problem_for(countdown_automaton)
        oracle = DdEnumerationOracle()
        oracle.reset(problem, ())
        objective = zero_objective(problem)
        handed_out = []
        while True:
            group = oracle.find(objective, [])
            if group is None or group[0].origin == "smt":
                # Everything enumerable was handed out; anything further
                # comes from the SMT confirmation path, or nothing does.
                break
            handed_out.extend(witness.vector for witness in group)
        assert handed_out
        assert len(handed_out) == len(set(map(tuple, handed_out)))

    def test_exhaustion_is_smt_confirmed(self, countdown_automaton):
        problem = problem_for(countdown_automaton)
        oracle = DdEnumerationOracle()
        oracle.reset(problem, ())
        # A candidate that strictly decreases on every step of
        # `while (x > 0) x = x - 1`: rank by x at the only cut point.
        from repro.core.ranking import AffineRankingFunction
        from repro.linalg.vector import Vector

        location = problem.cutset[0]
        candidate = AffineRankingFunction(
            problem.variables,
            {location: Vector([Fraction(1)])},
            {location: Fraction(0)},
        )
        with recording() as counters:
            group = oracle.find(candidate.stacked_vector(problem.cutset), [])
        assert group is None
        # One complete query, counted once (by the SMT oracle it runs).
        assert counters["synthesis.oracles.smt_queries"] == 1
        assert counters["smt.optimize.queries"] == 1

    def test_arbitrary_exhaustion_check_does_not_minimise(
        self, countdown_automaton
    ):
        """The confirming SMT query honours ``extremal=False`` too."""
        problem = problem_for(countdown_automaton)
        oracle = DdEnumerationOracle()
        oracle.reset(problem, ())
        from repro.core.ranking import AffineRankingFunction
        from repro.linalg.vector import Vector

        location = problem.cutset[0]
        candidate = AffineRankingFunction(
            problem.variables,
            {location: Vector([Fraction(1)])},
            {location: Fraction(0)},
        )
        with recording() as counters:
            group = oracle.find(
                candidate.stacked_vector(problem.cutset), [], False
            )
        assert group is None
        assert counters["synthesis.oracles.smt_queries"] == 1
        assert "smt.optimize.queries" not in counters

    @pytest.mark.parametrize("oracle", ["smt", "dd"])
    def test_arbitrary_runs_issue_no_optimize_query(self, oracle):
        """§4.2's arbitrary lane never minimises, whatever the oracle."""
        config = AnalysisConfig(cex_oracle=oracle, cex_strategy="arbitrary")
        result = Analysis(EXAMPLE_LISTING1, config=config).run("termite")
        assert result.proved
        optimize = [name for name in result.metrics if name.startswith("smt.optimize.")]
        assert optimize == []

    @pytest.mark.parametrize("extremal", [True, False])
    def test_rays_come_with_a_vertex(self, extremal):
        """A ray alone gives the LP no point to separate (``wtc/wise``)."""
        problem = Analysis(wtc_source("wise")).problem()
        events = []
        engine = CegisEngine(
            DdEnumerationOracle(), extremal=extremal, observers=[events.append]
        )
        outcome = engine.synthesize_lexicographic(problem)
        assert outcome.success
        rounds = [e.payload for e in events if e.kind == "iteration"]
        assert any(payload.get("rays") for payload in rounds)
        for payload in rounds:
            if payload.get("rays"):
                assert payload["counterexamples"] >= 1


class TestDdProvesWise:
    @pytest.mark.parametrize("strategy", ["extremal", "arbitrary"])
    def test_wise_is_proved_with_a_valid_certificate(self, strategy):
        config = AnalysisConfig(cex_oracle="dd", cex_strategy=strategy)
        analysis = Analysis(wtc_source("wise"), config=config, name="wise")
        result = analysis.run("termite")
        assert result.status.value == "terminating"
        verdict = check_ranking(analysis.problem(), result.ranking)
        assert verdict.status == CertificateVerdict.VALID

    def test_path_polyhedra_are_expanded_once_per_run(self, monkeypatch):
        import repro.core.problem

        expanded = []
        original = repro.core.problem.dnf_conjunctions

        def counted(formula):
            expanded.append(formula)
            return original(formula)

        monkeypatch.setattr(repro.core.problem, "dnf_conjunctions", counted)
        config = AnalysisConfig(cex_oracle="dd")
        analysis = Analysis(wtc_source("wise"), config=config, name="wise")
        blocks = len(analysis.problem().blocks)
        result = analysis.run("termite")
        # Two components: the oracle was reset twice on the one expansion.
        assert result.dimension == 2
        assert len(expanded) == blocks
        # A second run is charged its own expansion.
        analysis.run("termite")
        assert len(expanded) == 2 * blocks


class TestStateSpaceTranslation:
    def test_flatness_constraint_translates_exactly(self, example1_automaton):
        """λ·u = 0 for a stacked λ becomes the same linear fact in state space."""
        problem = Analysis(example1_automaton).problem()
        # Use a non-trivial candidate: rank by x + 2y at the cut point.
        from repro.core.ranking import AffineRankingFunction
        from repro.linalg.vector import Vector
        from repro.linexpr.transform import prime_suffix

        location = problem.cutset[0]
        candidate = AffineRankingFunction(
            problem.variables,
            {location: Vector([Fraction(1), Fraction(2)])},
            {location: Fraction(3)},
        )
        flat = candidate.stacked_vector(problem.cutset)
        translated = problem.block_map(location, location).form(flat).eq(0)
        assert translated.relation is Relation.EQ
        # On a self-loop u = (x,1) − (x',1), so λ·u is ρ(x) − ρ(x') =
        # (x + 2y) − (x' + 2y') (offsets cancel).  Both arms of the block
        # set y' = y − 1 and the map reads that post-state in place of y';
        # the arms disagree on x', which stays: x − x' + 2.
        expr = translated.expr
        assert expr.coefficient("x") == 1
        assert expr.coefficient("y") == 0
        assert expr.coefficient(prime_suffix("x")) == -1
        assert expr.coefficient(prime_suffix("y")) == 0
        assert expr.constant_term == 2
        y, y_next = LinExpr.variable("y"), prime_suffix("y")
        definition = (
            LinExpr({"x": 1, "y": 2})
            - LinExpr({prime_suffix("x"): 1, y_next: 2})
        )
        assert expr == definition.substitute({y_next: y - 1})
