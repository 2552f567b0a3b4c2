"""Oracle unit behaviour: witnesses, exhaustion, determinism."""

from fractions import Fraction

import pytest

from repro.api import Analysis
from repro.linexpr.constraint import Relation
from repro.metrics import recording
from repro.synthesis.oracles import (
    DdEnumerationOracle,
    OracleRequest,
    SamplingOracle,
    SmtOptimizingOracle,
    constraint_in_state_space,
    make_oracle,
    objective_on_vector,
)
from repro.synthesis.templates import LinearTemplate


def template_for(automaton):
    problem = Analysis(automaton).problem()
    return LinearTemplate(problem)


def zero_request(template, **overrides):
    """The first engine query: refute the all-zero candidate."""
    defaults = dict(
        objective=template.objective(template.initial_candidate()),
        flat_basis=[],
        want_extremal=True,
        max_witnesses=1,
    )
    defaults.update(overrides)
    return OracleRequest(**defaults)


class TestSmtOracle:
    def test_extremal_witness_on_countdown(self, countdown_automaton):
        template = template_for(countdown_automaton)
        oracle = SmtOptimizingOracle()
        oracle.reset(template, ())
        groups = oracle.find(zero_request(template))
        assert groups, "the zero candidate must be refutable"
        witness = groups[0][0]
        assert witness.kind == "vertex"
        assert not witness.vector.is_zero()
        # The witness is a genuine non-increasing step: λ·u ≤ 0 with λ = 0.
        assert witness.objective_value == 0

    def test_arbitrary_model_also_violates(self, countdown_automaton):
        template = template_for(countdown_automaton)
        oracle = SmtOptimizingOracle()
        oracle.reset(template, ())
        groups = oracle.find(zero_request(template, want_extremal=False))
        assert groups and groups[0][0].kind == "vertex"

    def test_factory_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown counterexample oracle"):
            make_oracle("magic")
        assert make_oracle("smt").name == "smt"
        instance = SamplingOracle(seed=3)
        assert make_oracle(instance) is instance


class TestDdOracle:
    def test_returns_enumerated_generators(self, countdown_automaton):
        template = template_for(countdown_automaton)
        oracle = DdEnumerationOracle()
        oracle.reset(template, ())
        groups = oracle.find(zero_request(template, max_witnesses=8))
        assert groups
        names = template.problem.difference_variables()
        for group in groups:
            for witness in group:
                assert witness.origin == "dd"
                value = objective_on_vector(
                    zero_request(template).objective, witness.vector, names
                )
                assert value <= 0

    def test_consumed_generators_are_not_returned_again(
        self, countdown_automaton
    ):
        template = template_for(countdown_automaton)
        oracle = DdEnumerationOracle()
        oracle.reset(template, ())
        request = zero_request(template, max_witnesses=64)
        first = oracle.find(request)
        oracle.consumed(first)
        second = oracle.find(request)
        # Everything enumerable was consumed; anything further must come
        # from the SMT confirmation path (origin "smt"), or be empty.
        for group in second:
            for witness in group:
                assert witness.origin == "smt"

    def test_exhaustion_is_smt_confirmed(self, countdown_automaton):
        template = template_for(countdown_automaton)
        oracle = DdEnumerationOracle()
        oracle.reset(template, ())
        # A candidate that strictly decreases on every step of
        # `while (x > 0) x = x - 1`: rank by x at the only cut point.
        from repro.core.ranking import AffineRankingFunction
        from repro.linalg.vector import Vector

        problem = template.problem
        location = problem.cutset[0]
        candidate = AffineRankingFunction(
            problem.variables,
            {location: Vector([Fraction(1)])},
            {location: Fraction(0)},
        )
        with recording() as counters:
            groups = oracle.find(
                zero_request(template, objective=template.objective(candidate))
            )
        assert groups == []
        # One complete query, counted once (by the SMT oracle it runs).
        assert counters["synthesis.oracles.smt_queries"] == 1
        assert counters["smt.optimize.queries"] == 1


class TestSamplingOracle:
    def test_points_are_interior_but_still_violating(self, example1_automaton):
        template = template_for(example1_automaton)
        oracle = SamplingOracle(seed=0)
        oracle.reset(template, ())
        request = zero_request(template, max_witnesses=16)
        groups = oracle.find(request)
        assert groups
        names = template.problem.difference_variables()
        for group in groups:
            for witness in group:
                if witness.kind != "vertex":
                    continue
                value = objective_on_vector(
                    request.objective, witness.vector, names
                )
                assert value <= 0
                assert not witness.vector.is_zero()

    def test_same_seed_same_samples(self, example1_automaton):
        template = template_for(example1_automaton)
        request = zero_request(template, max_witnesses=16)

        def run(seed):
            oracle = SamplingOracle(seed=seed)
            oracle.reset(template, ())
            return [
                [witness.vector for witness in group]
                for group in oracle.find(request)
            ]

        assert run(7) == run(7)


class TestStateSpaceTranslation:
    def test_flatness_constraint_translates_exactly(self, example1_automaton):
        """λ·u = 0 over u-variables becomes the same linear fact in state space."""
        problem = Analysis(example1_automaton).problem()
        template = LinearTemplate(problem)
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
        from repro.linexpr.constraint import Constraint

        flat = Constraint(template.objective(candidate), Relation.EQ)
        translated = constraint_in_state_space(
            problem, flat, source=location, target=location
        )
        assert translated.relation is Relation.EQ
        # On a self-loop u = (x,1) − (x',1): the translated expression is
        # ρ(x) − ρ(x') = (x + 2y) − (x' + 2y') (offsets cancel).
        expr = translated.expr
        assert expr.coefficient("x") == 1
        assert expr.coefficient("y") == 2
        assert expr.coefficient(prime_suffix("x")) == -1
        assert expr.coefficient(prime_suffix("y")) == -2
        assert expr.constant_term == 0
