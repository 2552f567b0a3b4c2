"""The extremal/arbitrary counterexample choice (the §4.2 ablation axis).

The choice is made by the oracles: the engine forwards its ``extremal``
flag, and the DD oracle picks the most violating unused generator (ties
broken by content) or the first one in enumeration order.
"""

import itertools
from fractions import Fraction

import pytest

from repro.api import Analysis, AnalysisConfig, CEX_STRATEGIES, ConfigError
from repro.linalg.vector import Vector
from repro.synthesis.engine import CegisEngine
from repro.synthesis.oracles import DdEnumerationOracle, _Generator

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"


def generator(value, kind="vertex", disjunct=0, second=1):
    return _Generator(Vector([Fraction(value), Fraction(second)]), kind, disjunct)


def dd_oracle(generators):
    """A DD oracle handing out *generators* instead of enumerated ones.

    The countdown program has a two-coordinate ``u`` space; the query
    objective below reads the first one, so a generator's objective value
    is its first entry.
    """
    problem = Analysis(COUNTDOWN).problem()
    oracle = DdEnumerationOracle()
    oracle.reset(problem, ())
    oracle._generators = list(generators)
    objective = Vector.unit(problem.stacked_dimension, 0)
    return oracle, objective


def first_entries(oracle, objective, extremal, rounds):
    picks = []
    for _ in range(rounds):
        group = oracle.find(objective, [], extremal)
        picks.append([witness.vector[0] for witness in group])
    return picks


def vertices():
    return [generator(value) for value in (-1, -5, -3, 2)]


class TestExtremal:
    def test_picks_most_violating_first(self):
        oracle, objective = dd_oracle(vertices())
        assert first_entries(oracle, objective, True, 3) == [[-5], [-3], [-1]]

    def test_ray_group_leads_with_the_most_violating_vertex_of_its_disjunct(
        self,
    ):
        oracle, objective = dd_oracle(
            [
                generator(4, disjunct=0),
                generator(3, disjunct=1),
                generator(7, disjunct=1),
                generator(-2, "ray", disjunct=1),
            ]
        )
        group = oracle.find(objective, [], True)
        assert [(w.kind, w.vector[0]) for w in group] == [
            ("vertex", 3),
            ("ray", -2),
        ]

    def test_declares_extremal_intent(self):
        """The engine hands its extremal flag to every oracle query."""

        class Recording(DdEnumerationOracle):
            def find(self, objective, flat_basis, extremal=True):
                asked.append(extremal)
                return super().find(objective, flat_basis, extremal)

        problem = Analysis(COUNTDOWN).problem()
        for extremal in (True, False):
            asked = []
            CegisEngine(Recording(), extremal=extremal).synthesize_component(
                problem
            )
            assert asked and set(asked) == {extremal}


class TestArbitrary:
    def test_takes_first_in_order(self):
        oracle, objective = dd_oracle(vertices())
        assert first_entries(oracle, objective, False, 3) == [[-1], [-5], [-3]]


class TestBatchedExtremalDeterminism:
    def test_objective_ties_break_canonically(self):
        """Equally violating generators must not be picked by pool order."""
        baseline = None
        for seconds in itertools.permutations([3, 1, 2]):
            oracle, objective = dd_oracle(
                [generator(-2, second=second) for second in seconds]
            )
            picks = [
                oracle.find(objective, [], True)[0].vector for _ in range(3)
            ]
            if baseline is None:
                baseline = picks
            assert picks == baseline


class TestFactory:
    def test_unknown_strategy_rejected(self):
        for name in ("greedy", "random"):
            with pytest.raises(ConfigError, match="cex_strategy"):
                AnalysisConfig(cex_strategy=name)

    def test_names_resolve(self):
        assert CEX_STRATEGIES == ("extremal", "arbitrary")
        for name in CEX_STRATEGIES:
            events = []
            analysis = Analysis(
                COUNTDOWN, config=AnalysisConfig(cex_strategy=name)
            )
            analysis.add_engine_observer(events.append)
            assert analysis.run("termite").proved
            assert events[0].payload["strategy"] == name
