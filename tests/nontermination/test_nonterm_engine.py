"""The recurrence-set engine: gadget classes proved, negatives refused."""

from fractions import Fraction

import pytest

from repro.frontend.lowering import compile_program
from repro.metrics import recording
from repro.nontermination import RecurrenceSynthesizer, engine, synthesize_recurrence
from repro.nontermination.engine import MAX_CYCLE_LENGTH, MAX_CYCLE_PATHS
from repro.program.automaton import ControlFlowAutomaton
from repro.program.transition import Transition

COUNTUP = "var x; while (x >= 0) { x = x + 1; }"
CONSTANT_LOOP = "var x; x = 1; while (x >= 1) { x = x; }"
NONDET_ESCAPE = (
    "var x, y; while (x >= 0) { y = nondet(); x = x + y; }"
)
TWO_VARIABLE = (
    "var a, b; while (a + b >= 0) { a = a + 1; b = b - 1; }"
)
STEMMED = (
    "var x; x = 5; while (x >= 1) { x = x + 2; }"
)

TERMINATING = "var x; while (x > 0) { x = x - 1; }"
ACYCLIC = "var x; x = 1; x = x + 1;"


def _synthesize(source, **kwargs):
    return synthesize_recurrence(compile_program(source, "test"), **kwargs)


class TestGadgetClasses:
    @pytest.mark.parametrize(
        "source",
        [COUNTUP, CONSTANT_LOOP, NONDET_ESCAPE, TWO_VARIABLE, STEMMED],
        ids=["countup", "constant", "nondet", "two-variable", "stemmed"],
    )
    def test_proves_nontermination(self, source):
        outcome = _synthesize(source)
        assert outcome.success, outcome.message
        assert outcome.lasso is not None
        assert outcome.lasso.rows
        assert outcome.lasso.cycle

    def test_initial_state_is_integral(self):
        outcome = _synthesize(COUNTUP)
        for value in outcome.lasso.initial.values():
            assert value == Fraction(int(value))


class TestNegatives:
    def test_terminating_loop_is_not_claimed(self):
        outcome = _synthesize(TERMINATING)
        assert not outcome.success
        assert outcome.lasso is None

    def test_acyclic_program_reports_why(self):
        outcome = _synthesize(ACYCLIC)
        assert not outcome.success
        assert "acyclic" in outcome.message

    def test_budget_exhaustion_is_not_a_claim(self, monkeypatch):
        monkeypatch.setattr(engine, "CANDIDATE_BUDGET", 1)
        outcome = _synthesize(COUNTUP)
        # Budget 1 may or may not suffice for the first candidate, but a
        # success must still carry a full witness.
        if outcome.success:
            assert outcome.lasso is not None
        else:
            assert outcome.lasso is None


class TestSeams:
    def test_observers_receive_nonterm_events(self):
        events = []
        outcome = _synthesize(COUNTUP, observers=(events.append,))
        assert outcome.success
        kinds = [event.kind for event in events]
        assert kinds[0] == "nonterm_start"
        assert kinds[-1] == "nonterm_end"
        assert "nonterm_success" in kinds

    def test_statistics_surface_in_result(self):
        with recording() as counters:
            outcome = _synthesize(COUNTUP)
        assert counters["nontermination.engine.candidates"] >= 1
        assert outcome.iterations == counters["nontermination.engine.refinements"]


def _layered(layers: int) -> ControlFlowAutomaton:
    """``init -> L0``, then two parallel edges ``Li -> Li+1`` per layer
    (the last layer back to ``L0``) and a self-loop on ``L0`` added last:
    ``2 ** layers`` cycles of length *layers* and one of length 1."""
    automaton = ControlFlowAutomaton(["x"], "init")
    automaton.add_transition(Transition("init", "L0"))
    for layer in range(layers):
        target = "L%d" % ((layer + 1) % layers)
        for _ in range(2):
            automaton.add_transition(Transition("L%d" % layer, target))
    automaton.add_transition(Transition("L0", "L0"))
    return automaton


class TestPaths:
    def test_cycles_are_the_first_found_then_sorted(self):
        automaton = _layered(3)
        paths = RecurrenceSynthesizer(automaton)._paths(
            "L0", "L0", MAX_CYCLE_LENGTH, MAX_CYCLE_PATHS
        )
        # All nine cycles fit the cap: the self-loop, found last, sorts first.
        assert [len(path) for path in paths] == [1] + [3] * 8
        assert paths[0][0].source == paths[0][0].target == "L0"
        assert len({tuple(map(id, path)) for path in paths}) == 9

    def test_the_cap_keeps_the_first_paths_in_walk_order(self):
        automaton = _layered(5)
        paths = RecurrenceSynthesizer(automaton)._paths(
            "L0", "L0", MAX_CYCLE_LENGTH, MAX_CYCLE_PATHS
        )
        # The first edge's subtree fills the cap; the self-loop is not
        # reached, even though it is shorter.
        assert len(paths) == MAX_CYCLE_PATHS
        first = automaton.outgoing("L0")[0]
        assert all(len(path) == 5 and path[0] is first for path in paths)

    def test_length_cap_bounds_cycles_and_stems(self):
        automaton = _layered(5)
        walker = RecurrenceSynthesizer(automaton)
        assert walker._paths("L0", "L0", 4, MAX_CYCLE_PATHS) == [
            [automaton.outgoing("L0")[-1]]
        ]
        stems = walker._paths("init", "L3", 4, MAX_CYCLE_PATHS)
        assert [len(path) for path in stems] == [4] * 8
        assert walker._paths("init", "L3", 3, MAX_CYCLE_PATHS) == []
