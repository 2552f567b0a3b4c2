"""The recurrence-set engine: gadget classes proved, negatives refused."""

from fractions import Fraction

import pytest

from repro.frontend.lowering import compile_program
from repro.metrics import recording
from repro.nontermination import synthesize_recurrence

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

    def test_budget_exhaustion_is_not_a_claim(self):
        outcome = _synthesize(COUNTUP, budget=1)
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
