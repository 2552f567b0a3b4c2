"""The independent lasso-witness checker: valid claims pass, tampering fails."""

import dataclasses
from fractions import Fraction

import pytest

from repro.api import AnalysisConfig
from repro.api.pipeline import analyze
from repro.api.request import AnalysisRequest
from repro.checking.checker import CertificateVerdict
from repro.checking.generator import ProgramGenerator
from repro.checking.recurrence import check_recurrence
from repro.frontend.lowering import compile_program
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.nontermination import synthesize_recurrence

COUNTUP = "var x; while (x >= 0) { x = x + 1; }"
NONDET = "var x, y; while (x >= 0) { y = nondet(); x = x + y; }"


@pytest.fixture(scope="module")
def countup():
    automaton = compile_program(COUNTUP, "countup")
    outcome = synthesize_recurrence(automaton)
    assert outcome.success
    return automaton, outcome.lasso


@pytest.fixture(scope="module")
def nondet():
    automaton = compile_program(NONDET, "nondet")
    outcome = synthesize_recurrence(automaton)
    assert outcome.success
    return automaton, outcome.lasso


class TestValid:
    def test_engine_witness_is_valid(self, countup):
        automaton, lasso = countup
        verdict = check_recurrence(automaton, lasso)
        assert verdict.status == CertificateVerdict.VALID
        assert verdict.obligations > 0
        assert verdict.refuted == verdict.obligations

    def test_nondeterministic_witness_is_valid(self, nondet):
        automaton, lasso = nondet
        verdict = check_recurrence(automaton, lasso)
        assert verdict.status == CertificateVerdict.VALID

    def test_round_tripped_witness_still_valid(self, countup):
        from repro.nontermination.witness import Lasso

        automaton, lasso = countup
        replica = Lasso.from_dict(lasso.to_dict())
        assert check_recurrence(automaton, replica).status == (
            CertificateVerdict.VALID
        )

    def test_lasso_whose_closure_needs_integer_rounding_is_valid(self):
        # (x, y) = (-2, 0) is a fixed point of the cycle, but the closure
        # obligation's rational witnesses all lie in x ∈ (-11/6, -4/3):
        # only rounding 3x + 3y + 5 > 0 to x + y ≥ -1 refutes it.
        program = ProgramGenerator(0).generate(96)
        assert program.name == "fuzz-0-96-random"
        result = analyze(
            AnalysisRequest(
                program=program.source,
                name=program.name,
                config=AnalysisConfig(nonterm="auto"),
            )
        )
        assert result.status.value == "nonterminating"
        assert result.details["lasso_verdict"]["status"] == "valid"


class TestTampering:
    def test_unsound_rows_are_refuted(self, countup):
        automaton, lasso = countup
        # Claim the recurrence set is x <= -5 — disjoint from the guard.
        forged = dataclasses.replace(
            lasso,
            rows=[
                Constraint(
                    LinExpr({"x": Fraction(1)}, Fraction(5)), Relation.LE
                )
            ],
        )
        verdict = check_recurrence(automaton, forged)
        assert verdict.status == CertificateVerdict.INVALID
        assert verdict.failures

    def test_transition_index_out_of_range(self, countup):
        automaton, lasso = countup
        forged = dataclasses.replace(
            lasso,
            cycle=[
                dataclasses.replace(step, transition=999)
                for step in lasso.cycle
            ],
        )
        verdict = check_recurrence(automaton, forged)
        assert verdict.status == CertificateVerdict.INVALID

    def test_initial_state_outside_the_program(self, countup):
        automaton, lasso = countup
        forged = dataclasses.replace(
            lasso, initial={name: Fraction(-10**6) for name in lasso.initial}
        )
        verdict = check_recurrence(automaton, forged)
        assert verdict.status == CertificateVerdict.INVALID

    def test_wrong_cutpoint_location(self, countup):
        automaton, lasso = countup
        forged = dataclasses.replace(lasso, cutpoint="no_such_location")
        verdict = check_recurrence(automaton, forged)
        assert verdict.status == CertificateVerdict.INVALID

    def test_missing_havoc_choice(self, nondet):
        automaton, lasso = nondet
        forged = dataclasses.replace(
            lasso,
            cycle=[
                dataclasses.replace(step, choices={})
                for step in lasso.cycle
            ],
        )
        verdict = check_recurrence(automaton, forged)
        assert verdict.status == CertificateVerdict.INVALID

    def test_foreign_variable_in_rows(self, countup):
        automaton, lasso = countup
        forged = dataclasses.replace(
            lasso,
            rows=lasso.rows
            + [Constraint(LinExpr({"ghost": Fraction(1)}), Relation.LE)],
        )
        verdict = check_recurrence(automaton, forged)
        assert verdict.status == CertificateVerdict.INVALID
