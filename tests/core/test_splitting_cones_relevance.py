"""Tests for restricting invariants to the states that can still loop."""

from repro.core.relevance import restrict_to_guarded_states
from repro.invariants.analyzer import compute_invariants
from repro.linexpr.expr import var
from repro.program.builder import AutomatonBuilder
from repro.program.cutset import compute_cutset

x = var("x")


class TestRelevance:
    def test_guard_restricts_universe_invariant(self):
        builder = AutomatonBuilder(["x"], initial="k")
        builder.transition("k", "k", guard=[x > 0], updates={"x": x - 1})
        automaton = builder.build()
        cutset = compute_cutset(automaton)
        invariants = compute_invariants(automaton)
        restricted = restrict_to_guarded_states(automaton, cutset, invariants)
        assert restricted.get(cutset[0]).entails_constraint(x >= 1)

    def test_exit_only_edges_ignored(self):
        builder = AutomatonBuilder(["x"], initial="k")
        builder.transition("k", "k", guard=[x > 0], updates={"x": x - 1})
        builder.transition("k", "done", guard=[x <= 0])
        automaton = builder.build()
        cutset = compute_cutset(automaton)
        invariants = compute_invariants(automaton)
        restricted = restrict_to_guarded_states(automaton, cutset, invariants)
        # The edge to "done" never reaches the cut-set again, so it must not
        # weaken the restriction.
        assert restricted.get(cutset[0]).entails_constraint(x >= 1)
