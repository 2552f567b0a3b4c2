"""Lowering structured programs to control-flow automata.

The translation is the textbook one: every statement is compiled between a
pair of locations; loops introduce a header location (which then naturally
becomes the cut point), conditionals introduce a branch with the condition
on one edge and its negation on the other, and nondeterministic conditions
produce two unguarded edges.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.frontend.ast import (
    Assign,
    Assume,
    Block,
    Havoc,
    IfThenElse,
    Program,
    Skip,
    Statement,
    While,
)
from repro.linexpr.formula import Formula, TRUE, conjunction
from repro.linexpr.transform import tighten_strict_atoms
from repro.program.automaton import ControlFlowAutomaton
from repro.program.transition import Transition


class _Lowering:
    def __init__(self, program: Program):
        self.program = program
        self._counter = itertools.count()
        self.automaton = ControlFlowAutomaton(
            program.variables, self._fresh("entry"), name=program.name
        )

    def _fresh(self, stem: str) -> str:
        return "%s_%d" % (stem, next(self._counter))

    # -- helpers -----------------------------------------------------------------

    def _edge(
        self,
        source: str,
        target: str,
        guard: Formula = TRUE,
        updates: Optional[dict] = None,
        name: str = "",
    ) -> None:
        # Program variables are integers, so strict guards (including the
        # ones introduced by negating conditions) are tightened to closed
        # form; this keeps the rational relaxation used by the synthesiser
        # from seeing spurious fractional boundary behaviours.
        guard = tighten_strict_atoms(guard, self.program.variables)
        self.automaton.add_transition(
            Transition(source, target, guard, updates or {}, name)
        )

    # -- statement compilation -------------------------------------------------------

    def lower(self) -> ControlFlowAutomaton:
        entry = self.automaton.initial_location
        exit_location = self._compile_block(self.program.body, entry)
        self.automaton.add_location(exit_location)
        return self.automaton

    def _compile_block(self, block: Block, entry: str) -> str:
        current = entry
        for statement in block.statements:
            current = self._compile_statement(statement, current)
        return current

    def _compile_statement(self, statement: Statement, entry: str) -> str:
        if isinstance(statement, Skip):
            return entry
        if isinstance(statement, Assign):
            target = self._fresh("after_assign")
            self._edge(entry, target, TRUE, {statement.target: statement.expression})
            return target
        if isinstance(statement, Havoc):
            target = self._fresh("after_havoc")
            self._edge(entry, target, TRUE, {statement.target: None})
            return target
        if isinstance(statement, Assume):
            target = self._fresh("after_assume")
            self._edge(entry, target, statement.condition, {})
            return target
        if isinstance(statement, IfThenElse):
            return self._compile_if(statement, entry)
        if isinstance(statement, While):
            return self._compile_while(statement, entry)
        if isinstance(statement, Block):
            return self._compile_block(statement, entry)
        raise TypeError("unknown statement %r" % (statement,))

    def _compile_if(self, statement: IfThenElse, entry: str) -> str:
        join = self._fresh("join")
        then_entry = self._fresh("then")
        else_entry = self._fresh("else")
        true_guard, false_guard = self._branch_guards(statement.condition)
        self._edge(entry, then_entry, true_guard, {}, name="if_true")
        self._edge(entry, else_entry, false_guard, {}, name="if_false")
        then_exit = self._compile_block(statement.then_branch, then_entry)
        self._edge(then_exit, join, TRUE, {})
        if statement.else_branch is not None:
            else_exit = self._compile_block(statement.else_branch, else_entry)
            self._edge(else_exit, join, TRUE, {})
        else:
            self._edge(else_entry, join, TRUE, {})
        return join

    def _compile_while(self, statement: While, entry: str) -> str:
        header = self._fresh("loop_head")
        body_entry = self._fresh("body")
        exit_location = self._fresh("loop_exit")
        self._edge(entry, header, TRUE, {})
        true_guard, false_guard = self._branch_guards(statement.condition)
        self._edge(header, body_entry, true_guard, {}, name="loop_enter")
        self._edge(header, exit_location, false_guard, {}, name="loop_exit")
        body_exit = self._compile_block(statement.body, body_entry)
        self._edge(body_exit, header, TRUE, {}, name="loop_back")
        return exit_location

    def _branch_guards(self, condition) -> tuple:
        """Guards for the true and false edges of a branching condition.

        Deterministic conditions use the condition and its negation; a
        nondeterministic condition uses its (upper, ¬lower) brackets, which
        over-approximates both branches.
        """
        from repro.frontend.ast import NondetCondition

        if isinstance(condition, NondetCondition):
            return condition.upper, ~condition.lower
        return condition, ~condition


def lower_program(program: Program) -> ControlFlowAutomaton:
    """Compile an AST into a control-flow automaton."""
    automaton = _Lowering(program).lower()
    # Hoist top-level assume statements executed before any loop into the
    # initial condition so the invariant generator can use them directly.
    initial: List[Formula] = [automaton.initial_condition]
    automaton.initial_condition = conjunction(initial)
    return automaton


def compile_program(source: str, name: str = "program") -> ControlFlowAutomaton:
    """Parse and lower a mini-language program in one call."""
    from repro.frontend.parser import parse_program

    return lower_program(parse_program(source, name))
