"""Eager expansion of a termination problem into transition polyhedra.

The baselines (Rank-style Farkas synthesis, Ben-Amram & Genaim-style
generator enumeration, Podelski–Rybalchenko) all need the transition
relation as an explicit list of convex polyhedra — the disjunctive normal
form the paper's lazy algorithm avoids computing.  This module performs
that expansion once so the baselines share it.

Each disjunct keeps its auxiliary (intermediate copy / havoc) variables:
Farkas reasoning and generator projection are both exact over the lifted
space, so no quantifier elimination is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.problem import TerminationProblem
from repro.linexpr.constraint import Constraint
from repro.linexpr.transform import dnf_conjunctions
from repro.smt.theory import check_conjunction


@dataclass
class TransitionDisjunct:
    """One path polyhedron of the eager expansion."""

    source: str
    target: str
    constraints: List[Constraint]

    def variables(self) -> List[str]:
        names = set()
        for constraint in self.constraints:
            names |= constraint.variables()
        return sorted(names)


def expand_disjuncts(
    problem: TerminationProblem,
    prune_infeasible: bool = True,
) -> List[TransitionDisjunct]:
    """All path polyhedra ``I_source ∧ path`` of the problem's blocks.

    Every strict inequality over integer variables is tightened; remaining
    strict inequalities are relaxed to their closures (the baselines work
    with closed polyhedra, as in the original publications).  Disjuncts
    whose constraint set is infeasible are dropped when *prune_infeasible*
    is set (they correspond to syntactically present but semantically dead
    paths).
    """
    integer_variables = problem.smt_integer_variables()
    disjuncts: List[TransitionDisjunct] = []
    for block in problem.blocks:
        invariant = problem.invariant(block.source).constraints
        for conjunct in dnf_conjunctions(block.formula):
            rows = [
                constraint.closure(integer_variables)
                for constraint in list(invariant) + list(conjunct)
            ]
            if prune_infeasible:
                outcome = check_conjunction(rows)
                if not outcome.satisfiable:
                    continue
            disjuncts.append(
                TransitionDisjunct(block.source, block.target, rows)
            )
    return disjuncts
