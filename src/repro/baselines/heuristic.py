"""A Loopus-style syntactic/heuristic termination prover.

Zuleger et al.'s Loopus (as characterised in §10 of the paper) does not
solve a global constraint system: it guesses candidate ranking expressions
syntactically — essentially the left-hand sides of the loop guards — and
checks cheaply whether some lexicographic combination of the candidates
decreases.  The baseline reproduces that spirit:

1. candidates are the guard expressions ``e`` of constraints ``e ≥ b``
   appearing in the transition polyhedra (plus the plain program
   variables),
2. a candidate is *usable* if it is bounded below on every remaining
   transition polyhedron and never increases on any of them,
3. a greedy loop repeatedly picks a usable candidate that strictly
   decreases at least one remaining transition, removes the transitions it
   strictly decreases, and stops when none remain (proved) or no candidate
   makes progress (unknown).

All checks are single LP optimisations over one transition polyhedron, so
the prover is very fast but — like Loopus — gives up on programs that need
genuinely relational ranking functions.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.result import BaselineResult
from repro.core.lp_instance import record_lp
from repro.core.problem import TerminationProblem, TransitionDisjunct
from repro.core.ranking import (
    AffineRankingFunction,
    LexicographicRankingFunction,
)
from repro.linalg.vector import Vector
from repro.linexpr.expr import LinExpr
from repro.linexpr.transform import prime_suffix
from repro.lp.problem import LpStatus, Sense
from repro.lp.simplex import solve_lp


def _candidates(
    problem: TerminationProblem, disjuncts: Sequence[TransitionDisjunct]
) -> List[LinExpr]:
    """Candidate ranking expressions: guard left-hand sides and variables."""
    seen: Dict[Tuple, LinExpr] = {}
    program_variables = set(problem.variables)

    def add(expression: LinExpr) -> None:
        homogeneous = expression - expression.constant_term
        if not homogeneous.variables():
            return
        if not homogeneous.variables() <= program_variables:
            return
        key = tuple(sorted(homogeneous.terms.items()))
        seen.setdefault(key, homogeneous)

    for variable in problem.variables:
        add(LinExpr.variable(variable))
    for disjunct in disjuncts:
        for constraint in disjunct.constraints:
            # Stored as expr ≤ 0, i.e. (−expr) ≥ 0: the candidate is −expr.
            add(-constraint.expr)
    return list(seen.values())


def _extreme(
    expression: LinExpr,
    disjunct: TransitionDisjunct,
    sense: Sense,
) -> Optional[Fraction]:
    outcome = solve_lp(expression, disjunct.constraints, sense)
    columns = expression.variables().union(
        *(constraint.variables() for constraint in disjunct.constraints)
    )
    record_lp(len(disjunct.constraints), len(columns), outcome.pivots, warm=False)
    if outcome.status is LpStatus.OPTIMAL:
        return outcome.objective
    if outcome.status is LpStatus.INFEASIBLE:
        return Fraction(0)
    return None


def _delta_expression(
    problem: TerminationProblem, candidate: LinExpr
) -> LinExpr:
    """``candidate(x) − candidate(x')`` over a transition polyhedron."""
    primed = candidate.rename(
        {name: prime_suffix(name) for name in problem.variables}
    )
    return candidate - primed


def heuristic_prover(
    problem: TerminationProblem,
    max_dimension: Optional[int] = None,
) -> BaselineResult:
    """Greedy lexicographic combination of syntactic candidates."""
    start = time.perf_counter()
    disjuncts = problem.disjuncts()
    candidates = _candidates(problem, disjuncts)
    if max_dimension is None:
        max_dimension = max(4, len(problem.variables) + 1)

    components: List[AffineRankingFunction] = []
    remaining = list(disjuncts)
    proved = not remaining

    while remaining and len(components) < max_dimension:
        progress = False
        for candidate in candidates:
            delta = _delta_expression(problem, candidate)
            lower_bounds: List[Fraction] = []
            non_increasing = True
            strictly_decreased: List[int] = []
            for index, disjunct in enumerate(remaining):
                decrease = _extreme(delta, disjunct, Sense.MINIMIZE)
                if decrease is None or decrease < 0:
                    non_increasing = False
                    break
                value = _extreme(candidate, disjunct, Sense.MINIMIZE)
                if value is None:
                    non_increasing = False
                    break
                lower_bounds.append(value)
                if decrease > 0:
                    strictly_decreased.append(index)
            if not non_increasing or not strictly_decreased:
                continue
            offset = -min(lower_bounds) if lower_bounds else Fraction(0)
            component = AffineRankingFunction(
                problem.variables,
                {
                    location: Vector(
                        candidate.coefficient(name)
                        for name in problem.variables
                    )
                    for location in problem.cutset
                },
                {location: offset for location in problem.cutset},
            )
            component.strict = len(strictly_decreased) == len(remaining)
            components.append(component)
            remaining = [
                disjunct
                for index, disjunct in enumerate(remaining)
                if index not in set(strictly_decreased)
            ]
            progress = True
            break
        if not progress:
            break
        if not remaining:
            proved = True

    elapsed = time.perf_counter() - start
    ranking = LexicographicRankingFunction(components) if proved else None
    return BaselineResult(
        name="heuristic (Loopus-style)",
        proved=proved,
        ranking=ranking,
        time_seconds=elapsed,
        details={
            "disjuncts": len(disjuncts),
            "candidates": len(candidates),
            "dimension": len(components),
        },
    )
