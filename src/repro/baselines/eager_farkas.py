"""Eager Farkas-based lexicographic synthesis (Rank / ADFG style).

This is the method of Alias, Darte, Feautrier & Gonnord (SAS 2010) and of
the Rank tool the paper compares against: the transition relation is
expanded into an explicit list of transition polyhedra, and each
lexicographic component is obtained by solving **one large linear
program** whose unknowns are

* the per-location affine coefficients of the component,
* one ``δ_j ∈ [0, 1]`` per transition polyhedron (1 ⇔ that transition is
  strictly decreased and can be discarded for the next component), and
* one Farkas multiplier per constraint row of every transition polyhedron
  and of every invariant.

The LP therefore has a number of rows and columns proportional to the
*total number of constraints of all paths*, which is the quantity the
paper contrasts with Termite's counterexample-sized instances (the
"(584, 229) vs (5, 2)" comparison of §9).
"""

from __future__ import annotations

import itertools
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
from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.transform import prime_suffix
from repro.lp.problem import LinearProgram, LpStatus, Sense
from repro.synthesis.engine import eliminate_lexicographic


class _FarkasSystem:
    """Builder for one lexicographic component's constraint system."""

    def __init__(self, problem: TerminationProblem, disjuncts: Sequence[TransitionDisjunct]):
        self.problem = problem
        self.disjuncts = list(disjuncts)
        self.program = LinearProgram(Sense.MAXIMIZE)
        self._fresh = itertools.count()

    # -- unknown names -----------------------------------------------------------

    def coefficient_name(self, location: str, variable: str) -> str:
        return "lam[%s][%s]" % (location, variable)

    def offset_name(self, location: str) -> str:
        return "off[%s]" % location

    def delta_name(self, index: int) -> str:
        return "delta_%d" % index

    def _multiplier(self) -> str:
        return "mu_%d" % next(self._fresh)

    # -- Farkas encoding --------------------------------------------------------------

    def require_nonnegative_combination(
        self,
        target_coefficients: Dict[str, LinExpr],
        target_constant: LinExpr,
        rows: Sequence[Constraint],
    ) -> None:
        """Require ``target ≥ 0`` over ``{y | rows}`` via Farkas' lemma.

        ``target`` is the affine function with (unknown-valued) coefficient
        ``target_coefficients[v]`` for each state variable ``v`` and
        (unknown-valued) constant ``target_constant``.  The rows are
        constraints ``expr ≤ 0`` / ``expr = 0`` over the state variables.
        Farkas: target = Σ μ_i · (−expr_i) + μ_0 with μ_i ≥ 0 (free for
        equalities) and μ_0 ≥ 0, matched coefficient by coefficient.
        """
        multipliers: List[Tuple[str, Constraint]] = []
        for row in rows:
            name = self._multiplier()
            self.program.declare(name)
            if not row.is_equality():
                self.program.add_constraint(LinExpr.variable(name) >= 0)
            multipliers.append((name, row))
        slack = self._multiplier()
        self.program.declare(slack)
        self.program.add_constraint(LinExpr.variable(slack) >= 0)

        state_variables = set()
        for _, row in multipliers:
            state_variables |= row.variables()
        state_variables |= set(target_coefficients)

        for variable in sorted(state_variables):
            combination = LinExpr()
            for name, row in multipliers:
                coefficient = -row.expr.coefficient(variable)
                if coefficient != 0:
                    combination = combination + LinExpr({name: coefficient})
            target = target_coefficients.get(variable, LinExpr())
            self.program.add_constraint((target - combination).eq(0))

        constant_combination = LinExpr.variable(slack)
        for name, row in multipliers:
            coefficient = -row.expr.constant_term
            if coefficient != 0:
                constant_combination = constant_combination + LinExpr(
                    {name: coefficient}
                )
        self.program.add_constraint((target_constant - constant_combination).eq(0))


def _ranking_coefficients(
    system: _FarkasSystem, location: str, primed: bool, negate: bool = False
) -> Tuple[Dict[str, LinExpr], LinExpr]:
    """Coefficient map of ``±ρ_k`` seen as a function of the state variables."""
    sign = -1 if negate else 1
    coefficients: Dict[str, LinExpr] = {}
    for variable in system.problem.variables:
        state_variable = prime_suffix(variable) if primed else variable
        coefficients[state_variable] = LinExpr(
            {system.coefficient_name(location, variable): sign}
        )
    constant = LinExpr({system.offset_name(location): sign})
    return coefficients, constant


def _merge_coefficients(
    left: Dict[str, LinExpr], right: Dict[str, LinExpr]
) -> Dict[str, LinExpr]:
    merged = dict(left)
    for name, expr in right.items():
        merged[name] = merged.get(name, LinExpr()) + expr
    return merged


def _synthesize_component(
    problem: TerminationProblem,
    disjuncts: Sequence[TransitionDisjunct],
) -> Optional[Tuple[AffineRankingFunction, List[int]]]:
    """One greedy lexicographic component over the remaining disjuncts.

    Returns the component and the indices of the disjuncts it strictly
    decreases, or ``None`` when the Farkas system has no useful solution.
    """
    system = _FarkasSystem(problem, disjuncts)
    program = system.program

    for location in problem.cutset:
        program.declare(system.offset_name(location))
        for variable in problem.variables:
            program.declare(system.coefficient_name(location, variable))

    objective = LinExpr()
    for index in range(len(disjuncts)):
        delta = system.delta_name(index)
        program.declare(delta)
        program.add_constraint(LinExpr.variable(delta) >= 0)
        program.add_constraint(LinExpr.variable(delta) <= 1)
        objective = objective + LinExpr.variable(delta)
    program.objective = objective

    # Decrease (by at least δ_j) on every remaining disjunct.
    for index, disjunct in enumerate(disjuncts):
        before_coeffs, before_const = _ranking_coefficients(
            system, disjunct.source, primed=False
        )
        after_coeffs, after_const = _ranking_coefficients(
            system, disjunct.target, primed=True, negate=True
        )
        coefficients = _merge_coefficients(before_coeffs, after_coeffs)
        constant = before_const + after_const - LinExpr.variable(
            system.delta_name(index)
        )
        system.require_nonnegative_combination(
            coefficients, constant, disjunct.constraints
        )

    # Nonnegativity on the invariant of every cut point.
    for location in problem.cutset:
        coefficients, constant = _ranking_coefficients(
            system, location, primed=False
        )
        system.require_nonnegative_combination(
            coefficients, constant, problem.invariant(location).constraints
        )

    outcome = program.solve()
    record_lp(program.num_rows, program.num_cols, outcome.pivots, warm=False)
    if outcome.status is not LpStatus.OPTIMAL or outcome.objective == 0:
        return None

    coefficients: Dict[str, Vector] = {}
    offsets: Dict[str, Fraction] = {}
    for location in problem.cutset:
        coefficients[location] = Vector(
            outcome.assignment.get(
                system.coefficient_name(location, variable), Fraction(0)
            )
            for variable in problem.variables
        )
        offsets[location] = outcome.assignment.get(
            system.offset_name(location), Fraction(0)
        )
    component = AffineRankingFunction(problem.variables, coefficients, offsets)
    killed = [
        index
        for index in range(len(disjuncts))
        if outcome.assignment.get(system.delta_name(index), Fraction(0)) == 1
    ]
    component.strict = len(killed) == len(disjuncts)
    if not killed:
        return None
    return component, killed


def eager_farkas_lexicographic(
    problem: TerminationProblem,
    max_dimension: Optional[int] = None,
) -> BaselineResult:
    """Greedy multidimensional synthesis over the eagerly expanded DNF."""
    start = time.perf_counter()
    disjuncts = problem.disjuncts()
    if max_dimension is None:
        max_dimension = max(4, problem.stacked_dimension)

    # The refinement loop is the shared greedy elimination of the
    # synthesis engine; this baseline only supplies the Farkas step.
    components, _, proved = eliminate_lexicographic(
        disjuncts,
        lambda remaining: _synthesize_component(problem, remaining),
        max_dimension,
    )

    elapsed = time.perf_counter() - start
    ranking = LexicographicRankingFunction(components) if proved else None
    return BaselineResult(
        name="eager-farkas (Rank-style)",
        proved=proved,
        ranking=ranking,
        time_seconds=elapsed,
        details={
            "disjuncts": len(disjuncts),
            "dimension": len(components),
        },
    )


def podelski_rybalchenko_via_farkas(
    problem: TerminationProblem,
) -> BaselineResult:
    """Single-component complete synthesis (Podelski & Rybalchenko 2004).

    A monodimensional linear ranking function exists iff the Farkas system
    of one component strictly decreases *every* transition polyhedron.
    """
    start = time.perf_counter()
    disjuncts = problem.disjuncts()
    proved = not disjuncts
    ranking = None
    if disjuncts:
        outcome = _synthesize_component(problem, disjuncts)
        if outcome is not None:
            component, killed = outcome
            if len(killed) == len(disjuncts):
                proved = True
                ranking = LexicographicRankingFunction([component])
    elapsed = time.perf_counter() - start
    return BaselineResult(
        name="podelski-rybalchenko",
        proved=proved,
        ranking=ranking,
        time_seconds=elapsed,
        details={"disjuncts": len(disjuncts)},
    )
