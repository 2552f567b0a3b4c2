"""Per-disjunct greedy synthesis over the eager DNF expansion.

The fifth baseline: where the eager Farkas construction (Rank/ADFG style,
:mod:`repro.baselines.eager_farkas`) finds each lexicographic component by
solving **one global LP** that maximises the number of strictly-decreased
disjuncts at once, this prover works *one path polyhedron at a time* — the
classic one-by-one elimination of Bradley–Manna–Sipma-style lexicographic
synthesis:

1. expand the transition relation into disjunctive normal form (the
   :meth:`~repro.core.problem.TerminationProblem.disjuncts`),
2. look for a disjunct ``d`` admitting an affine function that is
   *bounded below* on the invariants, *strictly decreasing* on ``d`` and
   *non-increasing* on every other remaining disjunct (one small Farkas
   feasibility LP per candidate),
3. make that function the next lexicographic component, discard ``d``,
   repeat until no disjunct remains (proved) or no disjunct can be
   eliminated (unknown).

Soundness: each component never increases on the disjuncts that remain
when it is chosen and strictly decreases (while bounded) on the
eliminated one, so the tuple is a genuine lexicographic linear ranking
function.  The trade-off against the global construction is many small
LPs (and a potentially inflated dimension — one component per disjunct in
the worst case) instead of few large ones, which is exactly the axis the
paper's Table 1 measures.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Optional, Sequence

from repro.baselines.eager_farkas import (
    _FarkasSystem,
    _merge_coefficients,
    _ranking_coefficients,
)
from repro.baselines.result import BaselineResult
from repro.core.lp_instance import record_lp
from repro.core.problem import TerminationProblem, TransitionDisjunct
from repro.core.ranking import (
    AffineRankingFunction,
    LexicographicRankingFunction,
)
from repro.linalg.vector import Vector
from repro.lp.problem import LpStatus
from repro.synthesis.engine import eliminate_lexicographic


def _eliminate_disjunct(
    problem: TerminationProblem,
    remaining: Sequence[TransitionDisjunct],
    target: int,
) -> Optional[AffineRankingFunction]:
    """One Farkas feasibility LP: kill disjunct *target*, respect the rest.

    Returns the component, or ``None`` when no affine function strictly
    decreases *target* (by ≥ 1, w.l.o.g. for rational rankings) while
    staying non-increasing on the other remaining disjuncts and
    nonnegative on the invariants.
    """
    system = _FarkasSystem(problem, remaining)
    program = system.program

    for location in problem.cutset:
        program.declare(system.offset_name(location))
        for variable in problem.variables:
            program.declare(system.coefficient_name(location, variable))

    for index, disjunct in enumerate(remaining):
        before_coeffs, before_const = _ranking_coefficients(
            system, disjunct.source, primed=False
        )
        after_coeffs, after_const = _ranking_coefficients(
            system, disjunct.target, primed=True, negate=True
        )
        coefficients = _merge_coefficients(before_coeffs, after_coeffs)
        constant = before_const + after_const
        if index == target:
            constant = constant - 1  # strict decrease on the eliminated path
        system.require_nonnegative_combination(
            coefficients, constant, disjunct.constraints
        )

    for location in problem.cutset:
        coefficients, constant = _ranking_coefficients(
            system, location, primed=False
        )
        system.require_nonnegative_combination(
            coefficients, constant, problem.invariant(location).constraints
        )

    outcome = program.solve()
    record_lp(program.num_rows, program.num_cols, outcome.pivots, warm=False)
    if outcome.status is not LpStatus.OPTIMAL:
        return None

    coefficients_by_location = {}
    offsets = {}
    for location in problem.cutset:
        coefficients_by_location[location] = Vector(
            outcome.assignment.get(
                system.coefficient_name(location, variable), Fraction(0)
            )
            for variable in problem.variables
        )
        offsets[location] = outcome.assignment.get(
            system.offset_name(location), Fraction(0)
        )
    component = AffineRankingFunction(
        problem.variables, coefficients_by_location, offsets
    )
    component.strict = len(remaining) == 1
    return component


def dnf_prover(
    problem: TerminationProblem,
    max_dimension: Optional[int] = None,
) -> BaselineResult:
    """Greedy per-disjunct lexicographic synthesis over the eager DNF.

    The elimination loop is the shared
    :func:`repro.synthesis.engine.eliminate_lexicographic`; this prover
    only supplies the "find one eliminable disjunct" step.
    """
    start = time.perf_counter()
    disjuncts = problem.disjuncts()
    if max_dimension is None:
        max_dimension = max(4, len(disjuncts))

    def find_component(remaining):
        for index in range(len(remaining)):
            component = _eliminate_disjunct(problem, remaining, index)
            if component is not None:
                return component, [index]
        return None

    components, _, proved = eliminate_lexicographic(
        disjuncts, find_component, max_dimension
    )

    elapsed = time.perf_counter() - start
    ranking = LexicographicRankingFunction(components) if proved else None
    return BaselineResult(
        name="dnf (per-disjunct greedy)",
        proved=proved,
        ranking=ranking,
        time_seconds=elapsed,
        details={
            "disjuncts": len(disjuncts),
            "dimension": len(components),
        },
    )
