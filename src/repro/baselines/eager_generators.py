"""Eager generator enumeration (Ben-Amram & Genaim style).

The approach of Ben-Amram & Genaim (JACM 2014), as characterised in §1/§3
of the paper: take the transition relation in disjunctive normal form,
compute the vertices and rays of every disjunct *eagerly* with the
double-description method, and solve one ``LP(V, Constraints(I))``
instance over the full generator set (per lexicographic component).

In the paper both approaches prove the same programs relative to the
same invariants (both are complete for lexicographic linear ranking
functions), and the difference it measures is the cost: the number of
generators — hence LP rows — can be exponential in the program, whereas
the lazy loop only materialises the handful of extremal counterexamples
it actually needs.  Like the lazy loop, which counts strictness on
vertices only, a component removes the generators it decreases (δ = 1)
and then every generator of a disjunct with no vertex left: rays alone
carry no step, and a ray along a line of the step set has its δ forced
to 0.  It proves the same programs as the lazy loop on the generated
programs of fuzz seeds 0 and 1 (131 and 133 of 200).

The generator-to-u-space mapping is shared with the synthesis package's
double-description oracle (:func:`repro.synthesis.oracles.
disjunct_generators`), and the per-component elimination loop is the
generic :func:`repro.synthesis.engine.eliminate_lexicographic`.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.baselines.result import BaselineResult
from repro.core.lp_instance import RankingLp
from repro.core.problem import TerminationProblem
from repro.core.ranking import LexicographicRankingFunction
from repro.linalg.matrix import Span
from repro.linalg.vector import Vector
from repro.synthesis.engine import eliminate_lexicographic
from repro.synthesis.oracles import disjunct_generators


def eager_generator_synthesis(
    problem: TerminationProblem,
    max_dimension: Optional[int] = None,
) -> BaselineResult:
    """Lexicographic synthesis with the full, eagerly computed generator set."""
    start = time.perf_counter()
    if max_dimension is None:
        max_dimension = problem.stacked_dimension

    disjuncts = problem.disjuncts()
    # (disjunct position, kind, generator)
    generators: List[Tuple[int, str, Vector]] = []
    for position, disjunct in enumerate(disjuncts):
        for kind, vector in disjunct_generators(problem, disjunct):
            generators.append((position, kind, vector))

    independent = Span(problem.stacked_dimension)

    def find_component(remaining):
        """One ``LP(V, Constraints(I))`` solve over the remaining generators."""
        ranking_lp = RankingLp(problem)
        for _, _, generator in remaining:
            ranking_lp.add_counterexample(generator)
        solution = ranking_lp.solve()
        component = solution.ranking
        vector = component.stacked_vector(problem.cutset)
        decreased = {
            index
            for index, delta in enumerate(solution.deltas)
            if delta == 1
        }
        if not decreased or not independent.add(vector):
            return None
        live = {
            position
            for index, (position, kind, _) in enumerate(remaining)
            if kind == "vertex" and index not in decreased
        }
        decreased.update(
            index
            for index, (position, _, _) in enumerate(remaining)
            if position not in live
        )
        return component, sorted(decreased)

    components, _, proved = eliminate_lexicographic(
        generators, find_component, max_dimension
    )
    if proved and components:
        components[-1].strict = True

    elapsed = time.perf_counter() - start
    ranking = LexicographicRankingFunction(components) if proved else None
    return BaselineResult(
        name="eager-generators (BG14-style)",
        proved=proved,
        ranking=ranking,
        time_seconds=elapsed,
        details={
            "disjuncts": len(disjuncts),
            "generators": len(generators),
            "dimension": len(components),
        },
    )
