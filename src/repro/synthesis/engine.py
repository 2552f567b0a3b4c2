"""The generic CEGIS synthesis engine (Algorithms 1–3 of the paper).

The paper's counterexample-guided loop lives here.  It works on a
:class:`~repro.core.problem.TerminationProblem` — which owns the stacked
``u`` space and ``Φ`` — and the problem's
``LP(V, Constraints(I))`` (:class:`~repro.core.lp_instance.RankingLp`,
Definition 11), plus two swappable pieces:

* a **counterexample oracle** (:mod:`repro.synthesis.oracles`) — where
  counterexamples come from: the paper's optimising-SMT extremal-point
  search or double-description generator enumeration, each asked for
  an extremal or an arbitrary counterexample;
* **budgets and observers** — the iteration cap and a per-iteration event
  stream the analysis pipeline surfaces to its callers.

Each iteration adds the one witness group the oracle returns (a vertex,
plus its ray when the candidate is unbounded), as in the paper.  With
the default configuration (``smt`` oracle, extremal counterexamples) the
engine is the paper's loop: one optimising SMT query per iteration, one
generator row per counterexample, flat directions accumulated into the
``AvoidSpace`` basis.  Arbitrary counterexamples are the paper's §4.2
ablation and ``dd`` an eager/lazy hybrid; all combinations are sound:
the loop only concludes from LP facts about genuine transition points
and from oracle exhaustion, which every oracle backs with a complete
check.

:func:`eliminate_lexicographic` is the second loop shape the repository
kept re-implementing — the greedy "synthesise a component, discard what
it strictly decreases, repeat" elimination of the eager baselines — now
shared by ``eager_farkas``, ``eager_generators`` and the ``dnf`` prover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.lp_instance import RankingLp
from repro.core.problem import TerminationProblem
from repro.core.ranking import (
    AffineRankingFunction,
    LexicographicRankingFunction,
)
from repro.linalg.matrix import Span
from repro.linalg.vector import Vector
from repro.metrics import count


class MaxIterationsExceeded(RuntimeError):
    """The synthesis loop exceeded its iteration budget.

    With an SMT solver returning generators of the transition polyhedra
    the loop provably terminates (Lemma 1); the budget is a safety net
    for the OMT layer's one fallback (a closure optimum that violates a
    strict atom answers with the theory model instead) and for the
    non-extremal ablation, whose counterexamples are not generators and
    therefore carry no termination guarantee.
    """


@dataclass
class MonodimResult:
    """Output of Algorithm 1/3: ``(λ, λ0, strict?)`` plus diagnostics."""

    ranking: AffineRankingFunction
    strict: bool
    flat_basis: List[Vector] = field(default_factory=list)
    iterations: int = 0

    @property
    def is_trivial(self) -> bool:
        return self.ranking.is_trivial()


@dataclass
class MultidimResult:
    """Outcome of the lexicographic synthesis (Algorithm 2)."""

    success: bool
    ranking: Optional[LexicographicRankingFunction]
    components: List[MonodimResult] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return self.ranking.dimension if self.ranking else 0


@dataclass
class CegisEvent:
    """One engine event, delivered to the registered observers.

    ``kind`` is one of ``"component_start"``, ``"iteration"`` (one oracle
    query + LP re-solve round, with the row/flat counters of that round
    in ``payload``) and ``"component_end"``.  ``component`` is the
    0-based lexicographic dimension the event belongs to.
    """

    kind: str
    component: int
    iteration: int
    payload: Dict[str, object] = field(default_factory=dict)


#: An engine observer: called with every :class:`CegisEvent`.
CegisObserver = Callable[[CegisEvent], None]


class CegisEngine:
    """Oracle + budgets, composed into the loop.

    ``extremal`` asks the oracle for the most violating counterexample
    (the paper's choice) instead of an arbitrary one (§4.2 ablation).
    Every query is over the rational relaxation of the steps, which is
    sound for integer programs: the front end has already tightened the
    strict integer guards, and the invariants are closed over the
    integers.
    """

    def __init__(
        self,
        oracle,
        extremal: bool = True,
        max_iterations: int = 200,
        observers: Sequence[CegisObserver] = (),
    ):
        self.oracle = oracle
        self.extremal = extremal
        self.max_iterations = max_iterations
        self._observers: List[CegisObserver] = list(observers)

    def _emit(
        self, kind: str, component: int, iteration: int, **payload
    ) -> None:
        if not self._observers:
            return
        event = CegisEvent(kind, component, iteration, payload)
        for observer in self._observers:
            observer(event)

    # -- Algorithm 1 / 3: one quasi ranking function of maximal power --------------

    def synthesize_component(
        self,
        problem: TerminationProblem,
        flatness: Sequence[Vector] = (),
        component: int = 0,
    ) -> MonodimResult:
        """Synthesise one component over ``Φ ∧ flatness``.

        This is Algorithm 1 (single cut point) / Algorithm 3 (general
        case).  The loop alternates between

        * a counterexample query — with the paper's ``smt`` oracle the
          optimising query ``Sat(Φ ∧ AvoidSpace(u, B) ∧ λ·u ≤ 0)``
          minimising ``λ·u``: a counterexample is a transition on which
          the current candidate fails to decrease strictly, and
          minimisation makes it *extremal* (a vertex of one disjunct of
          the convex hull of one-step differences, or a ray when the
          objective is unbounded, §4.2) — and
        * the LP ``LP(V, Constraints(I))`` of Definition 11, which gets
          the oracle's witness rows and recomputes the quasi ranking
          function of maximal termination power over the generators
          collected so far; one warm-started instance stays alive for
          the whole loop (see :mod:`repro.core.lp_instance`),

        until the oracle is exhausted or the LP proves no collected
        generator separable.  Flat directions (counterexamples whose δ is
        forced to 0: every quasi ranking function is constant along them)
        are accumulated in the basis ``B`` and excluded from later
        queries through ``AvoidSpace`` (§4.1), which is what makes the
        loop terminate even when no strict ranking function exists.

        The component is strict when every collected *vertex* has δ = 1.
        Rays do not count: each step is a convex combination of vertices
        plus a cone of rays, so ``λ·u`` is at least the smallest ``λ·v``
        as long as ``λ·r ≥ 0`` on every ray, which the LP already
        enforces.  A line in the step set forces δ = 0 on its two rays
        without making the candidate any less strict.

        ``flatness`` restricts the transition relation to ``λ_{d'} · u =
        0`` for each of its stacked vectors ``λ_{d'}`` — Algorithm 2
        passes the previous lexicographic components here.
        """
        ranking_lp = RankingLp(problem)
        flat_basis: List[Vector] = []
        self._emit(
            "component_start",
            component,
            0,
            oracle=getattr(self.oracle, "name", ""),
            strategy="extremal" if self.extremal else "arbitrary",
        )
        current, deltas, iterations, vertices = self._refinement_loop(
            problem, ranking_lp, flatness, flat_basis, component
        )

        strict = bool(deltas) and all(value == 1 for value in deltas)
        if strict:
            strict = not self.oracle.stutters()
        current.strict = strict
        self._emit(
            "component_end",
            component,
            iterations,
            strict=strict,
            counterexamples=vertices,
        )
        return MonodimResult(
            ranking=current,
            strict=strict,
            flat_basis=flat_basis,
            iterations=iterations,
        )

    def _refinement_loop(
        self,
        problem: TerminationProblem,
        ranking_lp,
        flatness: Sequence[Vector],
        flat_basis: List[Vector],
        component: int,
    ):
        """Oracle query → LP re-solve, until fixpoint.

        Returns the final candidate, the δ values of its vertex rows (not
        its rays), the iteration count and the number of vertex rows
        added.  Counts oracle queries,
        counterexample rows (vertices and rays) and flat directions as
        ``synthesis.engine.*`` (:mod:`repro.metrics`).
        """
        current = problem.zero_ranking()
        flat_span = Span(problem.stacked_dimension)
        deltas: List[Fraction] = []
        vertex_indices: List[int] = []
        iterations = vertices = 0
        self.oracle.reset(problem, flatness)

        while True:
            iterations += 1
            if iterations > self.max_iterations:
                raise MaxIterationsExceeded(
                    "mono-dimensional synthesis exceeded %d iterations"
                    % self.max_iterations
                )
            count("synthesis.engine.oracle_queries")
            group = self.oracle.find(
                current.stacked_vector(problem.cutset), flat_basis, self.extremal
            )
            if group is None:
                self._emit("iteration", component, iterations, exhausted=True)
                break

            vertex_rows: List[Tuple[Vector, int]] = []
            rays_added = 0
            for witness in group:
                if witness.kind == "vertex":
                    count("synthesis.engine.counterexamples")
                    vertices += 1
                    index = ranking_lp.add_counterexample(witness.vector)
                    vertex_rows.append((witness.vector, index))
                    vertex_indices.append(index)
                elif not witness.vector.is_zero():
                    count("synthesis.engine.rays")
                    ranking_lp.add_counterexample(witness.vector)
                    rays_added += 1

            solution = ranking_lp.solve()
            deltas = [solution.delta_of(index) for index in vertex_indices]
            flats = 0
            if solution.all_gamma_zero and all(
                value == 0 for value in solution.deltas
            ):
                # No quasi ranking function separates any collected
                # generator: the component is finished (λ possibly 0).
                current = solution.ranking
                self._emit("iteration", component, iterations,
                           counterexamples=len(vertex_rows), rays=rays_added,
                           separable=False)
                break

            current = solution.ranking
            for vector, index in vertex_rows:
                if solution.delta_of(index) == 0 and flat_span.add(vector):
                    flat_basis.append(vector)
                    count("synthesis.engine.flat_directions")
                    flats += 1
            self._emit("iteration", component, iterations,
                       counterexamples=len(vertex_rows), rays=rays_added,
                       flat_directions=flats)

        return current, deltas, iterations, vertices

    # -- Algorithm 2: lexicographic composition ------------------------------------

    def synthesize_lexicographic(
        self,
        problem: TerminationProblem,
        max_dimension: Optional[int] = None,
    ) -> MultidimResult:
        """Run Algorithm 2 over *problem*.

        One component is synthesised per dimension; before dimension
        ``d`` the transition relation is restricted to the steps on which
        every previous component is constant (``λ_{d'} · u = 0``).  The
        loop stops as soon as a component is strict (success) or when the
        new component is linearly dependent on the previous ones without
        being strict (failure — Theorem 1).  So a success is a strict
        lexicographic linear ranking function, of minimal dimension, iff
        one exists relative to the given invariants.  Each dimension owns
        one persistent warm-started ``LP(V, Constraints(I))``.  At most
        *max_dimension* components are synthesised (default: the stacked
        dimension, which Theorem 1 never exceeds).
        """
        if max_dimension is None:
            max_dimension = problem.stacked_dimension
        components: List[MonodimResult] = []
        stacked: List[Vector] = []
        independent = Span(problem.stacked_dimension)
        ranking = LexicographicRankingFunction()

        while True:
            # λ_{d'} · u = 0 for every earlier d': only constant steps.
            result = self.synthesize_component(
                problem,
                flatness=stacked,
                component=len(components),
            )
            components.append(result)
            vector = result.ranking.stacked_vector(problem.cutset)

            if not result.strict and not independent.add(vector):
                # The new component adds nothing: by Theorem 1, no
                # lexicographic linear ranking function exists
                # relative to the invariant.
                return MultidimResult(False, None, components)

            ranking.components.append(result.ranking)
            stacked.append(vector)

            if result.strict:
                return MultidimResult(True, ranking, components)

            if len(ranking.components) >= max_dimension:
                return MultidimResult(False, None, components)


# ---------------------------------------------------------------------------
# The eager baselines' shared refinement loop
# ---------------------------------------------------------------------------

Item = TypeVar("Item")
Component = TypeVar("Component")


def eliminate_lexicographic(
    items: Sequence[Item],
    find_component: Callable[
        [List[Item]], Optional[Tuple[Component, Sequence[int]]]
    ],
    max_dimension: int,
) -> Tuple[List[Component], List[Item], bool]:
    """Greedy lexicographic elimination over *items*.

    The loop shape shared by the eager baselines (Rank-style Farkas,
    Ben-Amram & Genaim generator enumeration, per-disjunct DNF
    elimination): call ``find_component(remaining)`` for the next
    lexicographic component and the indices (into *remaining*) it
    strictly decreases, drop those items, and repeat until everything is
    eliminated (``proved``), no component makes progress, or the
    dimension cap is reached.

    Returns ``(components, remaining, proved)``; an empty *items* list is
    trivially proved with no components.
    """
    remaining = list(items)
    components: List[Component] = []
    proved = not remaining
    while remaining and len(components) < max_dimension:
        found = find_component(remaining)
        if found is None:
            break
        component, killed = found
        components.append(component)
        killed_set = set(killed)
        remaining = [
            item
            for index, item in enumerate(remaining)
            if index not in killed_set
        ]
        if not remaining:
            proved = True
            break
    return components, remaining, proved
