"""Counterexample oracles for the CEGIS engine.

An oracle answers one question: *given the current candidate, produce a
transition step on which it fails to decrease strictly* — a model of
``Φ ∧ AvoidSpace(u, B) ∧ λ·u ≤ 0`` — or certify that none exists.  It
also owns the paper's §4.2 ablation axis: with ``extremal`` set it
returns the most violating counterexample it can find, otherwise the
first one.  Two interchangeable implementations:

* :class:`SmtOptimizingOracle` (``"smt"``) — the paper's oracle: an
  optimising SMT query minimising ``λ·u``, so the witness is *extremal*
  (a vertex of one disjunct of the convex hull of one-step differences,
  plus a ray when the objective is unbounded, §4.2).  Without
  ``extremal`` the same query is asked without the minimisation,
  yielding an arbitrary theory model.  The query never names ``u``: each
  block ``b`` substitutes ``u = M_b·z + o_b``, read off its post-state,
  into its own copy of ``AvoidSpace`` and ``λ·u ≤ 0``, and the witness
  is the selected block's map applied to the model.
* :class:`DdEnumerationOracle` (``"dd"``) — vertex/ray enumeration: the
  generators of every path polyhedron are computed once per component
  with the double-description method of :mod:`repro.polyhedra.dd`,
  mapped into ``u`` by the same block maps, and handed out one per
  query; ``λ·g`` is the dot product of two stacked vectors.  When no
  unused generator violates the candidate, exhaustion is *confirmed*
  with one complete SMT query, so verdicts never depend on the
  enumeration being lossless.

Every oracle only ever returns genuine points/rays of the restricted
transition relation, and only reports exhaustion after a complete check
— the two facts the engine's verdicts rest on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.core.problem import BLOCK_SELECTOR, TerminationProblem, TransitionDisjunct
from repro.linalg.matrix import Span, orthogonal_complement
from repro.linalg.vector import Vector
from repro.linexpr.formula import FALSE, Formula, conjunction
from repro.metrics import count
from repro.smt.optimize import OptimizingSmtSolver

#: Registry names of the built-in oracles, in preference order.
ORACLE_NAMES = ("smt", "dd")


# ---------------------------------------------------------------------------
# Witnesses and the oracle interface
# ---------------------------------------------------------------------------


@dataclass
class Witness:
    """One counterexample in the stacked ``u`` space.

    A ``"vertex"`` witness is a genuine one-step difference vector; a
    ``"ray"`` witness is a recession direction along which the candidate
    is unbounded.  ``origin`` names the oracle that produced it.
    """

    vector: Vector
    kind: str  # "vertex" | "ray"
    origin: str = ""


#: Witnesses that must be added together (a vertex and its ray).
WitnessGroup = List[Witness]


class CounterexampleOracle(abc.ABC):
    """Source of counterexamples for one synthesis component."""

    #: Stable registry name (the ``cex_oracle`` config value).
    name: str = ""

    def reset(
        self,
        problem: TerminationProblem,
        flatness: Sequence[Vector] = (),
    ) -> None:
        """Prepare for one component of *problem* (called by the engine).

        The component's steps are those with ``λ_{d'} · u = 0`` for every
        stacked vector ``λ_{d'}`` of *flatness*.
        """
        self._problem = problem
        self._flatness = list(flatness)

    @abc.abstractmethod
    def find(
        self,
        objective: Vector,
        flat_basis: Sequence[Vector],
        extremal: bool = True,
    ) -> Optional[WitnessGroup]:
        """One witness group refuting the candidate outside ``span(flat_basis)``.

        *objective* is the candidate's stacked vector ``λ``; a witness
        ``u`` refutes it when ``λ · u ≤ 0``.  The group is a vertex,
        followed by a ray when the candidate is unbounded below along
        one.  ``None`` means *exhausted*: no counterexample exists (the
        component is finished); oracles must only return ``None`` after
        a complete check.
        """

    @abc.abstractmethod
    def stutters(self) -> bool:
        """Whether the component's ``Φ`` admits a step with ``u = 0``.

        The check at the end of Algorithm 1: a component whose every δ is
        1 is strict only if no step has ``u = 0``, which nothing decreases.
        """


# ---------------------------------------------------------------------------
# The paper's oracle: optimising SMT
# ---------------------------------------------------------------------------


class SmtOptimizingOracle(CounterexampleOracle):
    """Extremal (or arbitrary) counterexamples from optimising SMT.

    One SMT context per component: ``Φ``, with the flatness rows
    substituted into each block, is encoded once, on the
    first query after :meth:`reset`, and each query adds
    ``∨_b (@block = b ∧ AvoidSpace_b ∧ λ·u_b ≤ 0)`` — or ``u_b = 0`` for
    the stutter check — for itself only, where ``u_b = M_b·z + o_b``
    is block ``b``'s :class:`~repro.core.problem.BlockMap`.  What the
    DPLL(T) loop learns in one query prunes the next.  ``AvoidSpace_b``
    is built once per flat basis, which only changes when the engine adds
    a flat direction.  When every block moves some coordinate by a
    constant stride, every ``u_b = 0`` is FALSE and the stutter check
    asks no query.
    """

    name = "smt"

    def reset(
        self,
        problem: TerminationProblem,
        flatness: Sequence[Vector] = (),
    ) -> None:
        super().reset(problem, flatness)
        self._context: Optional[OptimizingSmtSolver] = None
        self._maps = [
            problem.block_map(block.source, block.target)
            for block in problem.blocks
        ]
        self._avoid: Optional[Tuple[Tuple[Vector, ...], List[Formula]]] = None

    def _solver(self) -> OptimizingSmtSolver:
        if self._context is None:
            self._context = OptimizingSmtSolver()
            self._context.assert_formula(
                self._problem.transition_formula(self._flatness)
            )
        return self._context

    def _avoid_space(self, flat_basis: Sequence[Vector]) -> List[Formula]:
        """``AvoidSpace_b`` per block, memoised on the flat basis."""
        key = tuple(flat_basis)
        if self._avoid is None or self._avoid[0] != key:
            complement = orthogonal_complement(
                list(key), self._problem.stacked_dimension
            )
            self._avoid = (
                key,
                [block_map.avoid_space(complement) for block_map in self._maps],
            )
        return self._avoid[1]

    def find(
        self,
        objective: Vector,
        flat_basis: Sequence[Vector],
        extremal: bool = True,
    ) -> Optional[WitnessGroup]:
        count("synthesis.oracles.smt_queries")
        forms = [block_map.form(objective) for block_map in self._maps]
        query = self._problem.blockwise(
            [
                conjunction([avoid, form <= 0])
                for avoid, form in zip(self._avoid_space(flat_basis), forms)
            ]
        )
        if extremal:
            outcome = self._solver().minimize(
                lambda model: forms[int(model.get(BLOCK_SELECTOR, 0))], (query,)
            )
        else:
            # Same query, no minimisation: an arbitrary theory model —
            # the non-extremal half of the paper's §4.2 ablation.
            outcome = self._solver().check((query,))
        if outcome.is_unsat:
            return None
        block_map = self._maps[int(outcome.model.get(BLOCK_SELECTOR, 0))]
        vertex = block_map.image(outcome.model)
        group: WitnessGroup = [Witness(vector=vertex, kind="vertex", origin=self.name)]
        if outcome.unbounded:
            ray = block_map.image(outcome.ray, ray=True)
            if not ray.is_zero():
                group.append(Witness(vector=ray, kind="ray", origin=self.name))
        count("synthesis.oracles.candidates")
        return group

    def stutters(self) -> bool:
        zero = self._problem.blockwise(
            [block_map.is_zero() for block_map in self._maps]
        )
        if zero is FALSE:  # every block moves by a constant stride
            return False
        return self._solver().check((zero,)).is_sat


# ---------------------------------------------------------------------------
# Mapping disjunct generators into the stacked u-space
# ---------------------------------------------------------------------------


def disjunct_generators(
    problem: TerminationProblem, disjunct: TransitionDisjunct
) -> List[Tuple[str, Vector]]:
    """Vertices and rays of the disjunct, mapped into the stacked u-space."""
    from repro.polyhedra.dd import constraints_to_generators

    block_map = problem.block_map(disjunct.source, disjunct.target)
    variables = disjunct.variables()
    system = constraints_to_generators(disjunct.constraints, variables)
    generators: List[Tuple[str, Vector]] = []
    for vertex in system.vertices:
        weight = vertex[-1]
        point = {
            name: Fraction(value, weight) for name, value in zip(variables, vertex)
        }
        generators.append(("vertex", block_map.image(point)))
    # A line is a ray in both orientations (it forces ``λ·l = 0``).
    directions = list(system.rays)
    for line in system.lines:
        directions.append(line)
        directions.append(tuple(-value for value in line))
    for ray in directions:
        image = block_map.image(dict(zip(variables, ray)), ray=True)
        if not image.is_zero():
            generators.append(("ray", image))
    return generators


# ---------------------------------------------------------------------------
# Double-description enumeration oracle
# ---------------------------------------------------------------------------


@dataclass
class _Generator:
    """One enumerated generator with its provenance.

    ``key`` is a total order on generators that depends only on their
    content (kind, then exact vector entries): it breaks ties between
    equally violating generators independently of enumeration order.
    """

    vector: Vector
    kind: str  # "vertex" | "ray"
    disjunct: int
    key: tuple = field(init=False, repr=False, compare=False)
    used: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        self.key = (
            self.kind,
            tuple((entry.numerator, entry.denominator) for entry in self.vector),
        )


class DdEnumerationOracle(CounterexampleOracle):
    """One-at-a-time hand-out of eagerly enumerated vertex/ray generators.

    The problem's path polyhedra (:meth:`TerminationProblem.disjuncts`,
    expanded at the first :meth:`reset` and kept for the later components
    of the same problem), restricted by the component's
    lexicographic flatness constraints translated into each disjunct's
    state space, are converted to generators once per :meth:`reset`.  Each
    :meth:`find` returns one unused generator violating the current
    candidate — the most violating one (ties broken by content) when
    ``extremal`` is set, the first one in enumeration order otherwise —
    and marks it used.  A violating ray comes with the most violating
    vertex of its disjunct, as the SMT oracle's rays do: a ray alone
    carries no point of the relation for the LP to separate.  Exhaustion
    is confirmed with one complete SMT query of the same kind (extremal
    or arbitrary), whose witness (if any) is returned like a normal
    candidate.
    """

    name = "dd"

    def __init__(self) -> None:
        # The last problem reset on, with its path polyhedra.
        self._expanded: Optional[
            Tuple[TerminationProblem, Tuple[TransitionDisjunct, ...]]
        ] = None

    def reset(
        self,
        problem: TerminationProblem,
        flatness: Sequence[Vector] = (),
    ) -> None:
        super().reset(problem, flatness)
        self._confirmation = SmtOptimizingOracle()
        self._confirmation.reset(problem, flatness)
        if self._expanded is None or self._expanded[0] is not problem:
            self._expanded = (problem, problem.disjuncts())
        self._generators = self._enumerate(problem, flatness)

    def _enumerate(
        self, problem: TerminationProblem, flatness: Sequence[Vector]
    ) -> List[_Generator]:
        generators: List[_Generator] = []
        for position, disjunct in enumerate(self._expanded[1]):
            block_map = problem.block_map(disjunct.source, disjunct.target)
            restricted = replace(
                disjunct,
                constraints=disjunct.constraints
                + tuple(block_map.form(row).eq(0) for row in flatness),
            )
            for kind, vector in disjunct_generators(problem, restricted):
                if vector.is_zero():
                    # u = 0 is a stuttering step; AvoidSpace always
                    # excludes it and the end-of-loop check handles it.
                    continue
                generators.append(_Generator(vector, kind, position))
        return generators

    @staticmethod
    def _violation(
        generator: _Generator, objective: Vector, flat: Span
    ) -> Optional[Fraction]:
        """``λ·g`` when *generator* refutes the candidate, else ``None``."""
        value = objective.dot(generator.vector)
        if generator.kind == "vertex":
            if value > 0 or generator.vector in flat:
                return None
        elif value >= 0:
            return None
        return value

    def find(
        self,
        objective: Vector,
        flat_basis: Sequence[Vector],
        extremal: bool = True,
    ) -> Optional[WitnessGroup]:
        flat = Span(len(objective), flat_basis)
        violating: List[Tuple[Fraction, _Generator]] = []
        for generator in self._generators:
            if generator.used:
                continue
            value = self._violation(generator, objective, flat)
            if value is not None:
                violating.append((value, generator))
                if not extremal:
                    break
        if not violating:
            # No unused generator violates: confirm exhaustion with the
            # complete query (covers degenerate DD output and interactions
            # between AvoidSpace and non-generator points), extremal or
            # arbitrary as asked.
            return self._confirmation.find(objective, flat_basis, extremal)
        count("synthesis.oracles.candidates", len(violating))
        _, best = min(violating, key=lambda item: (item[0], item[1].key))
        chosen = [best]
        if best.kind == "ray":
            vertices = [
                generator
                for generator in self._generators
                if generator.kind == "vertex"
                and generator.disjunct == best.disjunct
            ]
            if vertices:
                chosen.insert(
                    0,
                    min(
                        vertices,
                        key=lambda vertex: (
                            objective.dot(vertex.vector),
                            vertex.key,
                        ),
                    ),
                )
        for generator in chosen:
            generator.used = True
        return [
            Witness(vector=generator.vector, kind=generator.kind, origin=self.name)
            for generator in chosen
        ]

    def stutters(self) -> bool:
        return self._confirmation.stutters()


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def make_oracle(name) -> CounterexampleOracle:
    """Resolve an oracle name (or pass an instance through unchanged)."""
    if isinstance(name, CounterexampleOracle):
        return name
    if name == "smt":
        return SmtOptimizingOracle()
    if name == "dd":
        return DdEnumerationOracle()
    raise ValueError(
        "unknown counterexample oracle %r (available: %s)"
        % (name, ", ".join(ORACLE_NAMES))
    )
