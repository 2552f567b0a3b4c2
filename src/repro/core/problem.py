"""The termination problem handed to the synthesis algorithms.

A :class:`TerminationProblem` packages everything Algorithms 1–3 need:

* the cut points ``W`` and the program variables ``x_1 … x_n``,
* a polyhedral invariant ``I_k`` per cut point (Definition 4/5),
* the block transitions of the large-block encoding (§2.2/§6),
* which variables range over the integers.

It also owns the encoding conventions shared by the SMT queries and the
LP, and the eager expansion of the blocks into path polyhedra
(:meth:`TerminationProblem.disjuncts`) that the baselines and the ``dd``
oracle run on.  The block vector ``u`` of Algorithm 3 (Definition 12) is
laid out as one group per cut point over the *homogenised* space
``(x, 1)``: the extra constant-one coordinate carries the affine offset
of the per-location ranking functions, so that ``λ · u`` equals
``ρ(k, x) − ρ(k', x')`` including the offsets when the control point
changes.  The invariant constraints are lifted to that space accordingly
(Definition 14): each ``a·x ≥ b`` becomes the homogeneous row
``a·x + (−b)·1 ≥ 0`` and every cut point additionally contributes the
row ``1 ≥ 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.ranking import AffineRankingFunction
from repro.invariants.invariant_map import InvariantMap
from repro.linalg.vector import Vector
from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import Formula, conjunction, disjunction
from repro.linexpr.transform import dnf_conjunctions, prime_suffix
from repro.program.large_block import BlockTransition
from repro.polyhedra.polyhedron import Polyhedron
from repro.smt.theory import check_conjunction

#: Name of the synthetic constant-one coordinate of the stacked space.
ONE_COORDINATE = "@one"


@dataclass
class InvariantRow:
    """One homogenised invariant constraint ``normal · (x, 1) ≥ 0``.

    ``normal`` is a linear expression over the program variables plus the
    :data:`ONE_COORDINATE`; the original ``a·x ≥ b`` constraint appears as
    ``a·x − b·@one ≥ 0`` and the implicit ``@one ≥ 0`` row closes the cone.
    """

    location: str
    normal: LinExpr


@dataclass(frozen=True)
class TransitionDisjunct:
    """One path polyhedron ``I_source ∧ path`` of the eager expansion.

    It keeps the auxiliary (join copy / havoc) variables of its
    path: Farkas reasoning and generator projection are both exact over
    the lifted space, so no quantifier elimination is required.

    Its dimensions are the variables of its rows plus ``primed``, the
    post-state copies ``x'`` of the program variables: a havoc on the
    last edge into the target leaves ``x'`` in no row, and it must stay a
    free dimension, not a coordinate fixed at 0.
    """

    source: str
    target: str
    constraints: Tuple[Constraint, ...]
    primed: Tuple[str, ...] = ()

    def variables(self) -> List[str]:
        names: Set[str] = set(self.primed)
        for constraint in self.constraints:
            names |= constraint.variables()
        return sorted(names)


class TerminationProblem:
    """Inputs and encoding conventions of the synthesis algorithms."""

    def __init__(
        self,
        variables: Sequence[str],
        cutset: Sequence[str],
        invariants: InvariantMap,
        blocks: Sequence[BlockTransition],
        integer_variables: Optional[Sequence[str]] = None,
    ):
        if not cutset:
            raise ValueError("the cut-set must contain at least one location")
        self.variables: Tuple[str, ...] = tuple(variables)
        if ONE_COORDINATE in self.variables:
            raise ValueError("%r is a reserved variable name" % ONE_COORDINATE)
        self.space_variables: Tuple[str, ...] = self.variables + (ONE_COORDINATE,)
        self.cutset: Tuple[str, ...] = tuple(cutset)
        self.invariants = invariants
        self.blocks: List[BlockTransition] = [
            block
            for block in blocks
            if block.source in self.cutset and block.target in self.cutset
        ]
        self.integer_variables: Set[str] = set(
            integer_variables if integer_variables is not None else variables
        )
        self._rows = self._collect_invariant_rows()
        self._transition_formula: Optional[Formula] = None

    # -- dimensions and names ------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_cutpoints(self) -> int:
        return len(self.cutset)

    @property
    def stacked_dimension(self) -> int:
        """Dimension of the block vector ``u`` (``|W| · (n + 1)``)."""
        return self.num_cutpoints * len(self.space_variables)

    def difference_variable(self, location: str, variable: str) -> str:
        """Name of the ``u`` component for (cut point, space coordinate)."""
        return "u[%s][%s]" % (location, variable)

    def difference_variables(self) -> List[str]:
        return [
            self.difference_variable(location, variable)
            for location in self.cutset
            for variable in self.space_variables
        ]

    # -- invariants -------------------------------------------------------------------

    def invariant(self, location: str) -> Polyhedron:
        return self.invariants.get(location)

    def invariant_rows(self) -> List[InvariantRow]:
        """The lifted ``Constraints(I)`` of Definition 14 (homogenised)."""
        return list(self._rows)

    def _collect_invariant_rows(self) -> List[InvariantRow]:
        rows: List[InvariantRow] = []
        for location in self.cutset:
            polyhedron = self.invariant(location)
            # constraint_vectors yields (a, b) meaning a·x ≥ b; homogenise to
            # a·x + (−b)·@one ≥ 0.
            for normal, bound in polyhedron.constraint_vectors():
                rows.append(
                    InvariantRow(
                        location, normal + LinExpr({ONE_COORDINATE: -bound})
                    )
                )
            rows.append(
                InvariantRow(location, LinExpr({ONE_COORDINATE: 1}))
            )
        return rows

    # -- formulas for the SMT queries -----------------------------------------------------

    def transition_formula(self) -> Formula:
        """``Φ``: the disjunction over blocks of ``I_k(x) ∧ φ(x, x') ∧ u-defs``.

        Built once and shared by every oracle query of every component.
        """
        if self._transition_formula is None:
            self._transition_formula = disjunction(
                [self._block_formula(block) for block in self.blocks]
            )
        return self._transition_formula

    def disjuncts(self) -> Tuple[TransitionDisjunct, ...]:
        """All feasible path polyhedra ``I_source ∧ path`` of the blocks.

        The transition relation in disjunctive normal form, the explicit
        list of convex polyhedra the eager baselines need and the paper's
        lazy algorithm avoids computing.  Every strict inequality over
        integer variables is tightened and the remaining ones are relaxed
        to their closures (the baselines work with closed polyhedra, as
        in the original publications).  Infeasible disjuncts, paths that
        are syntactically present but semantically dead, are dropped.

        Expanded afresh on every call, unlike :meth:`transition_formula`:
        the expansion (one feasibility LP per disjunct) is part of what an
        eager method costs, so each baseline run pays for its own and its
        time does not depend on which tool ran first on the problem.  The
        ``dd`` oracle keeps one expansion for all components of its run.
        """
        integer_variables = self.smt_integer_variables()
        primed = tuple(prime_suffix(name) for name in self.variables)
        disjuncts: List[TransitionDisjunct] = []
        for block in self.blocks:
            invariant = self.invariant(block.source).constraints
            for conjunct in dnf_conjunctions(block.formula):
                rows = tuple(
                    constraint.closure(integer_variables)
                    for constraint in list(invariant) + list(conjunct)
                )
                if check_conjunction(rows).satisfiable:
                    disjuncts.append(
                        TransitionDisjunct(
                            block.source, block.target, rows, primed
                        )
                    )
        return tuple(disjuncts)

    def _block_formula(self, block: BlockTransition) -> Formula:
        parts: List[Formula] = []
        parts.append(conjunction(self.invariant(block.source).constraints))
        parts.append(block.formula)
        parts.extend(self._difference_definitions(block.source, block.target))
        return conjunction(parts)

    def _difference_definitions(self, source: str, target: str) -> List[Formula]:
        """``u = e_source((x, 1)) − e_target((x', 1))`` componentwise."""
        definitions: List[Formula] = []
        for location in self.cutset:
            for variable in self.variables:
                name = self.difference_variable(location, variable)
                value = LinExpr()
                if location == source:
                    value = value + LinExpr.variable(variable)
                if location == target:
                    value = value - LinExpr.variable(prime_suffix(variable))
                definitions.append(LinExpr.variable(name).eq(value))
            one_name = self.difference_variable(location, ONE_COORDINATE)
            one_value = Fraction(0)
            if location == source:
                one_value += 1
            if location == target:
                one_value -= 1
            definitions.append(LinExpr.variable(one_name).eq(one_value))
        return definitions

    # -- vectors and objectives --------------------------------------------------------------

    def stacked_row(self, row: InvariantRow) -> Vector:
        """``e_k(a_i^k)`` as a vector over the stacked ``u`` space."""
        entries: List[Fraction] = []
        for location in self.cutset:
            for variable in self.space_variables:
                if location == row.location:
                    entries.append(row.normal.coefficient(variable))
                else:
                    entries.append(Fraction(0))
        return Vector(entries)

    def difference_vector(self, model: Mapping[str, Fraction]) -> Vector:
        """Extract the ``u`` value from an SMT model (missing components = 0)."""
        return Vector(
            model.get(name, Fraction(0)) for name in self.difference_variables()
        )

    def objective(self, ranking: AffineRankingFunction) -> LinExpr:
        """``λ · u`` — equal to ``ρ(k, x) − ρ(k', x')`` — over the u variables."""
        expr = LinExpr()
        for location in self.cutset:
            lam = ranking.coefficients[location]
            for index, variable in enumerate(self.variables):
                if lam[index] == 0:
                    continue
                expr = expr + LinExpr(
                    {self.difference_variable(location, variable): lam[index]}
                )
            offset = ranking.offsets[location]
            if offset != 0:
                expr = expr + LinExpr(
                    {self.difference_variable(location, ONE_COORDINATE): offset}
                )
        return expr

    def zero_ranking(self) -> AffineRankingFunction:
        """The all-zero candidate the synthesis loop starts from."""
        return AffineRankingFunction(
            self.variables,
            {
                location: Vector.zeros(self.num_variables)
                for location in self.cutset
            },
            {location: Fraction(0) for location in self.cutset},
        )

    def smt_integer_variables(self) -> Set[str]:
        """Integer declarations for the SMT queries (program vars, primed too)."""
        names: Set[str] = set()
        for variable in self.integer_variables:
            names.add(variable)
            names.add(prime_suffix(variable))
        return names

    # -- misc -----------------------------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        return {
            "cut_points": self.num_cutpoints,
            "variables": self.num_variables,
            "blocks": len(self.blocks),
            "invariant_rows": len(self._rows),
            "paths_summarised": sum(block.path_count for block in self.blocks),
        }
