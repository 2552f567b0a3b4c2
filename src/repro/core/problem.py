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
(Definition 14): each ``a·x ≥ b`` of cut point ``k`` becomes the stacked
row ``e_k(a, −b)`` and every cut point additionally contributes the row
``e_k(0, 1)``.

A candidate ``λ`` (``ranking.stacked_vector(cutset)``, read back by
:meth:`TerminationProblem.ranking`), a counterexample and a flat
direction are each a :class:`~repro.linalg.vector.Vector` in that
layout.  An invariant row is nonzero only in its own cut point's block,
so it is kept as its nonzeros (:class:`InvariantRow`), and the ranking
LP and :meth:`TerminationProblem.combine` read only those.  ``u`` is
never a variable of a formula.  On a step of one block it is the affine
image ``M_b·z + o_b`` (:class:`BlockMap`), nonzero only in the source
and target blocks, so ``Φ`` is
``∨_b (@block = b ∧ I_source ∧ path_b)``, each disjunct selected by the
reserved variable ``@block`` (one block needs none), and every
``u``-space formula of a query (flatness, ``AvoidSpace``, ``λ·u ≤ 0``,
``u = 0``) is substituted into each block through the same map, a
vector ``λ`` becoming the form ``λ·(M_b·z + o_b)`` over the step.  The
``dd`` oracle maps its generators through it too.  The map reads each
``x'`` off the block's post-state, the affine SSA version ``post(x)``
every path of the block assigns (``x'`` itself where there is none), so
it equals Definition 12's ``M_b·(x, x') + o_b`` on the block's steps,
and every consumer conjoins the block; a coordinate the block does not
move is identically zero, and one it moves by a constant is a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.ranking import AffineRankingFunction
from repro.invariants.invariant_map import InvariantMap
from repro.linalg.vector import Vector
from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import FALSE, TRUE, Formula, conjunction, disjunction
from repro.linexpr.transform import dnf_conjunctions, prime_suffix
from repro.program.large_block import BlockTransition
from repro.polyhedra.polyhedron import Polyhedron
from repro.smt.theory import check_conjunction

#: Name of the synthetic constant-one coordinate of the stacked space.
ONE_COORDINATE = "@one"

#: Name of the variable whose value selects the block of a step in ``Φ``.
BLOCK_SELECTOR = "@block"

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


class InvariantRow(NamedTuple):
    """One lifted row ``e_k(a, −b)`` of ``Constraints(I)`` (Definition 14).

    ``cutpoint`` is ``k``'s index in the cut-set; ``terms`` are the row's
    nonzero entries as ``(stacked index, integer)`` pairs in index order,
    all inside cut point ``k``'s block.
    """

    cutpoint: int
    terms: Tuple[Tuple[int, int], ...]


class BlockMap:
    """The block vector of a ``source → target`` step: ``u = M·z + o``.

    Coordinate ``(k, v)`` of ``u`` is ``[k = source]·v − [k = target]·v'``
    over ``(x, 1)`` (Definition 12).  On the block's steps ``v' =
    post(v)`` (:attr:`~repro.program.large_block.BlockTransition.post`),
    so the map reads ``post(v)`` in place of ``v'``: ``z`` is ``x`` with
    the join copies and havoc inputs of the block, plus ``v'`` for a
    variable without a post-state, and the constant of ``post(v)`` goes
    into ``o``.  The map equals Definition 12's only on the block's steps,
    which every consumer conjoins.  A coordinate the block leaves
    unchanged is identically zero, and one it moves by a constant stride
    is a constant.

    Every ``u``-space formula of a query is rewritten over ``z`` through
    this map (:meth:`form`), and every witness over ``z`` is mapped back
    to ``u`` by :meth:`image`.  Only rows of the source and target blocks
    can be nonzero: the map keeps the nonzero ones, and :attr:`support`
    their indices.
    """

    def __init__(
        self,
        problem: "TerminationProblem",
        source: str,
        target: str,
        post: Mapping[str, LinExpr],
    ):
        width = len(problem.space_variables)
        self._size = problem.stacked_dimension
        #: ``(i, M_i, o_i)`` for every nonzero row ``M_i·z + o_i``, in
        #: index order; ``M_i`` as ``(name, coefficient)`` pairs.
        self._rows: List[Tuple[int, Tuple[Tuple[str, Fraction], ...], Fraction]] = []
        for k, location in enumerate(problem.cutset):
            at_source, at_target = location == source, location == target
            if not (at_source or at_target):
                continue
            start = k * width
            for offset, variable in enumerate(problem.variables):
                row = LinExpr.variable(variable) if at_source else LinExpr()
                if at_target:
                    row -= post.get(
                        variable, LinExpr.variable(prime_suffix(variable))
                    )
                if row.terms or row.constant_term:
                    self._rows.append(
                        (start + offset, tuple(row.terms.items()), row.constant_term)
                    )
            if at_source != at_target:  # the @one coordinate: 1 − 1 on a self-loop
                self._rows.append(
                    (start + problem.num_variables, (), _ONE if at_source else -_ONE)
                )
        #: The indices of the nonzero rows of ``M·z + o``.
        self.support: Tuple[int, ...] = tuple(index for index, _, _ in self._rows)

    def form(self, weight: Vector) -> LinExpr:
        """``w·(M·z + o)``: the form ``w·u`` of a stacked vector, over ``z``.

        The nonzero rows of ``M_b`` are combined with the nonzero entries
        of *w* in index order.
        """
        entries = weight.entries()
        terms: Dict[str, Fraction] = {}
        constant = _ZERO
        for index, row, offset in self._rows:
            entry = entries[index]
            if entry == 0:
                continue
            for name, coefficient in row:
                terms[name] = terms.get(name, 0) + entry * coefficient
            constant += entry * offset
        return LinExpr(terms, constant)

    def image(self, point: Mapping[str, Fraction], ray: bool = False) -> Vector:
        """``M·z + o`` for a point, ``M·z`` for a *ray*; missing names read 0."""
        entries = [_ZERO] * self._size
        for index, row, offset in self._rows:
            entries[index] = sum(
                (c * point.get(name, 0) for name, c in row),
                _ZERO if ray else offset,
            )
        return Vector(entries)

    def _basis(self, weights: Sequence[Vector]) -> Optional[List[LinExpr]]:
        """A basis of the forms ``{w·(M·z + o) : w ∈ span(weights)}``.

        The first independent forms of the *weights*, found by sparse
        elimination that pivots on the constant column only when nothing
        else is left; ``None`` when the constant form ``1`` lies in their
        span, which is exactly when the constant column holds a pivot.
        """
        basis: List[LinExpr] = []
        pivots: List[Tuple[str, Dict[str, Fraction]]] = []
        for weight in weights:
            form = self.form(weight)
            row = dict(form.terms)
            row[ONE_COORDINATE] = form.constant_term
            for column, pivot_row in pivots:
                factor = row.get(column, 0)
                if factor:
                    for name, value in pivot_row.items():
                        row[name] = row.get(name, 0) - factor * value
            row = {name: value for name, value in row.items() if value}
            if not row:
                continue
            column = min(row, key=lambda name: name == ONE_COORDINATE)
            if column == ONE_COORDINATE:
                return None
            pivot = row[column]
            pivots.append((column, {n: v / pivot for n, v in row.items()}))
            basis.append(form)
        return basis

    def avoid_space(self, complement: Sequence[Vector]) -> Formula:
        """``AvoidSpace_b``: ``M·z + o ∉ span(B)``, given a basis of ``span(B)^⊥``.

        One dis-equality per form of a basis of ``{w·(M·z + o)}``; TRUE
        when the constant form lies in their span.
        """
        basis = self._basis(complement)
        if basis is None:
            return TRUE
        return disjunction([disjunction([f < 0, f > 0]) for f in basis])

    def is_zero(self) -> Formula:
        """``M·z + o = 0``: the step does not move in the ``u`` space."""
        basis = self._basis([Vector.unit(self._size, i) for i in self.support])
        if basis is None:
            return FALSE
        return conjunction([form.eq(0) for form in basis])


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
        for reserved in (ONE_COORDINATE, BLOCK_SELECTOR):
            if reserved in self.variables:
                raise ValueError("%r is a reserved variable name" % reserved)
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
        self._block_maps: Dict[Tuple[str, str], BlockMap] = {}

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

    # -- invariants -------------------------------------------------------------------

    def invariant(self, location: str) -> Polyhedron:
        """``I_k`` at the cut point *location*; a location outside the
        cut-set has no invariant in the problem."""
        if location not in self.cutset:
            raise ValueError("%r is not a cut point of the problem" % (location,))
        return self.invariants.get(location)

    def invariant_rows(self) -> List[InvariantRow]:
        """The lifted ``Constraints(I)`` of Definition 14, as sparse rows.

        ``e_k(a, −b)`` for every ``a·x ≥ b`` of ``I_k``, then ``e_k(0, 1)``,
        cut point by cut point.
        """
        return list(self._rows)

    def _collect_invariant_rows(self) -> List[InvariantRow]:
        width = len(self.space_variables)
        rows: List[InvariantRow] = []
        for k, location in enumerate(self.cutset):
            start = k * width
            # constraint_vectors yields (a, b) meaning a·x ≥ b; a
            # polyhedron keeps primitive integer rows.
            for normal, bound in self.invariant(location).constraint_vectors():
                entries = [normal.coefficient(name) for name in self.variables]
                entries.append(-bound)
                rows.append(
                    InvariantRow(
                        k,
                        tuple(
                            (start + offset, value.numerator)
                            for offset, value in enumerate(entries)
                            if value
                        ),
                    )
                )
            rows.append(InvariantRow(k, ((start + self.num_variables, 1),)))
        return rows

    def combine(self, weights: Sequence[Fraction]) -> Vector:
        """``Σ_i w_i·row_i`` over :meth:`invariant_rows`, from their nonzeros."""
        entries = [_ZERO] * self.stacked_dimension
        for weight, row in zip(weights, self._rows):
            if weight:
                for index, value in row.terms:
                    entries[index] += weight * value
        return Vector(entries)

    # -- formulas for the SMT queries -----------------------------------------------------

    def block_map(self, source: str, target: str) -> BlockMap:
        """``M_b``, the block vector of a ``source → target`` step (memoised).

        A pair of cut points without a block in the problem has no
        post-state, so its map is Definition 12's over ``x'``.
        """
        key = (source, target)
        if key not in self._block_maps:
            post = next(
                (
                    block.post
                    for block in self.blocks
                    if (block.source, block.target) == key
                ),
                {},
            )
            self._block_maps[key] = BlockMap(self, source, target, post)
        return self._block_maps[key]

    def blockwise(self, parts: Sequence[Formula]) -> Formula:
        """``∨_b (@block = b ∧ parts[b])``, one part per block.

        The selector atoms ``@block = b`` exclude one another (the CNF's
        bound axioms), so every block-indexed formula of one SMT context
        is satisfied by the same block.  With one block there is nothing
        to select, and its part is returned as it is.
        """
        if len(parts) == 1:
            return parts[0]
        selector = LinExpr.variable(BLOCK_SELECTOR)
        return disjunction(
            [
                conjunction([selector.eq(index), part])
                for index, part in enumerate(parts)
            ]
        )

    def transition_formula(self, flatness: Sequence[Vector] = ()) -> Formula:
        """``Φ = ∨_b (@block = b ∧ I_source(x) ∧ φ_b(x, x') ∧ flatness_b)``.

        *flatness* holds the stacked vectors ``λ_{d'}`` of Algorithm 2's
        earlier components; block ``b`` gets each as ``λ_{d'}·(M_b·z +
        o_b) = 0`` through its :class:`BlockMap`, so no atom of ``Φ``
        mentions ``u``.
        """
        return self.blockwise(
            [
                conjunction(
                    list(self.invariant(block.source).constraints)
                    + [block.formula]
                    + [
                        self.block_map(block.source, block.target).form(row).eq(0)
                        for row in flatness
                    ]
                )
                for block in self.blocks
            ]
        )

    def disjuncts(self) -> Tuple[TransitionDisjunct, ...]:
        """All feasible path polyhedra ``I_source ∧ path`` of the blocks.

        The transition relation in disjunctive normal form, the explicit
        list of convex polyhedra the eager baselines need and the paper's
        lazy algorithm avoids computing.  Every strict inequality over
        integer variables is tightened and the remaining ones are relaxed
        to their closures (the baselines work with closed polyhedra, as
        in the original publications).  Infeasible disjuncts, paths that
        are syntactically present but semantically dead, are dropped.

        Expanded afresh on every call: the expansion (one feasibility LP
        per disjunct) is part of what an eager method costs, so each
        baseline run pays for its own and its time does not depend on
        which tool ran first on the problem.  The ``dd`` oracle keeps one
        expansion for all components of its run.
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

    # -- rankings ---------------------------------------------------------------------------

    def ranking(self, stacked: Vector) -> AffineRankingFunction:
        """The component whose ``stacked_vector(cutset)`` is *stacked*.

        Cut point ``k``'s block ``(λ_k, λ0_k)`` holds the coefficients of
        the program variables, then the offset on the constant-one
        coordinate.
        """
        width = len(self.space_variables)
        coefficients: Dict[str, Vector] = {}
        offsets: Dict[str, Fraction] = {}
        for k, location in enumerate(self.cutset):
            block = stacked[k * width : (k + 1) * width]
            coefficients[location] = block[: self.num_variables]
            offsets[location] = block[self.num_variables]
        return AffineRankingFunction(self.variables, coefficients, offsets)

    def zero_ranking(self) -> AffineRankingFunction:
        """The all-zero candidate the synthesis loop starts from."""
        return self.ranking(Vector.zeros(self.stacked_dimension))

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
