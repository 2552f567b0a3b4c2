"""Fourier–Motzkin elimination and exact redundancy removal.

Fourier–Motzkin is the fallback of
:class:`~repro.polyhedra.polyhedron.Polyhedron` for an assignment, havoc
or projection whose image is lower-dimensional (a full-dimensional image
is computed on the generators).  No baseline uses it: the eager
baselines keep their auxiliary variables and work on the lifted path
polyhedra directly (see :meth:`repro.core.problem.TerminationProblem.disjuncts`).

The paper points out (§2.2) that eliminating a block of existential
quantifiers can blow up exponentially; the lazy algorithm never does it,
but the substrate still needs a correct *and affordable* implementation.
Three layers keep the row count down, cheapest first:

1. **Scaled-integer rows.**  Constraints are combined as GCD-normalised
   :class:`~repro.linalg.sparse.SparseRow` integer vectors (the constant
   at a sentinel index), so each FM combination is one fused
   integer multiply-add instead of a chain of ``Fraction`` allocations —
   and identical rows collide structurally, deduplicating for free.
2. **Syntactic pruning.**  After every elimination step, duplicate rows
   and syntactically dominated rows (same homogeneous direction, weaker
   bound) are dropped, and rows failing Kohler/Imbert's acceleration
   bound — a combination touching more than ``k + 1`` original
   inequalities after ``k`` eliminations is always redundant — never
   survive.  No LP is solved for any of this.
3. **Exact pruning.**  :func:`remove_redundant` runs once at the end
   of a projection (and, by LP, mid-flight only if the system still
   outgrows a safety threshold), instead of once per constraint per
   eliminated variable as the dense implementation did.  Given the
   generators of the result, it reads most decisions off the generators
   each row saturates (a facet's rows span a face of dimension ``d − 1``)
   and solves an entailment LP only for the implicit equalities of a
   lower-dimensional result.  It keeps exactly the rows the sequential
   LP test keeps.

The ``polyhedra.projection.*`` counters (:mod:`repro.metrics`) record
the work: ``variables_eliminated``, ``combinations``, ``lp_calls`` (exact
entailment LPs solved), ``rows_by_saturation``/``rows_to_lp`` (rows the
generators decided, rows they left to the LP),
``rows_pruned_syntactic``/``rows_pruned_kohler`` (rows the cheap layers
dropped) and ``lp_calls_saved`` — the entailment LPs avoided: *dominated*
and Kohler-pruned rows, which the per-step LP pruning of the dense
implementation would have entailment-checked, and rows decided by
saturation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.linalg.sparse import SparseRow
from repro.polyhedra.generators import GeneratorSystem, integer_rank
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.problem import Sense
from repro.lp.simplex import solve_lp
from repro.metrics import count

#: Sentinel row index carrying the affine constant of a constraint.
_CONST = -1

#: After an elimination step the system may legitimately grow; only when
#: it exceeds this multiple of its pre-step size does the expensive
#: LP-based pruning run mid-flight instead of once at the end.
_LP_PRUNE_GROWTH = 4


# ---------------------------------------------------------------------------
# Constraint <-> integer row conversion
# ---------------------------------------------------------------------------


def _index_rows(
    constraints: Sequence[Constraint],
    index_of: Optional[Dict[str, int]] = None,
) -> Tuple[List[str], List[Tuple[SparseRow, Relation]]]:
    """Map a constraint system onto primitive-integer sparse rows."""
    if index_of is None:
        names = sorted(
            {name for c in constraints for name in c.expr.terms}
        )
        index_of = {name: i for i, name in enumerate(names)}
    else:
        names = sorted(index_of, key=index_of.get)
    rows: List[Tuple[SparseRow, Relation]] = []
    for constraint in constraints:
        pairs: List[Tuple[int, Fraction]] = [
            (index_of[name], value)
            for name, value in constraint.expr.terms.items()
        ]
        constant = constraint.expr.constant_term
        if constant:
            pairs.append((_CONST, constant))
        row = SparseRow.from_pairs(pairs).normalized_direction()
        rows.append((row, constraint.relation))
    return names, rows


def _row_constraint(
    row: SparseRow, relation: Relation, names: Sequence[str]
) -> Constraint:
    terms: Dict[str, Fraction] = {}
    constant = Fraction(0)
    for index, value in row.items():
        if index == _CONST:
            constant = value
        else:
            terms[names[index]] = value
    return Constraint(LinExpr(terms, constant), relation)


def _is_trivially_true(row: SparseRow, relation: Relation) -> bool:
    if any(index != _CONST for index in row.support()):
        return False
    constant = row.numerator_at(_CONST)
    if relation is Relation.LE:
        return constant <= 0
    if relation is Relation.LT:
        return constant < 0
    return constant == 0


# ---------------------------------------------------------------------------
# the cheap pruning layers
# ---------------------------------------------------------------------------


_HistRow = Tuple[SparseRow, Relation, FrozenSet[int]]


def _prune_syntactic(rows: List[_HistRow]) -> List[_HistRow]:
    """Drop duplicates and syntactically dominated inequalities.

    Two inequality rows with the same homogeneous direction compare by
    bound: for ``a·x + c ⋈ 0`` the row with the larger constant (then the
    strict relation on ties) implies the other.  Rows are GCD-normalised
    with the *constant included*, so the dominance key re-normalises by
    the homogeneous gcd to make ``x ≤ 1`` and ``x ≤ 5`` collide.
    Equalities and constant rows pass through (deduplicated only).
    """
    best: Dict[Tuple, Tuple[Fraction, bool, int]] = {}
    passthrough: List[_HistRow] = []
    passthrough_seen: set = set()
    order: List[Tuple] = []
    keyed: Dict[Tuple, _HistRow] = {}
    for entry in rows:
        row, relation, history = entry
        if relation is Relation.EQ or all(
            index == _CONST for index in row.support()
        ):
            # Trivially-true and duplicate rows are dropped but not
            # counted as saved LP calls: the LP-based pruning never
            # entailment-checked those either.
            if _is_trivially_true(row, relation):
                count("polyhedra.projection.rows_pruned_syntactic")
                continue
            identity = (row, relation)
            if identity in passthrough_seen:
                count("polyhedra.projection.rows_pruned_syntactic")
                continue
            passthrough_seen.add(identity)
            passthrough.append(entry)
            continue
        divisor = 0
        for index, numerator in row.iter_scaled():
            if index != _CONST:
                divisor = gcd(divisor, numerator)
        key = tuple(
            (index, numerator // divisor)
            for index, numerator in row.iter_scaled()
            if index != _CONST
        )
        constant = Fraction(row.numerator_at(_CONST), divisor)
        strict = relation is Relation.LT
        current = best.get(key)
        if current is None:
            best[key] = (constant, strict, len(history))
            order.append(key)
            keyed[key] = entry
            continue
        held_constant, held_strict, held_history = current
        # Larger constant = tighter bound for ``expr ⋈ 0``; on exact
        # ties the strict row dominates, and among identical rows the
        # one combining fewer originals prunes better later (Kohler).
        tighter = constant > held_constant or (
            constant == held_constant
            and (
                (strict and not held_strict)
                or (strict == held_strict and len(history) < held_history)
            )
        )
        count("polyhedra.projection.rows_pruned_syntactic")
        if constant != held_constant or strict != held_strict:
            # A genuinely dominated (not duplicate) row: the previous
            # implementation would have paid an LP entailment check to
            # discover it.
            count("polyhedra.projection.lp_calls_saved")
        if tighter:
            best[key] = (constant, strict, len(history))
            keyed[key] = entry
    return passthrough + [keyed[key] for key in order]


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _combine_pair(
    upper: _HistRow, lower: _HistRow, index: int
) -> Tuple[SparseRow, Relation, FrozenSet[int]]:
    """The nonnegative FM combination cancelling *index*."""
    upper_row, upper_relation, upper_history = upper
    lower_row, lower_relation, lower_history = lower
    upper_coefficient = upper_row.numerator_at(index)   # > 0
    lower_coefficient = lower_row.numerator_at(index)   # < 0
    combined = upper_row.combine_int(
        -lower_coefficient, lower_row, upper_coefficient
    ).normalized_direction()
    relation = (
        Relation.LT
        if upper_relation is Relation.LT or lower_relation is Relation.LT
        else Relation.LE
    )
    count("polyhedra.projection.combinations")
    return combined, relation, upper_history | lower_history


def _eliminate_index(
    rows: List[_HistRow], index: int, kohler_bound: Optional[int]
) -> List[_HistRow]:
    """One FM step over history-carrying rows (equalities via substitution)."""
    pivot = None
    for entry in rows:
        row, relation, _ = entry
        if relation is Relation.EQ and row.numerator_at(index):
            pivot = entry
            break
    if pivot is not None:
        pivot_row = pivot[0]
        result: List[_HistRow] = []
        for entry in rows:
            if entry is pivot:
                continue
            row, relation, history = entry
            if row.numerator_at(index):
                row = row.eliminate(index, pivot_row).normalized_direction()
                history = history | pivot[2]
            if _is_trivially_true(row, relation):
                continue
            result.append((row, relation, history))
        return result

    uppers: List[_HistRow] = []
    lowers: List[_HistRow] = []
    result = []
    for entry in rows:
        coefficient = entry[0].numerator_at(index)
        if coefficient > 0:
            uppers.append(entry)
        elif coefficient < 0:
            lowers.append(entry)
        else:
            result.append(entry)
    for upper in uppers:
        for lower in lowers:
            combined, relation, history = _combine_pair(upper, lower, index)
            if _is_trivially_true(combined, relation):
                continue
            if kohler_bound is not None and len(history) > kohler_bound:
                count("polyhedra.projection.rows_pruned_kohler")
                count("polyhedra.projection.lp_calls_saved")
                continue
            result.append((combined, relation, history))
    return result


def fourier_motzkin(
    constraints: Sequence[Constraint],
    eliminate: Iterable[str],
    simplify: bool = True,
    generators: Optional[GeneratorSystem] = None,
) -> List[Constraint]:
    """Eliminate every variable in *eliminate* from the conjunction.

    With *simplify* the cheap syntactic/Kohler layers run after every
    step and the exact :func:`remove_redundant` once at the end (or, by
    LP, mid-flight when a step still left the system more than
    :data:`_LP_PRUNE_GROWTH` times its input size).  *generators*, when
    given, generate the projection; the final redundancy removal reads
    them.
    """
    names, indexed = _index_rows(constraints)
    index_of = {name: i for i, name in enumerate(names)}
    targets = [index_of[v] for v in eliminate if v in index_of]
    rows: List[_HistRow] = [
        (row, relation, frozenset([position]))
        for position, (row, relation) in enumerate(indexed)
    ]
    baseline = max(len(rows), 4)
    eliminated = 0
    for index in targets:
        eliminated += 1
        # Kohler/Imbert: after k eliminations any combination of more
        # than k + 1 original inequalities is redundant.  The naive
        # (simplify=False) path skips it along with every other pruning
        # layer, which is what the equivalence property tests exercise.
        rows = _eliminate_index(
            rows, index, eliminated + 1 if simplify else None
        )
        count("polyhedra.projection.variables_eliminated")
        if simplify:
            rows = _prune_syntactic(rows)
            if len(rows) > _LP_PRUNE_GROWTH * baseline:
                pruned = remove_redundant(
                    [
                        _row_constraint(row, relation, names)
                        for row, relation, _ in rows
                    ]
                )
                # Histories no longer track original rows after an LP
                # prune; restart Kohler counting from the survivors
                # (the variable indexing stays stable).
                _, indexed = _index_rows(pruned, index_of)
                rows = [
                    (row, relation, frozenset([position]))
                    for position, (row, relation) in enumerate(indexed)
                ]
                eliminated = 0
    result = [
        _row_constraint(row, relation, names) for row, relation, _ in rows
    ]
    if simplify:
        result = remove_redundant(result, generators)
    return result


def project_constraints(
    constraints: Sequence[Constraint],
    keep: Sequence[str],
    simplify: bool = True,
    generators: Optional[GeneratorSystem] = None,
) -> List[Constraint]:
    """Project the conjunction onto the variables in *keep*
    (*generators*, when given, generate the projection)."""
    keep_set = set(keep)
    mentioned = set()
    for constraint in constraints:
        mentioned |= constraint.variables()
    eliminate = sorted(mentioned - keep_set)
    return fourier_motzkin(constraints, eliminate, simplify, generators)


def remove_redundant(
    constraints: Sequence[Constraint],
    generators: Optional[GeneratorSystem] = None,
) -> List[Constraint]:
    """Drop constraints implied by the others (exact).

    Duplicates are removed first.  Without *generators*, so are
    syntactically dominated constraints; each *dominated* drop is one LP
    solve saved (duplicates were always caught without an LP), counted
    as ``polyhedra.projection.lp_calls_saved``.

    *generators*, when given, generate ``{x | constraints}``; every
    inequality the saturation test of :func:`_saturation_decisions`
    settles needs no LP (``polyhedra.projection.rows_by_saturation``,
    also counted as saved LP solves).
    Each remaining inequality is tested for entailment by maximising
    its left-hand side subject to the others
    (``polyhedra.projection.lp_calls``).  The result is the same either
    way: the sequential LP test keeps exactly the rows the saturation
    test keeps.
    """
    unique: List[Constraint] = []
    seen = set()
    for constraint in constraints:
        normal = constraint.normalized()
        if normal.is_trivially_true():
            continue
        key = (normal.expr, normal.relation)
        if key in seen:
            count("polyhedra.projection.rows_pruned_syntactic")
            continue
        seen.add(key)
        unique.append(normal)

    decisions: List[Optional[bool]]
    if generators is not None and generators.vertices:
        # A syntactically dominated row is never tight, so the saturation
        # test drops it too.
        decisions = _saturation_decisions(unique, generators)
        # Rows found redundant go at once: they are redundant in every
        # subsystem that still defines the polyhedron, so no later LP
        # answer depends on them.
        unique = [
            constraint
            for constraint, decision in zip(unique, decisions)
            if decision is not False
        ]
        decisions = [decision for decision in decisions if decision is not False]
    else:
        # Syntactic dominance: same homogeneous direction, weaker bound.
        _, indexed = _index_rows(unique)
        survivors = _prune_syntactic(
            [
                (row, relation, frozenset([position]))
                for position, (row, relation) in enumerate(indexed)
            ]
        )
        if len(survivors) < len(unique):
            kept = {next(iter(history)) for _, _, history in survivors}
            unique = [
                constraint
                for position, constraint in enumerate(unique)
                if position in kept
            ]
        decisions = [None] * len(unique)

    result: List[Constraint] = []
    for index, candidate in enumerate(unique):
        if candidate.is_equality() or decisions[index]:
            result.append(candidate)
            continue
        # Test against the constraints already kept plus the ones not yet
        # examined; this never drops two mutually redundant constraints.
        others = result + unique[index + 1 :]
        context = [c.weaken() for c in others]
        count("polyhedra.projection.lp_calls")
        outcome = solve_lp(candidate.expr, context, Sense.MAXIMIZE)
        if outcome.is_optimal and outcome.objective is not None and (
            outcome.objective <= 0
        ):
            # The constraint is implied by the others; drop it.
            continue
        result.append(candidate)
    return result


def _saturation_decisions(
    constraints: Sequence[Constraint], generators: GeneratorSystem
) -> List[Optional[bool]]:
    """Redundancy of each (normalised) inequality, read off the generators
    it saturates.

    Let ``P`` be the nonempty polyhedron, of affine dimension ``d``.  The
    face of a valid inequality is spanned by the generators saturating
    it, so its dimension is their homogenised rank minus one.  In any
    system that defines ``P``:

    * an inequality whose face is empty or of dimension below ``d − 1``
      is redundant: ``False``;
    * every facet (dimension ``d − 1``) needs one of its inequalities,
      and any one of them makes the others redundant.  The sequential LP
      test drops each but the last, so the last is ``True`` and the
      earlier ones ``False``;
    * an inequality tight on all of ``P`` (an implicit equality of a
      lower-dimensional ``P``), an equality and a strict row are left to
      the LP: ``None``.
    """
    position = {name: index for index, name in enumerate(generators.variables)}
    size = len(position)
    vertices, rays, lines = generators.vertices, generators.rays, generators.lines
    points_and_rays = vertices + rays
    dimension = integer_rank(points_and_rays + lines) - 1
    decisions: List[Optional[bool]] = []
    facets: Dict[FrozenSet[int], int] = {}
    for constraint in constraints:
        terms = constraint.expr.terms
        if (
            constraint.relation is not Relation.LE
            or not terms.keys() <= position.keys()
        ):
            decisions.append(None)
            continue
        # Normalised rows have integer coefficients.
        normal = [(position[name], int(value)) for name, value in terms.items()]
        constant = int(constraint.expr.constant_term)
        if constant:
            normal.append((size, constant))
        saturated = [
            index
            for index, generator in enumerate(points_and_rays)
            if not sum(value * generator[column] for column, value in normal)
        ]
        rank = -1
        if (
            saturated
            and saturated[0] < len(vertices)  # the face is nonempty
            and len(saturated) + len(lines) >= dimension  # it can be a facet
        ):
            face = [points_and_rays[index] for index in saturated]
            rank = integer_rank(face + lines, dimension + 1)
        decision: Optional[bool] = None
        if rank < dimension:
            decision = False
        elif rank == dimension:
            key = frozenset(saturated)
            earlier = facets.get(key)
            if earlier is not None:
                decisions[earlier] = False
            facets[key] = len(decisions)
            decision = True
        if decision is None:
            count("polyhedra.projection.rows_to_lp")
        else:
            count("polyhedra.projection.rows_by_saturation")
            count("polyhedra.projection.lp_calls_saved")
        decisions.append(decision)
    return decisions


def entails(constraints: Sequence[Constraint], candidate: Constraint) -> bool:
    """Whether the conjunction of *constraints* implies *candidate*.

    Only meaningful for satisfiable conjunctions of non-strict constraints;
    an unsatisfiable conjunction entails everything and is reported as such.
    """
    context = [c.weaken() for c in constraints]
    if candidate.is_equality():
        upper = Constraint(candidate.expr, Relation.LE)
        lower = Constraint(-candidate.expr, Relation.LE)
        return entails(constraints, upper) and entails(constraints, lower)
    outcome = solve_lp(candidate.expr, context, Sense.MAXIMIZE)
    if outcome.is_infeasible:
        return True
    if outcome.is_unbounded:
        return False
    assert outcome.objective is not None
    if candidate.is_strict():
        return outcome.objective < 0
    return outcome.objective <= 0
