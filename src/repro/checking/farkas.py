"""Exact rational (in)feasibility of linear constraint systems.

This is the trusted core of the certificate checker, so it is written to
be audited by eye and shares **no decision logic** with the LP solver or
the SMT stack it cross-examines (the only shared code is the dumb
scaled-integer row arithmetic of :mod:`repro.linalg.sparse`, which has
its own randomised differential tests against dense ``Fraction`` math).  A *system* is a list of
:class:`~repro.linexpr.constraint.Constraint` objects (``expr ≤ 0``,
``expr < 0`` or ``expr = 0`` with :class:`fractions.Fraction`
coefficients).  :func:`decide_system` decides feasibility over ℚ:

* equalities are removed by exact Gaussian substitution,
* the remaining inequalities by Fourier–Motzkin elimination — every
  derived row is a nonnegative combination of input rows, so an eventual
  contradiction (``c ≤ 0`` with ``c > 0``) is precisely the certificate
  of infeasibility promised by Farkas' lemma / the Motzkin transposition
  theorem;
* if elimination completes without contradiction the system is feasible,
  and a concrete rational :class:`Witness` point is reconstructed by
  back-substitution (and re-checked against the original system).

:func:`project` runs the same elimination on rows over variable indices
but keeps the variables below a given index: it returns the exact
projection of the system onto them, on which the certificate checker
decides its failure patterns for a whole path prefix at once.

Fourier–Motzkin is complete over the rationals, including strict
inequalities, which is what makes the checker's "invalid" verdicts
trustworthy: they always come with a witness state.  The worst case is
exponential; a configurable row budget turns pathological blow-ups into
an explicit :class:`FarkasBudgetExceeded` instead of a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.linalg.sparse import SparseRow
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr

#: Sentinel row index carrying the affine constant (sorts first).
CONSTANT = -1

#: Default cap on the number of live rows during elimination.
DEFAULT_ROW_BUDGET = 50_000


class FarkasBudgetExceeded(Exception):
    """Fourier–Motzkin elimination exceeded its row budget."""


class _Contradiction(Exception):
    """Elimination derived a false constant row; keeps the rows that did.

    *kind* is ``"constant"`` (*rows* holds the false input constraint),
    ``"equality"`` (a constant equality row), ``"substitution"`` (the
    row that substituting variable *index* made constant) or
    ``"combination"`` (upper bound, lower bound and their combination
    on eliminating *index*); rows come as ``(row, strict)`` pairs.
    """

    def __init__(
        self,
        kind: str,
        index: Optional[int],
        rows: tuple,
        eliminated: int = 0,
        combinations: int = 0,
    ):
        super().__init__(kind)
        self.kind = kind
        self.index = index
        self.rows = rows
        self.eliminated = eliminated
        self.combinations = combinations

    def describe(self, names: Sequence[str]) -> str:
        if self.kind == "constant":
            return "constant constraint %s is false" % self.rows[0]
        if self.kind == "equality":
            return "equality reduced to %s = 0" % self.rows[0][0].get(CONSTANT)
        shown = [_constraint_of(row, strict, names) for row, strict in self.rows]
        if self.kind == "substitution":
            return "substituting %s yields %s" % (names[self.index], shown[0])
        return "eliminating %s combines %s and %s into %s" % (
            names[self.index],
            shown[0],
            shown[1],
            shown[2],
        )


@dataclass
class Refutation:
    """Proof that the system has no rational solution.

    It keeps the rows of the contradiction and spells them out as
    :attr:`reason` only when that is read: no decision needs the text.
    """

    contradiction: _Contradiction
    names: Sequence[str] = ()
    eliminated_variables: int = 0
    combinations: int = 0

    @property
    def reason(self) -> str:
        return self.contradiction.describe(self.names)

    @property
    def feasible(self) -> bool:
        return False


@dataclass
class Witness:
    """A rational point satisfying every constraint of the system."""

    assignment: Dict[str, Fraction] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return True

    def is_integral(self, names: Optional[Sequence[str]] = None) -> bool:
        """Whether the witness is integer-valued (on *names* if given)."""
        values = (
            self.assignment.values()
            if names is None
            else (self.assignment.get(name, Fraction(0)) for name in names)
        )
        return all(value.denominator == 1 for value in values)

    def to_dict(self) -> Dict[str, str]:
        return {name: str(value) for name, value in sorted(self.assignment.items())}


Decision = Union[Refutation, Witness]


# ---------------------------------------------------------------------------
# integer tightening (used by the checker's integer mode)
# ---------------------------------------------------------------------------


def tighten_integer_strict(
    constraints: Sequence[Constraint], is_integer
) -> List[Constraint]:
    """Round every inequality over integers to its integer hull row.

    An inequality ``a·x + c ≤ 0`` (or ``< 0``) whose variables are all
    integer-valued (per the *is_integer* predicate on variable names) and
    whose coefficients ``a`` are integral is divided by ``g = gcd(a)``:
    ``(a/g)·x`` is an integer, so the row becomes ``(a/g)·x + ⌈c/g⌉ ≤ 0``
    (``⌊c/g⌋ + 1`` when strict).  ``3x + 3y + 5 > 0`` becomes
    ``x + y ≥ −1``, and ``x > 0`` becomes ``x ≥ 1``.  The rounded row has
    exactly the integer points of the original, so refuting the rounded
    system shows the original has no *integer* solution.  Equalities and
    every other row are kept as they are.
    """
    return [
        _round_integer_row(constraint)
        if all(is_integer(name) for name in constraint.variables())
        else constraint
        for constraint in constraints
    ]


def _round_integer_row(constraint: Constraint) -> Constraint:
    relation = constraint.relation
    terms = constraint.expr.terms
    if (
        relation is Relation.EQ
        or not terms
        or any(value.denominator != 1 for value in terms.values())
    ):
        return constraint
    divisor = math.gcd(*(value.numerator for value in terms.values()))
    constant = constraint.expr.constant_term / divisor
    if relation is Relation.LT:
        rounded = math.floor(constant) + 1
    elif divisor == 1 and constant.denominator == 1:
        return constraint
    else:
        rounded = math.ceil(constant)
    return Constraint(
        LinExpr({name: value / divisor for name, value in terms.items()}, rounded),
        Relation.LE,
    )


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------


def _evaluate(expr: LinExpr, assignment: Dict[str, Fraction]) -> Fraction:
    """Evaluate with absent variables defaulting to zero."""
    total = expr.constant_term
    for name, coefficient in expr.terms.items():
        total += coefficient * assignment.get(name, Fraction(0))
    return total


def _violates(constraint: Constraint, assignment: Dict[str, Fraction]) -> bool:
    value = _evaluate(constraint.expr, assignment)
    if constraint.relation is Relation.LE:
        return value > 0
    if constraint.relation is Relation.LT:
        return value >= 0
    return value != 0


def _pick_value(
    lowers: List[Tuple[Fraction, bool]], uppers: List[Tuple[Fraction, bool]]
) -> Fraction:
    """A value inside the interval described by evaluated bounds.

    Prefers an integer point when the interval contains one, so reported
    witnesses read like program states.  Ties between a strict and a
    non-strict bound at the same value must resolve to the *strict* one —
    it is the binding constraint (``x ≤ 5`` next to ``x < 5``).
    """
    lower: Optional[Tuple[Fraction, bool]] = (
        max(lowers, key=lambda bound: (bound[0], bound[1])) if lowers else None
    )
    upper: Optional[Tuple[Fraction, bool]] = (
        min(uppers, key=lambda bound: (bound[0], not bound[1])) if uppers else None
    )
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        value, strict = upper
        candidate = Fraction(_floor(value) - (1 if strict else 0))
        return candidate if candidate <= value else value - 1
    if upper is None:
        value, strict = lower
        candidate = Fraction(_ceil(value) + (1 if strict else 0))
        return candidate if candidate >= value else value + 1
    (lo, lo_strict), (up, up_strict) = lower, upper
    # Elimination already proved the interval non-empty.
    if lo == up:
        return lo
    ceil_lo = Fraction(_ceil(lo) + (1 if lo_strict and _ceil(lo) == lo else 0))
    if (ceil_lo > lo or (ceil_lo == lo and not lo_strict)) and (
        ceil_lo < up or (ceil_lo == up and not up_strict)
    ):
        return ceil_lo
    return (lo + up) / 2


def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator


def _ceil(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def row_of(constraint: Constraint, index_of: Mapping[str, int]) -> SparseRow:
    """A constraint's left-hand side as a primitive-integer sparse row."""
    pairs: List[Tuple[int, Fraction]] = [
        (index_of[name], value)
        for name, value in constraint.expr.terms.items()
    ]
    constant = constraint.expr.constant_term
    if constant:
        pairs.append((CONSTANT, constant))
    # Dropping the (positive) denominator rescales the constraint, which
    # preserves it as a ≤/</= 0 atom.
    return SparseRow.from_pairs(pairs).normalized_direction()


def _constraint_of(
    row: SparseRow, strict: bool, names: Sequence[str]
) -> Constraint:
    """Materialise a row back into a constraint (messages, self-checks)."""
    terms: Dict[str, Fraction] = {}
    constant = Fraction(0)
    for index, value in row.items():
        if index == CONSTANT:
            constant = value
        else:
            terms[names[index]] = value
    return Constraint(
        LinExpr(terms, constant), Relation.LT if strict else Relation.LE
    )


def _evaluate_row(row: SparseRow, assignment: Dict[int, Fraction]) -> Fraction:
    """Evaluate a row (over variable indices) with absent variables zero."""
    total = Fraction(0)
    for index, value in row.items():
        if index == CONSTANT:
            total += value
        else:
            total += value * assignment.get(index, _FRACTION_ZERO)
    return total


_FRACTION_ZERO = Fraction(0)


def _is_constant(row: SparseRow) -> bool:
    # Indices are sorted, and the constant's sorts first.
    return not row.indices or row.indices[-1] == CONSTANT


def _eliminate(
    equalities: List[SparseRow],
    rows: List[Tuple[SparseRow, bool]],
    kept: int,
    row_budget: int,
    names: Sequence[str],
    log: Optional[List[tuple]] = None,
) -> Tuple[List[SparseRow], List[Tuple[SparseRow, bool]]]:
    """Eliminate every variable of index ``≥ kept`` from a row system.

    *equalities* are ``row = 0``, *rows* are ``row ≤ 0`` (``< 0`` when
    strict).  Returns the equalities and inequalities left over the kept
    variables: the exact projection of the system onto them.  Raises
    :class:`_Contradiction` when the system is infeasible and
    :class:`FarkasBudgetExceeded` when elimination outgrows
    *row_budget*.  With a *log*, each elimination is appended to it as
    ``("gauss", index, row)`` (``x_index := row``) or
    ``("fm", index, lowers, uppers)`` (bounds as ``(row, strict)``
    pairs), which :func:`decide_system` replays into a witness.
    """
    eliminated = 0
    combinations = 0
    kept_equalities: List[SparseRow] = []

    # -- Gaussian substitution of equalities --------------------------------
    while equalities:
        equality = equalities.pop()
        # Indices are sorted and the constant sorts first, below *kept*.
        index = next((i for i in equality.indices if i >= kept), None)
        if index is None:
            if not _is_constant(equality):
                kept_equalities.append(equality)
            elif equality.numerator_at(CONSTANT):
                raise _Contradiction(
                    "equality", None, ((equality, False),), eliminated, combinations
                )
            continue
        if log is not None:
            coefficient = equality.get(index)
            # x_index = (coefficient · x_index − equality) / coefficient.
            solved = SparseRow.from_pairs(
                [
                    (i, Fraction(-numerator, 1) / coefficient)
                    for i, numerator in equality.iter_scaled()
                    if i != index
                ]
            )
            log.append(("gauss", index, solved))
        eliminated += 1

        equalities = [
            row.eliminate(index, equality).normalized_direction()
            if index in row.indices
            else row
            for row in equalities
        ]
        survivors: List[Tuple[SparseRow, bool]] = []
        for row, strict in rows:
            if index in row.indices:
                row = row.eliminate(index, equality).normalized_direction()
                if _is_constant(row):
                    constant = row.numerator_at(CONSTANT)
                    if constant > 0 or (strict and constant >= 0):
                        raise _Contradiction(
                            "substitution",
                            index,
                            ((row, strict),),
                            eliminated,
                            combinations,
                        )
                    continue  # trivially true
            survivors.append((row, strict))
        rows = survivors

    # -- Fourier–Motzkin on the inequalities --------------------------------
    while True:
        occurrences: Dict[int, Tuple[int, int]] = {}
        for row, _ in rows:
            for index, numerator in row.iter_scaled():
                if index < kept:
                    continue
                positive, negative = occurrences.get(index, (0, 0))
                if numerator > 0:
                    occurrences[index] = (positive + 1, negative)
                else:
                    occurrences[index] = (positive, negative + 1)
        if not occurrences:
            break

        def cost(index: int) -> Tuple[int, int]:
            positive, negative = occurrences[index]
            if positive == 0 or negative == 0:
                return (-1, index)  # free elimination first
            return (positive * negative - positive - negative, index)

        index = min(occurrences, key=cost)
        uppers: List[Tuple[SparseRow, bool]] = []  # coeff > 0: upper bounds
        lowers: List[Tuple[SparseRow, bool]] = []  # coeff < 0: lower bounds
        untouched: List[Tuple[SparseRow, bool]] = []
        for entry in rows:
            indices = entry[0].indices
            if index not in indices:
                untouched.append(entry)
            elif entry[0].numerators[indices.index(index)] > 0:
                uppers.append(entry)
            else:
                lowers.append(entry)

        if log is not None:

            def bound_pairs(
                pool: List[Tuple[SparseRow, bool]],
            ) -> List[Tuple[SparseRow, bool]]:
                pairs = []
                for row, strict in pool:
                    coefficient = row.get(index)
                    rest = SparseRow.from_pairs(
                        [
                            (i, Fraction(-numerator, 1) / coefficient)
                            for i, numerator in row.iter_scaled()
                            if i != index
                        ]
                    )
                    pairs.append((rest, strict))
                return pairs

            log.append(("fm", index, bound_pairs(lowers), bound_pairs(uppers)))
        eliminated += 1

        seen: Set[Tuple] = set()
        fresh: List[Tuple[SparseRow, bool]] = untouched
        for upper, upper_strict in uppers:
            a = upper.numerator_at(index)
            for lower, lower_strict in lowers:
                b = lower.numerator_at(index)
                combined = upper.combine_int(-b, lower, a)
                combined = combined.normalized_direction()
                strict = upper_strict or lower_strict
                combinations += 1
                if _is_constant(combined):
                    constant = combined.numerator_at(CONSTANT)
                    if constant > 0 or (strict and constant >= 0):
                        raise _Contradiction(
                            "combination",
                            index,
                            (
                                (upper, upper_strict),
                                (lower, lower_strict),
                                (combined, strict),
                            ),
                            eliminated,
                            combinations,
                        )
                    continue  # trivially true
                key = (combined.indices, combined.numerators, strict)
                if key in seen:
                    continue
                seen.add(key)
                fresh.append((combined, strict))
                if len(fresh) > row_budget:
                    raise FarkasBudgetExceeded(
                        "row budget %d exceeded while eliminating %r"
                        % (row_budget, names[index])
                    )
        rows = fresh
    return kept_equalities, rows


def project(
    equalities: Sequence[SparseRow],
    rows: Sequence[Tuple[SparseRow, bool]],
    kept: int,
    names: Sequence[str],
    row_budget: int = DEFAULT_ROW_BUDGET,
) -> Optional[Tuple[List[SparseRow], List[Tuple[SparseRow, bool]]]]:
    """The projection of a row system onto its variables of index ``< kept``.

    Rows are primitive integer rows over variable indices, as
    :func:`row_of` builds them (FM scales rows by their integer
    entries, so a row with a denominator would combine wrongly):
    *equalities* are ``row = 0`` and *rows* ``(row, strict)`` for
    ``row ≤ 0`` / ``row < 0``.  Returns the projected ``(equalities,
    rows)``, or ``None`` when the system has no rational point; with
    ``kept == 0`` that is the whole decision.  *names* name the
    variables by index, for the budget message.  Raises
    :class:`FarkasBudgetExceeded` when elimination outgrows *row_budget*.
    """
    live: List[Tuple[SparseRow, bool]] = []
    for row, strict in rows:
        if not _is_constant(row):
            live.append((row, strict))
            continue
        constant = row.numerator_at(CONSTANT)
        if constant > 0 or (strict and constant >= 0):
            return None
    try:
        return _eliminate(list(equalities), live, kept, row_budget, names)
    except _Contradiction:
        return None


def decide_system(
    constraints: Sequence[Constraint],
    row_budget: int = DEFAULT_ROW_BUDGET,
) -> Decision:
    """Decide rational feasibility of a conjunction of linear constraints.

    Returns a :class:`Refutation` (infeasible) or a :class:`Witness`
    (feasible, with a satisfying point).  Raises
    :class:`FarkasBudgetExceeded` when elimination outgrows *row_budget*.

    The elimination itself runs on GCD-normalised scaled-integer
    :class:`~repro.linalg.sparse.SparseRow` vectors (the same kernel the
    LP solver pivots on — but only the *row arithmetic* is shared, the
    decision logic stays independent): each combination is one fused
    integer multiply-add, and rows deduplicate structurally.  Fractions
    reappear only when the witness point is reconstructed.
    """
    pending_equalities: List[Constraint] = []
    pending_rows: List[Constraint] = []
    for constraint in constraints:
        if constraint.is_trivially_true():
            continue
        if constraint.is_trivially_false():
            return Refutation(_Contradiction("constant", None, (constraint,)))
        if constraint.is_equality():
            pending_equalities.append(constraint)
        else:
            pending_rows.append(constraint)

    names = sorted(
        {
            name
            for constraint in pending_equalities + pending_rows
            for name in constraint.expr.terms
        }
    )
    index_of = {name: position for position, name in enumerate(names)}
    log: List[tuple] = []
    try:
        _eliminate(
            [row_of(constraint, index_of) for constraint in pending_equalities],
            [
                (row_of(constraint, index_of), constraint.is_strict())
                for constraint in pending_rows
            ],
            0,
            row_budget,
            names,
            log,
        )
    except _Contradiction as contradiction:
        return Refutation(
            contradiction,
            names,
            contradiction.eliminated,
            contradiction.combinations,
        )

    # Feasible: rebuild a witness point by replaying the log backwards.
    indexed: Dict[int, Fraction] = {}
    for entry in reversed(log):
        if entry[0] == "fm":
            _, index, lower_pairs, upper_pairs = entry
            indexed[index] = _pick_value(
                [
                    (_evaluate_row(row, indexed), strict)
                    for row, strict in lower_pairs
                ],
                [
                    (_evaluate_row(row, indexed), strict)
                    for row, strict in upper_pairs
                ],
            )
        else:
            _, index, solved = entry
            indexed[index] = _evaluate_row(solved, indexed)

    assignment = {names[index]: value for index, value in indexed.items()}
    for constraint in constraints:
        if _violates(constraint, assignment):  # pragma: no cover - self-check
            raise AssertionError(
                "internal error: witness %r violates %s" % (assignment, constraint)
            )
    return Witness(assignment)


def is_infeasible(
    constraints: Sequence[Constraint],
    row_budget: int = DEFAULT_ROW_BUDGET,
) -> bool:
    """Convenience wrapper: ``True`` iff the system has no rational point."""
    return isinstance(decide_system(constraints, row_budget), Refutation)
