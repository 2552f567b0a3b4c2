"""Two-phase primal simplex over exact rationals, with warm restarts.

The implementation favours clarity and exactness over raw speed: every
pivot is performed with :class:`fractions.Fraction`, Bland's anti-cycling
rule is used throughout, and infeasibility / unboundedness are reported
with certificates (a feasible point and an improving ray respectively).

The LPs produced by the ranking-function synthesiser are tiny (the whole
point of the paper is that the lazy construction keeps them at a handful of
rows and columns), so a dense tableau is entirely adequate.

Two entry points are provided:

* :func:`solve_lp` — the one-shot solver (eliminate equalities, build,
  two-phase, extract, lift back);
* :class:`SimplexState` — a *persistent* LP that keeps the tableau and the
  optimal basis alive between solves.  Adding a constraint re-solves with
  dual-simplex pivots from the previous optimal basis, and changing the
  objective re-prices and re-optimises with primal pivots; both are far
  cheaper than a cold two-phase solve.  This is the engine behind the
  incremental ``LP(V, Constraints(I))`` of the counterexample loop, where
  every iteration appends one generator row to an already-solved instance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.linalg.sparse import SparseRow
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.problem import LinearRow, LpResult, LpStatus, Sense
from repro.metrics import count

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Sentinel column fusing the right-hand side into each tableau row (and
#: minus the current objective into the cost row).  It sorts before every
#: real column, and a single fused row operation updates coefficients and
#: rhs together.
_RHS = -1


def _spread_terms(
    terms: Dict[str, Fraction],
    plus_index: Dict[str, int],
    minus_index: Dict[str, int],
    target: List[Fraction],
) -> None:
    """Add a LinExpr's coefficients into standard-form columns.

    The column convention: every variable has a ``+`` column, and free
    (split) variables additionally have a ``-`` column carrying the
    negated coefficient.  The warm path (:class:`SimplexState`) prices
    through this helper; :func:`_structural_entries` applies the same
    convention to the rows and cost of :class:`_StandardForm`.
    """
    for name, value in terms.items():
        target[plus_index[name]] += value
        if name in minus_index:
            target[minus_index[name]] -= value


def _sparse_terms(
    terms: Dict[str, Fraction],
    plus_index: Dict[str, int],
    minus_index: Dict[str, int],
) -> Dict[int, Fraction]:
    """A LinExpr's coefficients as a standard-form column → value mapping.

    The sparse counterpart of :func:`_spread_terms`, for the objective
    terms the warm path patches into the cost row.
    """
    entries: Dict[int, Fraction] = {}
    for name, value in terms.items():
        column = plus_index[name]
        entries[column] = entries.get(column, _ZERO) + value
        if name in minus_index:
            column = minus_index[name]
            entries[column] = entries.get(column, _ZERO) - value
    return entries


def _column_value(
    name: str,
    plus_index: Dict[str, int],
    minus_index: Dict[str, int],
    values: Sequence[Fraction],
) -> Fraction:
    """Recover an original variable's value from its column(s)."""
    value = values[plus_index[name]]
    if name in minus_index:
        value -= values[minus_index[name]]
    return value


def _expr_row(
    expr: LinExpr, position: Dict[str, int], what: str
) -> SparseRow:
    """*expr* as a :class:`SparseRow` over variable positions.

    Variable ``name`` sits at index ``position[name]`` and the constant
    term at the :data:`_RHS` sentinel, so the row *is* the expression and
    one fused row operation substitutes into coefficients and constant
    together.
    """
    pairs = [(_RHS, expr.constant_term)]
    for name, value in expr.terms.items():
        if name not in position:
            raise ValueError("%s mentions undeclared variable %r" % (what, name))
        pairs.append((position[name], value))
    return SparseRow.from_pairs(pairs)


def _linear_row(row: LinearRow, position: Dict[str, int]) -> SparseRow:
    """A lowered row as a :class:`SparseRow` over variable positions.

    The same row :func:`_expr_row` builds from the constraint, read off
    the row's integers with no ``Fraction`` arithmetic.
    """
    try:
        indices = [position[name] for name in row.names]
    except KeyError as error:
        raise ValueError(
            "constraint mentions undeclared variable %r" % error.args[0]
        ) from None
    numerators = list(row.numerators)
    if indices != sorted(indices):  # positions not in name order
        pairs = sorted(zip(indices, numerators))
        indices = [index for index, _ in pairs]
        numerators = [numerator for _, numerator in pairs]
    if row.constant:
        indices.insert(0, _RHS)
        numerators.insert(0, row.constant)
    return SparseRow._make(indices, numerators, row.denominator)


def _constraint_rows(
    constraints: Sequence[Union[Constraint, LinearRow]],
    position: Dict[str, int],
) -> List[Tuple[Relation, SparseRow]]:
    """Each ``expr ⋈ 0`` as ``(⋈, expr row)`` (see :func:`_expr_row`)."""
    rows = []
    for constraint in constraints:
        if constraint.relation is Relation.LT:
            raise ValueError("strict inequalities are not LP constraints")
        if isinstance(constraint, LinearRow):
            row = _linear_row(constraint, position)
        else:
            row = _expr_row(constraint.expr, position, "constraint")
        rows.append((constraint.relation, row))
    return rows


class _StandardForm:
    """The LP rewritten as ``min c·y  s.t.  A y = b, y ≥ 0, b ≥ 0``.

    Free original variables are split into a positive and a negative part;
    variables listed in *nonnegative* are known to satisfy ``x ≥ 0`` and get
    a single column (this keeps the incremental ranking LPs at one column
    per γ/δ instead of two).  Slack variables turn inequalities into
    equations.  The mapping back to the original variables is kept so that
    solutions and rays can be reported in user terms.

    ``rows[i]`` is row ``i`` of ``A`` as a :class:`SparseRow` with ``b_i``
    fused in at :data:`_RHS`, ready for the tableau.
    """

    def __init__(
        self,
        objective: LinExpr,
        constraints: Sequence[Union[Constraint, LinearRow]],
        variables: Sequence[str],
        nonnegative: FrozenSet[str] = frozenset(),
    ):
        position = {name: index for index, name in enumerate(variables)}
        rows = _constraint_rows(constraints, position)
        self._build(
            _expr_row(objective, position, "objective"),
            rows,
            list(enumerate(variables)),
            nonnegative,
        )

    @classmethod
    def from_rows(
        cls,
        objective: SparseRow,
        rows: Sequence[Tuple[Relation, SparseRow]],
        variables: Sequence[Tuple[int, str]],
        nonnegative: FrozenSet[str],
    ) -> "_StandardForm":
        """Build from rows over variable positions (see :func:`_expr_row`).

        *variables* pairs each kept variable's position with its name;
        entries at positions past every variable (the tag columns of
        :class:`_EqualityElimination`) are ignored.
        """
        standard = cls.__new__(cls)
        standard._build(objective, rows, variables, nonnegative)
        return standard

    def _build(
        self,
        objective: SparseRow,
        rows: Sequence[Tuple[Relation, SparseRow]],
        variables: Sequence[Tuple[int, str]],
        nonnegative: FrozenSet[str],
    ) -> None:
        self.original_variables = [name for _, name in variables]
        # Column layout: for every original variable two columns (x+, x-)
        # — or a single column when it is known nonnegative — then one
        # slack column per inequality row.
        self.plus_index: Dict[str, int] = {}
        self.minus_index: Dict[str, int] = {}
        columns: Dict[int, Tuple[int, Optional[int]]] = {}
        column = 0
        for index, name in variables:
            self.plus_index[name] = plus = column
            column += 1
            minus = None
            if name not in nonnegative:
                self.minus_index[name] = minus = column
                column += 1
            columns[index] = (plus, minus)
        self.num_structural = column
        self.num_slacks = sum(
            1 for relation, _ in rows if relation is Relation.LE
        )
        self.num_columns = self.num_structural + self.num_slacks

        # A row whose slack column keeps coefficient +1 after sign
        # normalisation can use that slack as its initial basic variable,
        # avoiding an artificial column (and the phase-1 pivots to drive
        # it out).
        slack_column = self.num_structural
        self.rows: List[SparseRow] = []
        self.basis_candidate: List[Optional[int]] = []
        self.negated: List[bool] = []
        for relation, row in rows:
            indices, numerators = _structural_entries(row, columns)
            constant = row.numerator_at(_RHS)
            basic = None
            if relation is Relation.LE:
                basic = slack_column
                indices.append(slack_column)
                numerators.append(row.denominator)
                slack_column += 1
            negated = constant > 0  # b = −constant < 0
            if negated:
                numerators = [-value for value in numerators]
                basic = None
            else:
                constant = -constant
            if constant:
                indices.insert(0, _RHS)
                numerators.insert(0, constant)
            self.rows.append(SparseRow._make(indices, numerators, row.denominator))
            self.basis_candidate.append(basic)
            self.negated.append(negated)

        # Objective over the standard columns (constant handled separately).
        self.cost = [_ZERO] * self.num_columns
        indices, numerators = _structural_entries(objective, columns)
        for column, numerator in zip(indices, numerators):
            self.cost[column] = Fraction(numerator, objective.denominator)
        self.objective_constant = objective.get(_RHS)

    def to_original(self, values: Sequence[Fraction]) -> Dict[str, Fraction]:
        """Map standard-form column values back to the original variables."""
        return {
            name: _column_value(name, self.plus_index, self.minus_index, values)
            for name in self.original_variables
        }


def _structural_entries(
    row: SparseRow, columns: Dict[int, Tuple[int, Optional[int]]]
) -> Tuple[List[int], List[int]]:
    """Row *row*'s variable entries spread onto their standard columns.

    Returns ascending ``(columns, numerators)`` over ``row.denominator``;
    a split variable puts its coefficient on ``x+`` and its negation on
    ``x-``.  The constant and entries at positions outside *columns* are
    skipped.
    """
    indices: List[int] = []
    numerators: List[int] = []
    for index, numerator in row.iter_scaled():
        pair = columns.get(index)
        if pair is None:
            continue
        plus, minus = pair
        indices.append(plus)
        numerators.append(numerator)
        if minus is not None:
            indices.append(minus)
            numerators.append(-numerator)
    return indices, numerators


class _Tableau:
    """A simplex tableau over sparse scaled-integer rows.

    Every row is a :class:`~repro.linalg.sparse.SparseRow` with the
    right-hand side fused in at the :data:`_RHS` sentinel column, so one
    fused row operation updates coefficients and rhs together and the
    whole pivot stays in machine integers (one gcd pass per produced
    row instead of one per entry).  The reduced-cost row is maintained
    incrementally across pivots exactly like an ordinary row, with minus
    the current objective living in its fused :data:`_RHS` slot.

    Basic columns keep exact identity structure (value 1 in their own
    row, 0 elsewhere), and all pivot decisions (Bland's rule, ratio
    tests) compare exact values, so the pivot *sequence* — and therefore
    every pivot counter the warm-start machinery reports — is identical
    to the dense-``Fraction`` tableau this replaces.
    """

    def __init__(
        self,
        rows: List[SparseRow],
        num_cols: int,
        cost: SparseRow,
    ):
        self.rows = rows
        self.num_rows = len(rows)
        self.num_cols = num_cols
        self.basis: List[int] = []
        self._cost = cost  # fused: value at _RHS is minus the objective
        self.pivot_count = 0
        #: One-shot gather cache: the ratio test hands its entering-column
        #: sweep to the pivot that immediately follows (rows are unchanged
        #: in between), halving the per-pivot column gathers.
        self._gathered: Optional[Tuple[int, List[int]]] = None

    def install_cost(self, cost: List[Fraction]) -> None:
        """Install a new objective and price it out against the basis."""
        priced = SparseRow.from_pairs(enumerate(cost))
        for row_index, basic_col in enumerate(self.basis):
            if priced.numerator_at(basic_col):
                priced = priced.eliminate(basic_col, self.rows[row_index])
        self._cost = priced

    def extend_cost(self, entries: Dict[int, Fraction]) -> None:
        """Add objective terms on currently-*nonbasic* columns to the cost row.

        For a nonbasic column ``j`` the reduced cost is ``c_j`` minus a
        combination of *basic* costs; changing ``c_j`` alone therefore
        shifts its reduced cost by exactly the new term while every other
        reduced cost — and the objective value, since nonbasic columns
        sit at zero — stays put.  This is the cheap per-batch repricing
        the warm path uses when an iteration only appended fresh columns
        (the δ of new counterexamples); callers must verify the columns
        are nonbasic first.
        """
        self._cost = self._cost + SparseRow.from_dict(entries)

    # -- incremental growth ----------------------------------------------------

    def append_column(self, cost: Fraction = _ZERO) -> int:
        """Append an all-zero column (a variable absent from every row).

        Sparse rows store nothing for absent columns, so only the column
        count moves; the new column's reduced cost under the current
        basis is simply its objective coefficient.
        """
        self.num_cols += 1
        column = self.num_cols - 1
        if cost:
            self._cost = self._cost + SparseRow.from_pairs([(column, cost)])
        return column

    def append_row(self, row: SparseRow, basic_column: int) -> None:
        """Append a row (rhs fused) whose *basic_column* entry is 1."""
        self.rows.append(row)
        self.basis.append(basic_column)
        self.num_rows += 1
        self._gathered = None  # the cached sweep no longer covers every row

    def eliminate_against_basis(self, row: SparseRow) -> SparseRow:
        """Express a fresh fused row in terms of the current basis.

        Each basic column has identity structure (1 in its own row, 0 in
        every other row and in every other basic column), so one pass over
        the basis suffices.
        """
        for row_index, basic_col in enumerate(self.basis):
            if row.numerator_at(basic_col):
                row = row.eliminate(basic_col, self.rows[row_index])
        return row

    # -- pivoting ------------------------------------------------------------

    def _column(self, col: int) -> List[int]:
        """Numerators of column *col* across every row, one batched sweep."""
        return [current.numerator_at(col) for current in self.rows]

    def pivot(self, row: int, col: int) -> None:
        """Pivot so that column *col* becomes basic in row *row*.

        The pivot column is gathered once across the tableau, then every
        row with a nonzero entry is eliminated through one fused merge
        (the gathered value feeds the merge directly, so no row is asked
        for the same entry twice).
        """
        cached = self._gathered
        self._gathered = None
        # The cached sweep predates the pivot row's normalisation, but the
        # pivot row is skipped below, so only the unchanged rows are read.
        column = cached[1] if cached and cached[0] == col else self._column(col)
        pivot_row = self.rows[row].pivot_normalized(col)
        self.rows[row] = pivot_row
        p_c = pivot_row.numerator_at(col)
        for other in range(self.num_rows):
            s_c = column[other]
            if other != row and s_c:
                current = self.rows[other]
                self.rows[other] = current._merge(
                    pivot_row, p_c, -s_c, current.denominator * p_c
                )
        s_c = self._cost.numerator_at(col)
        if s_c:
            self._cost = self._cost._merge(
                pivot_row, p_c, -s_c, self._cost.denominator * p_c
            )
        self.basis[row] = col
        self.pivot_count += 1

    def reduced_cost_at(self, col: int) -> Fraction:
        """Reduced cost of one column for the current basis."""
        return self._cost.get(col)

    def objective_value(self) -> Fraction:
        return -self._cost.get(_RHS)

    def column_values(self) -> List[Fraction]:
        values = [_ZERO] * self.num_cols
        for row, col in enumerate(self.basis):
            values[col] = self.rows[row].get(_RHS)
        return values

    # -- the simplex loops -----------------------------------------------------

    def optimize(self, allowed_columns: Optional[set] = None) -> Tuple[str, Optional[int]]:
        """Run the primal simplex to optimality.

        Returns ``("optimal", None)`` or ``("unbounded", entering_column)``.
        Columns not in *allowed_columns* (when given) are never entered —
        this is how phase 2 keeps the artificial columns out of the basis.
        """
        while True:
            # Bland: smallest column index with a negative reduced cost.
            # The sparse cost row iterates in index order and absent
            # entries are zero, so the first negative stored numerator
            # (the denominator is positive) is the entering column.
            entering = None
            for col, numerator in self._cost.iter_scaled():
                if col == _RHS or numerator >= 0:
                    continue
                if allowed_columns is not None and col not in allowed_columns:
                    continue
                entering = col
                break
            if entering is None:
                return ("optimal", None)
            leaving = self._ratio_test(entering)
            if leaving is None:
                return ("unbounded", entering)
            self.pivot(leaving, entering)

    def _ratio_test(self, entering: int) -> Optional[int]:
        """Bland ratio test: the leaving row for *entering*, or ``None``.

        One batched sweep gathers every row's entering-column coefficient,
        then only the rows with a positive coefficient read their fused
        rhs for the exact cross-multiplied comparison.  Within one row,
        rhs and coefficient share the row denominator, so the ratio is
        the numerator quotient and cross multiplication compares rows
        exactly.
        """
        rows = self.rows
        column = self._column(entering)
        self._gathered = (entering, column)
        leaving = None
        best_rhs = best_coefficient = 0
        for row, coefficient in enumerate(column):
            if coefficient <= 0:
                continue
            # Lazy rhs read — only rows surviving the sign test pay it.
            rhs = rows[row].numerator_at(_RHS)
            if leaving is None:
                take = True
            else:
                lhs = rhs * best_coefficient
                rhs_cross = best_rhs * coefficient
                take = lhs < rhs_cross or (
                    lhs == rhs_cross
                    and self.basis[row] < self.basis[leaving]
                )
            if take:
                leaving = row
                best_rhs = rhs
                best_coefficient = coefficient
        return leaving

    def dual_optimize(self, allowed_columns: Optional[set] = None) -> str:
        """Run the dual simplex until the basis is primal feasible.

        Requires the current basis to be *dual* feasible (all reduced costs
        of allowed columns nonnegative) — which is exactly the state left
        behind by a previous optimal solve after new rows are appended.
        Returns ``"optimal"`` or ``"infeasible"`` (dual unbounded).  Bland's
        dual rule (smallest basic index leaves, smallest-index minimal
        ratio enters) rules out cycling.
        """
        while True:
            # Batched leaving-row sweep: one pass gathers every row's
            # fused-rhs sign, then Bland's dual rule picks the smallest
            # basic index among the negative ones.
            basis = self.basis
            negative = [
                row
                for row, rhs in enumerate(self._column(_RHS))
                if rhs < 0
            ]
            if not negative:
                return "optimal"
            leaving = min(negative, key=basis.__getitem__)
            # The entering ratio is reduced[col] / (-coefficient); the cost
            # and pivot row denominators are constant across candidates, so
            # comparing numerator cross-products picks the same column.
            entering = None
            best_cost = best_coefficient = 0
            for col, coefficient in self.rows[leaving].iter_scaled():
                if col == _RHS or coefficient >= 0:
                    continue
                if allowed_columns is not None and col not in allowed_columns:
                    continue
                cost = self._cost.numerator_at(col)
                if entering is None or (
                    cost * -best_coefficient < best_cost * -coefficient
                ):
                    entering = col
                    best_cost = cost
                    best_coefficient = coefficient
            if entering is None:
                return "infeasible"
            self.pivot(leaving, entering)

    def ray_direction(self, entering: int) -> List[Fraction]:
        """The improving ray associated with an unbounded entering column."""
        direction = [_ZERO] * self.num_cols
        direction[entering] = _ONE
        for row, basic_col in enumerate(self.basis):
            direction[basic_col] = -self.rows[row].get(entering)
        return direction


def _two_phase(standard: _StandardForm) -> Tuple[bool, _Tableau, List[int]]:
    """Phase 1: find a basic feasible solution for *standard*.

    Returns ``(feasible, tableau, identity)``; on success the tableau's
    basis is primal feasible and every artificial column is either out of
    the basis or stuck at zero in a redundant row.  ``identity[i]`` is the
    column that starts basic in row ``i`` — its slack, or else its
    artificial — whose reduced cost later yields the row's multiplier
    (:func:`_multipliers`).
    """
    num_rows = len(standard.rows)
    num_cols = standard.num_columns

    # Rows whose slack can serve as the initial basic variable need no
    # artificial column; only the remaining rows get one.
    artificial_start = num_cols
    needy_rows = [
        row_index
        for row_index in range(num_rows)
        if standard.basis_candidate[row_index] is None
    ]
    artificial_of_row = {
        row_index: artificial_start + position
        for position, row_index in enumerate(needy_rows)
    }
    rows: List[SparseRow] = []
    for row_index, row in enumerate(standard.rows):
        if row_index in artificial_of_row:
            row = SparseRow._make(
                list(row.indices) + [artificial_of_row[row_index]],
                list(row.numerators) + [row.denominator],
                row.denominator,
            )
        rows.append(row)
    phase1_cost = [
        (artificial_start + position, _ONE)
        for position in range(len(needy_rows))
    ]
    tableau = _Tableau(
        rows, num_cols + len(needy_rows), SparseRow.from_pairs(phase1_cost)
    )
    identity = [
        artificial_of_row.get(row_index, standard.basis_candidate[row_index])
        for row_index in range(num_rows)
    ]
    tableau.basis = list(identity)
    if needy_rows:
        tableau.install_cost(
            [_ZERO] * num_cols + [_ONE] * len(needy_rows)
        )
        status, _ = tableau.optimize()
        assert status == "optimal", "phase 1 is always bounded below by zero"
        if tableau.objective_value() > 0:
            return (False, tableau, identity)

    # Drive any leftover artificial variables out of the basis.
    for row in range(num_rows):
        if tableau.basis[row] >= artificial_start:
            replacement = None
            for col, _ in tableau.rows[row].iter_scaled():
                if 0 <= col < num_cols:
                    replacement = col
                    break
            if replacement is not None:
                tableau.pivot(row, replacement)
            # Otherwise the row is redundant (all-zero over real columns);
            # the artificial stays basic at value zero, which is harmless
            # as long as it can never re-enter with a non-zero value.

    return (True, tableau, identity)


def _multipliers(
    standard: _StandardForm,
    tableau: _Tableau,
    identity: Sequence[int],
    phase_one: bool,
) -> List[Fraction]:
    """Per-constraint multipliers read off the final cost row.

    Row ``i``'s identity column ``j`` (see :func:`_two_phase`) has reduced
    cost ``d_j = c_j − y_i``, so the row's dual is ``y_i = c_j − d_j``;
    only phase 1 prices a column (an artificial, at ``c_j = 1``).  Undoing
    the sign flip of rows :class:`_StandardForm` negated gives
    ``μ_i = −σ_i·y_i`` in the orientation of the input ``expr ≤ 0`` /
    ``expr = 0``, where dual feasibility makes ``μ_i ≥ 0`` on every
    inequality.
    """
    artificial_start = standard.num_columns
    multipliers = []
    for column, negated in zip(identity, standard.negated):
        dual = -tableau.reduced_cost_at(column)
        if phase_one and column >= artificial_start:
            dual += _ONE
        multipliers.append(dual if negated else -dual)
    return multipliers


class _EqualityElimination:
    """Equality rows substituted out of a one-shot LP before the simplex.

    Rows and objective are :func:`_expr_row` rows over variable positions
    ``0 … n−1``.  Each ``=`` row ``p``, in input order, picks a pivot
    variable that is not *nonnegative* and occurs in the fewest remaining
    rows (ties broken by name), and the pivot is substituted out of every
    other row and out of the objective.  Row ``p`` first gets the tag
    column ``n + p`` at coefficient 1, so each fused substitution also
    records its multiple of row ``p``: a surviving row reads
    ``r_j = e_j + Σ_p C_jp·e_p`` with ``C_jp`` at its tag ``n + p``, and
    the objective ``f' = f + Σ_p g_p·e_p`` likewise.  An ``=`` row
    without an eligible variable — including one that has reduced to a
    constant — stays in the system.

    The reduced LP agrees with the input wherever every eliminated
    ``e_p`` is zero, which back-substitution (:meth:`lift_point`)
    guarantees; its multipliers ``λ'_j`` lift to the input rows as
    ``μ_p = Σ_j λ'_j·C_jp`` (plus ``g_p`` at an optimum) by
    :meth:`lift_multipliers`, so the Farkas and ``f* − f`` identities
    of :class:`~repro.lp.problem.LpResult` hold on the input system.
    """

    def __init__(
        self,
        objective: SparseRow,
        rows: List[Tuple[Relation, SparseRow]],
        variables: Sequence[str],
        nonnegative: FrozenSet[str],
    ):
        width = len(variables)
        self.variables = variables
        current: List[Optional[SparseRow]] = [row for _, row in rows]
        equalities = [
            index
            for index, (relation, _) in enumerate(rows)
            if relation is Relation.EQ
        ]
        # Variable position -> indices of the remaining rows that mention it.
        occurrences: Dict[int, Set[int]] = {}
        if equalities:
            for index, row in enumerate(current):
                for column in row.indices:
                    if column >= 0:
                        occurrences.setdefault(column, set()).add(index)
        #: ``(variable position, tagged pivot row)`` in elimination order.
        self.pivots: List[Tuple[int, SparseRow]] = []
        for pivot_index in equalities:
            row = current[pivot_index]
            candidates = [
                column
                for column in row.indices
                if 0 <= column < width
                and variables[column] not in nonnegative
            ]
            if not candidates:
                continue
            pivot = min(
                candidates,
                key=lambda column: (len(occurrences[column]), variables[column]),
            )
            # Tags of earlier pivots sit below this one, so the tag column
            # (value 1) goes at the end of the row.
            tagged = SparseRow._make(
                list(row.indices) + [width + pivot_index],
                list(row.numerators) + [row.denominator],
                row.denominator,
            )
            current[pivot_index] = None
            for column in row.indices:
                if 0 <= column < width:
                    occurrences[column].discard(pivot_index)
            for index in list(occurrences[pivot]):
                old = current[index]
                new = old.eliminate(pivot, tagged)
                current[index] = new
                old_support, new_support = set(old.indices), set(new.indices)
                for column in old_support - new_support:
                    if 0 <= column < width:
                        occurrences[column].discard(index)
                for column in new_support - old_support:
                    if 0 <= column < width:
                        occurrences.setdefault(column, set()).add(index)
            objective = objective.eliminate(pivot, tagged)
            self.pivots.append((pivot, tagged))

        self.objective = objective
        self.kept = [index for index, row in enumerate(current) if row is not None]
        self.kept_rows = [(rows[index][0], current[index]) for index in self.kept]
        self.num_rows = len(rows)
        eliminated = {pivot for pivot, _ in self.pivots}
        self.kept_variables = [
            (index, name)
            for index, name in enumerate(variables)
            if index not in eliminated
        ]

    def lift_point(
        self, values: Dict[str, Fraction], homogeneous: bool = False
    ) -> Dict[str, Fraction]:
        """Extend a reduced point (or, *homogeneous*, a ray) to every variable.

        Back-substitutes in reverse pivot order: a pivot row mentions only
        variables eliminated after it, which are already known.  Each sum
        is kept as one integer fraction ``numerator / denominator``, so a
        pivot costs one ``Fraction`` instead of one per term.
        """
        width = len(self.variables)
        point = [values.get(name, _ZERO) for name in self.variables]
        for pivot, tagged in reversed(self.pivots):
            numerator, denominator = 0, 1
            for column, coefficient in tagged.iter_scaled():
                if column >= width:
                    break
                if column == _RHS:
                    if not homogeneous:
                        numerator += coefficient * denominator
                elif column != pivot:
                    value = point[column]
                    scale = value.denominator
                    if scale == denominator:
                        numerator += coefficient * value.numerator
                    else:
                        numerator = (
                            numerator * scale
                            + coefficient * value.numerator * denominator
                        )
                        denominator *= scale
            point[pivot] = Fraction(
                -numerator, denominator * tagged.numerator_at(pivot)
            )
        return dict(zip(self.variables, point))

    def lift_multipliers(
        self, reduced: Sequence[Fraction], optimal: bool
    ) -> List[Fraction]:
        """Input-row multipliers from the reduced rows' ``λ'_j``.

        Kept rows keep their ``λ'_j``; eliminated row ``p`` gets
        ``Σ_j λ'_j·C_jp``, plus the objective's ``g_p`` when *optimal*
        (the ``f* − f`` identity carries the objective's combination too).
        """
        width = len(self.variables)
        multipliers = [_ZERO] * self.num_rows
        for (_, row), index, weight in zip(self.kept_rows, self.kept, reduced):
            multipliers[index] = weight
            if weight:
                for column, numerator in row.iter_scaled():
                    if column >= width:
                        multipliers[column - width] += weight * Fraction(
                            numerator, row.denominator
                        )
        if optimal:
            for column, numerator in self.objective.iter_scaled():
                if column >= width:
                    multipliers[column - width] += Fraction(
                        numerator, self.objective.denominator
                    )
        return multipliers


def solve_lp(
    objective: LinExpr,
    constraints: Sequence[Union[Constraint, LinearRow]],
    sense: Sense = Sense.MINIMIZE,
    variables: Optional[Sequence[str]] = None,
    nonnegative: FrozenSet[str] = frozenset(),
) -> LpResult:
    """Solve ``optimise objective subject to constraints`` exactly.

    Each constraint is a :class:`~repro.linexpr.constraint.Constraint` or
    a :class:`~repro.lp.problem.LinearRow` lowered from one (the SMT
    theory hands over the rows it stores per atom).
    ``variables`` fixes the set (and order) of variables appearing in the
    result; when omitted it is inferred from the constraints and objective.
    Variables in ``nonnegative`` are treated as implicitly ``≥ 0`` (single
    standard-form column instead of a split pair).

    Equality rows are substituted out first (:class:`_EqualityElimination`)
    and the two-phase simplex runs on the smaller system that remains;
    the assignment, ray and multipliers are lifted back to the input.

    INFEASIBLE and OPTIMAL results carry ``multipliers`` (see
    :class:`~repro.lp.problem.LpResult`), read off the final tableau at
    no extra pivots: the phase-1 duals are a Farkas certificate, the
    phase-2 duals an optimality certificate.
    """
    if variables is None:
        names = set(objective.variables())
        for constraint in constraints:
            names |= set(constraint.variables())
        variables = sorted(names)

    minimize_objective = (
        objective if sense is Sense.MINIMIZE else -objective
    )
    position = {name: index for index, name in enumerate(variables)}
    rows = _constraint_rows(constraints, position)
    presolve = _EqualityElimination(
        _expr_row(minimize_objective, position, "objective"),
        rows,
        list(variables),
        nonnegative,
    )
    standard = _StandardForm.from_rows(
        presolve.objective,
        presolve.kept_rows,
        presolve.kept_variables,
        nonnegative,
    )
    reduced = _solve_standard(standard)

    if reduced.status is LpStatus.INFEASIBLE:
        return LpResult(
            status=LpStatus.INFEASIBLE,
            pivots=reduced.pivots,
            multipliers=presolve.lift_multipliers(reduced.multipliers, False),
        )
    assignment = presolve.lift_point(reduced.assignment)
    if reduced.status is LpStatus.UNBOUNDED:
        return LpResult(
            status=LpStatus.UNBOUNDED,
            assignment=assignment,
            ray=presolve.lift_point(reduced.ray, homogeneous=True),
            pivots=reduced.pivots,
        )
    objective_value = reduced.objective
    if sense is Sense.MAXIMIZE:
        objective_value = -objective_value
    return LpResult(
        status=LpStatus.OPTIMAL,
        assignment=assignment,
        objective=objective_value,
        pivots=reduced.pivots,
        multipliers=presolve.lift_multipliers(reduced.multipliers, True),
    )


def _solve_standard(standard: _StandardForm) -> LpResult:
    """Minimise *standard* by the two-phase simplex, in its own variables.

    Kept apart from :func:`solve_lp` so that the one public entry point
    is also the only one called per solve.
    """
    num_cols = standard.num_columns
    feasible, tableau, identity = _two_phase(standard)
    if not feasible:
        return LpResult(
            status=LpStatus.INFEASIBLE,
            pivots=tableau.pivot_count,
            multipliers=_multipliers(standard, tableau, identity, True),
        )

    # ---- Phase 2: optimise the real objective -----------------------------
    num_artificials = tableau.num_cols - num_cols
    tableau.install_cost(list(standard.cost) + [_ZERO] * num_artificials)
    allowed = set(range(num_cols))
    status, entering = tableau.optimize(allowed_columns=allowed)

    values = tableau.column_values()[:num_cols]
    assignment = standard.to_original(values)

    if status == "unbounded":
        direction = tableau.ray_direction(entering)[:num_cols]
        return LpResult(
            status=LpStatus.UNBOUNDED,
            assignment=assignment,
            ray=standard.to_original(direction),
            pivots=tableau.pivot_count,
        )

    return LpResult(
        status=LpStatus.OPTIMAL,
        assignment=assignment,
        objective=tableau.objective_value() + standard.objective_constant,
        pivots=tableau.pivot_count,
        multipliers=_multipliers(standard, tableau, identity, False),
    )


class SimplexState:
    """A persistent LP whose optimal basis is reused across solves.

    The supported mutations between solves are exactly the ones the lazy
    synthesis loop needs:

    * :meth:`declare` a new variable — new variables may only appear in
      constraints added afterwards, which is how the δ of a fresh
      counterexample behaves (their columns are all-zero in the solved
      rows, so the basis stays valid);
    * :meth:`add_constraint` — appended as slack-form rows; after a solved
      instance this triggers dual-simplex pivots from the previous optimal
      basis instead of a cold two-phase solve;
    * :meth:`set_objective` — re-priced against the current basis and
      re-optimised with primal pivots.

    The first :meth:`solve` (and any solve after an UNBOUNDED outcome,
    where no optimal basis exists to restart from) is a cold two-phase
    solve; every other solve is warm.  ``last_solve_warm`` tells which the
    last solve was, and its :class:`~repro.lp.problem.LpResult` carries
    its pivots; counting solves is the caller's job (the ranking LP's
    :func:`~repro.core.lp_instance.record_lp`).

    Appending a *batch* of constraints between solves costs one
    dual-simplex basis-repair pass for the whole batch, not one per row:
    every pending row is installed first, and a single
    :meth:`_Tableau.dual_optimize` run restores primal feasibility for
    all of them (a CEGIS iteration's vertex and ray rows arrive
    together).  When the objective change since the last solve only
    *added* terms on columns that are still nonbasic — the shape of every
    counterexample iteration, whose fresh δ columns carry the new
    objective terms — the repricing is a constant-size cost-row update
    instead of a full re-elimination against the basis (counted as
    ``lp.simplex.incremental_repricings``).
    """

    def __init__(self, sense: Sense = Sense.MINIMIZE):
        self.sense = sense
        self._objective = LinExpr()
        self._declared: Dict[str, bool] = {}  # name -> nonnegative, in order
        self._constraints: List[Union[Constraint, LinearRow]] = []
        self._pending_variables: List[str] = []
        self._pending_constraints: List[Union[Constraint, LinearRow]] = []
        self._tableau: Optional[_Tableau] = None
        self._plus: Dict[str, int] = {}
        self._minus: Dict[str, int] = {}
        self._allowed: Set[int] = set()
        self._priced_objective: Optional[LinExpr] = None
        self._warm_ready = False
        self._infeasible = False
        self._last_result: Optional[LpResult] = None
        self.last_solve_warm = False

    # -- construction ----------------------------------------------------------

    def declare(self, *names: str, nonnegative: bool = False) -> None:
        """Declare variables (optionally known nonnegative).

        Re-declaring with the same bound is a no-op; changing the bound
        in either direction raises (tightening would invalidate solved
        rows, loosening would silently ignore the caller's request).
        """
        for name in names:
            if name in self._declared:
                if nonnegative != self._declared[name]:
                    raise ValueError(
                        "variable %r is already declared %s and cannot be "
                        "re-declared %s"
                        % (
                            name,
                            "nonnegative" if self._declared[name] else "free",
                            "nonnegative" if nonnegative else "free",
                        )
                    )
                continue
            self._declared[name] = nonnegative
            self._pending_variables.append(name)
            self._last_result = None

    def _auto_declare(self, names) -> None:
        for name in sorted(names):
            if name not in self._declared:
                self.declare(name)

    def add_constraint(self, constraint: Union[Constraint, LinearRow]) -> None:
        """Queue a constraint; it joins the tableau at the next solve.

        A :class:`~repro.lp.problem.LinearRow` is taken in place of the
        constraint it was lowered from, and its integers are read as they
        are, as :func:`solve_lp` does.
        """
        if constraint.relation is Relation.LT:
            raise ValueError("strict inequalities are not LP constraints")
        self._auto_declare(constraint.variables())
        self._pending_constraints.append(constraint)
        self._last_result = None

    def add_constraints(
        self, constraints: Sequence[Union[Constraint, LinearRow]]
    ) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    def set_objective(self, objective: LinExpr) -> None:
        self._auto_declare(objective.variables())
        if objective != self._objective:
            self._objective = objective
            self._last_result = None

    # -- solving ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self._constraints) + len(self._pending_constraints)

    def _minimized_objective(self) -> LinExpr:
        return (
            self._objective
            if self.sense is Sense.MINIMIZE
            else -self._objective
        )

    def _cost_vector(self, length: int) -> List[Fraction]:
        cost = [_ZERO] * length
        _spread_terms(
            self._minimized_objective().terms, self._plus, self._minus, cost
        )
        return cost

    def solve(self) -> LpResult:
        """Solve the current instance, warm-starting whenever possible."""
        if self._infeasible:
            # Constraints only ever accumulate, so infeasibility is final.
            return LpResult(status=LpStatus.INFEASIBLE)
        if self._last_result is not None:
            return self._last_result
        self.last_solve_warm = self._tableau is not None and self._warm_ready
        if self.last_solve_warm:
            result = self._solve_warm()
        else:
            result = self._solve_cold()
        self._last_result = result
        return result

    def _commit_pending(self) -> None:
        self._constraints.extend(self._pending_constraints)
        self._pending_constraints = []
        self._pending_variables = []

    def _solve_cold(self) -> LpResult:
        self._commit_pending()
        variables = list(self._declared)
        nonnegative = frozenset(
            name for name, flag in self._declared.items() if flag
        )
        standard = _StandardForm(
            self._minimized_objective(),
            self._constraints,
            variables,
            nonnegative,
        )
        num_cols = standard.num_columns
        feasible, tableau, _ = _two_phase(standard)
        if not feasible:
            self._infeasible = True
            return LpResult(
                status=LpStatus.INFEASIBLE, pivots=tableau.pivot_count
            )
        num_artificials = tableau.num_cols - num_cols
        tableau.install_cost(list(standard.cost) + [_ZERO] * num_artificials)
        allowed = set(range(num_cols))
        status, entering = tableau.optimize(allowed_columns=allowed)

        self._tableau = tableau
        self._plus = dict(standard.plus_index)
        self._minus = dict(standard.minus_index)
        self._allowed = allowed
        self._priced_objective = self._objective
        self._warm_ready = status == "optimal"
        return self._extract(status, entering, tableau.pivot_count)

    def _solve_warm(self) -> LpResult:
        tableau = self._tableau
        assert tableau is not None
        start_pivots = tableau.pivot_count

        # 1. New variables become fresh columns.  They are absent from every
        # committed row (they were declared afterwards), so the columns are
        # all-zero and the basis stays optimal for the priced objective.
        for name in self._pending_variables:
            self._plus[name] = tableau.append_column()
            self._allowed.add(self._plus[name])
            if not self._declared[name]:
                self._minus[name] = tableau.append_column()
                self._allowed.add(self._minus[name])

        # 2. New constraints become slack-form rows (an equality contributes
        # one ≤ row per direction), eliminated against the current basis;
        # a negative right-hand side is precisely what the dual simplex
        # repairs next.  The whole batch is installed before any repair
        # pivot runs, so k appended rows pay one repair pass, not k.
        for constraint in self._pending_constraints:
            directions = (1, -1) if constraint.relation is Relation.EQ else (1,)
            for sign in directions:
                slack = tableau.append_column()
                self._allowed.add(slack)
                row = tableau.eliminate_against_basis(
                    self._slack_row(constraint, sign, slack)
                )
                tableau.append_row(row, slack)
        self._commit_pending()

        # 3. Restore primal feasibility under the previously-priced
        # objective (for which the basis is dual feasible): one multi-row
        # dual-simplex repair pass for the whole appended batch.
        status = tableau.dual_optimize(self._allowed)
        if status == "infeasible":
            self._infeasible = True
            return LpResult(
                status=LpStatus.INFEASIBLE,
                pivots=tableau.pivot_count - start_pivots,
            )

        # 4. Price the current objective and re-optimise with primal
        # pivots.  Appending rows leaves the maintained reduced-cost row
        # valid (the new slack is basic with cost zero, so no existing
        # reduced cost moves), so repricing is only needed when the
        # objective itself changed since it was last priced.
        if self._objective != self._priced_objective:
            self._reprice(tableau)
        status, entering = tableau.optimize(allowed_columns=self._allowed)
        self._priced_objective = self._objective
        self._warm_ready = status == "optimal"
        pivots = tableau.pivot_count - start_pivots
        return self._extract(status, entering, pivots)

    def _slack_row(
        self, constraint: Union[Constraint, LinearRow], sign: int, slack: int
    ) -> SparseRow:
        """``sign·expr + slack = 0`` over the tableau's columns, rhs fused.

        Read off the integers of the constraint's
        :class:`~repro.lp.problem.LinearRow`: ``sign·n_i`` on each
        variable's columns, ``d`` on the slack and ``−sign·c`` at the rhs,
        all over ``d``.
        """
        row = constraint if isinstance(constraint, LinearRow) else LinearRow.of(constraint)
        pairs = [(slack, row.denominator)]
        if row.constant:
            pairs.append((_RHS, -sign * row.constant))
        for name, numerator in zip(row.names, row.numerators):
            if numerator:
                pairs.append((self._plus[name], sign * numerator))
                if name in self._minus:
                    pairs.append((self._minus[name], -sign * numerator))
        pairs.sort()
        return SparseRow._make(
            [index for index, _ in pairs],
            [value for _, value in pairs],
            row.denominator,
        )

    def _reprice(self, tableau: _Tableau) -> None:
        """Price the current objective against the tableau's basis.

        When the change since the last pricing only *adds* terms on
        columns that are currently nonbasic — the batched-refinement
        shape, where each iteration's objective gains one fresh δ per
        appended counterexample — the cost row is patched in place
        (:meth:`_Tableau.extend_cost`) instead of being rebuilt and
        re-eliminated against every basic column.
        """
        previous = (
            self._priced_objective
            if self.sense is Sense.MINIMIZE
            else -self._priced_objective
        )
        delta = self._minimized_objective() - previous
        if not delta.terms:
            # Constant-only change: the constant lives outside the tableau
            # (it is re-added at extraction), so the priced row is intact.
            count("lp.simplex.incremental_repricings")
            return
        entries = _sparse_terms(delta.terms, self._plus, self._minus)
        basic = set(tableau.basis)
        if all(column not in basic for column in entries):
            tableau.extend_cost(entries)
            count("lp.simplex.incremental_repricings")
            return
        tableau.install_cost(self._cost_vector(tableau.num_cols))

    def _to_original(self, values: Sequence[Fraction]) -> Dict[str, Fraction]:
        result: Dict[str, Fraction] = {}
        for name in self._declared:
            if name not in self._plus:
                result[name] = _ZERO  # declared after the last solve
                continue
            result[name] = _column_value(name, self._plus, self._minus, values)
        return result

    def _extract(
        self, status: str, entering: Optional[int], pivots: int
    ) -> LpResult:
        tableau = self._tableau
        assert tableau is not None
        assignment = self._to_original(tableau.column_values())
        if status == "unbounded":
            ray = self._to_original(tableau.ray_direction(entering))
            return LpResult(
                status=LpStatus.UNBOUNDED,
                assignment=assignment,
                ray=ray,
                pivots=pivots,
            )
        objective_value = (
            tableau.objective_value()
            + self._minimized_objective().constant_term
        )
        if self.sense is Sense.MAXIMIZE:
            objective_value = -objective_value
        return LpResult(
            status=LpStatus.OPTIMAL,
            assignment=assignment,
            objective=objective_value,
            pivots=pivots,
        )


def check_feasibility(
    constraints: Sequence[Constraint],
    variables: Optional[Sequence[str]] = None,
) -> LpResult:
    """Feasibility check: solve with the zero objective."""
    return solve_lp(LinExpr(), constraints, Sense.MINIMIZE, variables)
