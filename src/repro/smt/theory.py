"""Theory solver for conjunctions of linear arithmetic constraints.

Given a conjunction of (possibly strict) linear constraints over rational
or integer variables, the solver decides satisfiability, produces a model
and, when unsatisfiable, an *unsat core* that the lazy SMT loop turns into
a blocking clause.

Strict inequalities are handled exactly with the standard trick: every
``e < 0`` is replaced by ``e + δ ≤ 0`` for a shared fresh variable ``δ``
and we maximise ``δ`` under ``0 ≤ δ ≤ 1``; the conjunction is satisfiable
with strict inequalities iff the maximum is positive.  Constraints whose
variables are all integers are instead tightened to ``e ≤ -1`` which keeps
the branch-and-bound integer search exact.

The core comes for free with the LP that decided the conjunction: it is
the support of the simplex multipliers (``LpResult.multipliers``) — a
phase-1 Farkas certificate, or the phase-2 duals of the ``max δ`` LP.  Before it is used, the certificate is re-checked exactly
against the input by :func:`_farkas_core` (Motzkin's transposition
theorem, in ``LinExpr`` arithmetic, no LP).  A conflict without a checked
certificate — branch and bound refuted it below the root, or the check
failed — reports the whole conjunction as its core, which is always sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.branch_bound import BranchAndBoundLimit, solve_ilp
from repro.lp.problem import LpStatus, Sense
from repro.lp.simplex import solve_lp
from repro.metrics import count

_DELTA = "__delta__"


@dataclass
class TheoryResult:
    """Outcome of a conjunction feasibility check.

    When unsatisfiable, ``core`` indexes the input constraints; it is the
    support of an exactly checked infeasibility certificate when
    ``certified`` holds, and every index otherwise.
    """

    satisfiable: bool
    model: Dict[str, Fraction] = field(default_factory=dict)
    core: List[int] = field(default_factory=list)
    certified: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.satisfiable


def _prepare(
    constraints: Sequence[Constraint], integer_variables: Set[str]
) -> Tuple[List[Constraint], List[Constraint], bool]:
    """Rewrite strict inequalities; returns (rows, checked, uses_delta).

    ``checked[i]`` is the form of constraint ``i`` a certificate must
    refute: the integer-tightened row where tightening applied, the input
    constraint otherwise.
    """
    rows: List[Constraint] = []
    checked: List[Constraint] = []
    uses_delta = False
    for constraint in constraints:
        if constraint.relation is Relation.LT:
            integral = constraint.variables() <= integer_variables
            tightened = constraint.tighten_for_integers() if integral else None
            if tightened is not None and tightened.relation is Relation.LE:
                rows.append(tightened)
                checked.append(tightened)
                continue
            rows.append(
                Constraint(
                    constraint.expr + LinExpr.variable(_DELTA),
                    Relation.LE,
                )
            )
            uses_delta = True
        else:
            rows.append(constraint)
        checked.append(constraint)
    return rows, checked, uses_delta


def check_conjunction(
    constraints: Sequence[Constraint],
    integer_variables: Optional[Set[str]] = None,
) -> TheoryResult:
    """Decide satisfiability of a conjunction of linear constraints."""
    integer_variables = integer_variables or set()

    trivially_false = [
        index
        for index, constraint in enumerate(constraints)
        if constraint.is_trivially_false()
    ]
    if trivially_false:
        return TheoryResult(False, core=[trivially_false[0]], certified=True)

    rows, checked, uses_delta = _prepare(constraints, integer_variables)

    all_variables: List[str] = sorted(
        {name for row in rows for name in row.variables()}
    )

    if uses_delta:
        objective = LinExpr.variable(_DELTA)
        bounds = [
            LinExpr.variable(_DELTA) >= 0,
            LinExpr.variable(_DELTA) <= 1,
        ]
        outcome = solve(
            objective,
            rows + bounds,
            Sense.MAXIMIZE,
            all_variables,
            integer_variables,
        )
        satisfiable = (
            outcome.status is LpStatus.OPTIMAL
            and outcome.objective is not None
            and outcome.objective > 0
        )
    else:
        outcome = solve(
            LinExpr(),
            rows,
            Sense.MINIMIZE,
            all_variables,
            integer_variables,
        )
        satisfiable = outcome.status is not LpStatus.INFEASIBLE

    if satisfiable:
        model = {
            name: value
            for name, value in outcome.assignment.items()
            if name != _DELTA
        }
        return TheoryResult(True, model=model)

    core = _farkas_core(checked, outcome.multipliers)
    if core is None:
        return TheoryResult(False, core=list(range(len(constraints))))
    return TheoryResult(False, core=core, certified=True)


def _farkas_core(
    checked: Sequence[Constraint],
    multipliers: Optional[Sequence[Fraction]],
) -> Optional[List[int]]:
    """The support of *multipliers* if they refute *checked*, else ``None``.

    Motzkin's transposition theorem: a conjunction of ``e_i ≤ 0``,
    ``e_i < 0`` and ``e_i = 0`` is infeasible iff weights ``λ_i``,
    nonnegative on the inequalities, make ``Σ λ_i·e_i`` a constant ``c``
    with ``c > 0``, or ``c = 0`` with ``λ_i > 0`` on some strict row.  The
    LP's multipliers for the ``δ``/bound rows it adds are not part of the
    combination: the phase-1 certificate gives ``c > 0`` and the ``max δ``
    duals give ``c = −δ* ≥ 0`` with weight ``≥ 1`` on the strict rows.
    """
    if multipliers is None:
        return None
    total = LinExpr()
    core: List[int] = []
    strict = False
    for index, (constraint, weight) in enumerate(zip(checked, multipliers)):
        if not weight:
            continue
        if weight < 0 and not constraint.is_equality():
            return None
        total = total + constraint.expr * weight
        strict = strict or constraint.is_strict()
        core.append(index)
    if not total.is_constant():
        return None
    constant = total.constant_term
    if constant > 0 or (constant == 0 and strict):
        return core
    return None


def solve(
    objective: LinExpr,
    rows: Sequence[Constraint],
    sense: Sense,
    variables: Sequence[str],
    integer_variables: Set[str],
):
    """Optimise over *rows*; branch and bound when integers are involved.

    A :class:`BranchAndBoundLimit` falls back to the rational relaxation,
    counted as ``lp.ilp.bb_limit_fallbacks``.
    """
    names = sorted(
        set(variables)
        | set(objective.variables())
        | {name for row in rows for name in row.variables()}
    )
    relevant_integers = [name for name in names if name in integer_variables]
    if relevant_integers:
        try:
            return solve_ilp(
                objective,
                list(rows),
                relevant_integers,
                sense,
                names,
            )
        except BranchAndBoundLimit:
            # Fall back to the rational relaxation: for the synthesis loop a
            # rational witness is still a sound counterexample direction.
            count("lp.ilp.bb_limit_fallbacks")
            return solve_lp(objective, list(rows), sense, names)
    return solve_lp(objective, list(rows), sense, names)
