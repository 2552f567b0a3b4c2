"""Theory solver for conjunctions of linear arithmetic constraints.

Given a conjunction of (possibly strict) linear constraints over rational
or integer variables, the solver decides satisfiability, produces a model
and, when unsatisfiable, an *unsat core* that the lazy SMT loop turns into
a blocking clause.

Every constraint is first *lowered* (:func:`lower_atom`) to integer rows
(:class:`~repro.lp.problem.LinearRow`), once: an SMT context keeps one
:class:`AtomTable`, and the CNF encoder has it lower each atom when the
atom gets its literal, so a DPLL(T) check only gathers stored rows.  An
SMT context is always rational; integer variables enter only through a
direct :func:`check_conjunction` call.  A lowered atom holds

* the row the LP solves.  Strict inequalities are handled exactly with
  the standard trick: every ``e < 0`` becomes ``e + δ ≤ 0`` for a shared
  fresh variable ``δ``, and the LP maximises ``δ`` under ``0 ≤ δ ≤ 1``;
  the conjunction is satisfiable with strict inequalities iff the
  maximum is positive.  A strict constraint whose variables are all
  integers is instead tightened to ``e ≤ -1``, which keeps the
  branch-and-bound integer search exact;
* the *checked* form a certificate must refute: the tightened row where
  tightening applied, the constraint itself otherwise;
* its closure (``<`` relaxed to ``≤``), which the OMT step minimises
  over (:mod:`repro.smt.optimize`).

The core comes for free with the LP that decided the conjunction: it is
the support of the simplex multipliers (``LpResult.multipliers``) — a
phase-1 Farkas certificate, or the phase-2 duals of the ``max δ`` LP.
Before it is used, the certificate is re-checked exactly against the
checked forms by :func:`_farkas_core` (Motzkin's transposition theorem,
in integer row arithmetic, no LP).  A conflict without a checked
certificate — branch and bound refuted it below the root, or the check
failed — reports the whole conjunction as its core, which is always sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import (
    AbstractSet,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
)

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.branch_bound import BranchAndBoundLimit, solve_ilp
from repro.lp.problem import LinearRow, LpStatus, Sense
from repro.lp.simplex import solve_lp
from repro.metrics import count

_DELTA = "__delta__"
_DELTA_OBJECTIVE = LinExpr.variable(_DELTA)
#: ``0 ≤ δ ≤ 1`` as rows: ``−δ ≤ 0`` and ``δ − 1 ≤ 0``.
_DELTA_BOUNDS = (
    LinearRow(Relation.LE, (_DELTA,), (-1,), 0),
    LinearRow(Relation.LE, (_DELTA,), (1,), -1),
)


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


class TheoryAtom(NamedTuple):
    """One constraint lowered for the theory (see the module docstring).

    ``row`` is the constraint itself, ``lp`` the row the LP solves (it
    mentions ``δ`` when ``delta``), ``checked`` the form a certificate
    refutes and ``closure`` the row the OMT step minimises over; ``false``
    marks a constraint that no assignment satisfies.
    """

    row: LinearRow
    lp: LinearRow
    checked: LinearRow
    closure: LinearRow
    delta: bool
    false: bool


def lower_atom(
    constraint: Constraint, integer_variables: AbstractSet[str]
) -> TheoryAtom:
    """Lower *constraint* to the rows the theory solves and checks."""
    row = LinearRow.of(constraint)
    false = constraint.is_trivially_false()
    if row.relation is not Relation.LT:
        return TheoryAtom(row, row, row, row, False, false)
    closure = row._replace(relation=Relation.LE)
    if row.denominator == 1 and constraint.variables() <= integer_variables:
        # ``e < 0`` with integral coefficients on integers: ``e + 1 ≤ 0``.
        tightened = closure._replace(constant=row.constant + 1)
        return TheoryAtom(row, tightened, tightened, closure, False, false)
    names = tuple(sorted(row.names + (_DELTA,)))
    coefficients = dict(zip(row.names, row.numerators))
    coefficients[_DELTA] = row.denominator
    lp = closure._replace(
        names=names, numerators=tuple(coefficients[name] for name in names)
    )
    return TheoryAtom(row, lp, row, closure, True, false)


class AtomTable:
    """The lowered atoms of one SMT context, each lowered once.

    Keyed by constraint; the SMT context's atoms are interned normalised
    constraints, so a lookup is an identity hit.  Each new atom is
    counted as ``smt.theory.atoms_lowered``.
    """

    def __init__(self) -> None:
        self._atoms: Dict[Constraint, TheoryAtom] = {}

    def lower(self, constraint: Constraint) -> TheoryAtom:
        """The lowered form of *constraint*, lowering it on first sight."""
        atom = self._atoms.get(constraint)
        if atom is None:
            count("smt.theory.atoms_lowered")
            atom = lower_atom(constraint, frozenset())
            self._atoms[constraint] = atom
        return atom


def check_conjunction(
    constraints: Sequence[Constraint],
    integer_variables: Optional[Set[str]] = None,
    atoms: Optional[AtomTable] = None,
) -> TheoryResult:
    """Decide satisfiability of a conjunction of linear constraints.

    With *atoms*, an SMT context's rational table, the constraints' rows
    are looked up there; otherwise each constraint is lowered here,
    through the same :func:`lower_atom`, over *integer_variables*.
    """
    integers = set(integer_variables or ())
    if atoms is None:
        lowered = [lower_atom(constraint, integers) for constraint in constraints]
    else:
        lowered = [atoms.lower(constraint) for constraint in constraints]

    for index, atom in enumerate(lowered):
        if atom.false:
            return TheoryResult(False, core=[index], certified=True)

    rows = [atom.lp for atom in lowered]
    names = sorted({name for row in rows for name in row.names})
    if any(atom.delta for atom in lowered):
        outcome = solve(
            _DELTA_OBJECTIVE,
            rows + list(_DELTA_BOUNDS),
            Sense.MAXIMIZE,
            names,
            integers,
        )
        satisfiable = (
            outcome.status is LpStatus.OPTIMAL
            and outcome.objective is not None
            and outcome.objective > 0
        )
    else:
        outcome = solve(LinExpr(), rows, Sense.MINIMIZE, names, integers)
        satisfiable = outcome.status is not LpStatus.INFEASIBLE

    if satisfiable:
        model = {
            name: value
            for name, value in outcome.assignment.items()
            if name != _DELTA
        }
        return TheoryResult(True, model=model)

    core = _farkas_core(lowered, outcome.multipliers)
    if core is None:
        return TheoryResult(False, core=list(range(len(lowered))))
    return TheoryResult(False, core=core, certified=True)


def _farkas_core(
    atoms: Sequence[TheoryAtom],
    multipliers: Optional[Sequence[Fraction]],
) -> Optional[List[int]]:
    """The support of *multipliers* if they refute the atoms, else ``None``.

    Motzkin's transposition theorem: a conjunction of ``e_i ≤ 0``,
    ``e_i < 0`` and ``e_i = 0`` is infeasible iff weights ``λ_i``,
    nonnegative on the inequalities, make ``Σ λ_i·e_i`` a constant ``c``
    with ``c > 0``, or ``c = 0`` with ``λ_i > 0`` on some strict row.  The
    rows are the atoms' checked forms, combined in integers over the
    common denominator of the weighted rows.  The LP's multipliers for the
    ``δ``/bound rows it adds are not part of the combination: the phase-1
    certificate gives ``c > 0`` and the ``max δ`` duals give
    ``c = −δ* ≥ 0`` with weight ``≥ 1`` on the strict rows.
    """
    if multipliers is None:
        return None
    used = []
    core: List[int] = []
    strict = False
    common = 1
    for index, (atom, weight) in enumerate(zip(atoms, multipliers)):
        if not weight:
            continue
        row = atom.checked
        if weight < 0 and row.relation is not Relation.EQ:
            return None
        scale = weight.denominator * row.denominator
        common = common * scale // gcd(common, scale)
        strict = strict or row.relation is Relation.LT
        used.append((weight, scale, row))
        core.append(index)
    total: Dict[str, int] = {}
    constant = 0
    for weight, scale, row in used:
        factor = weight.numerator * (common // scale)
        constant += factor * row.constant
        for name, numerator in zip(row.names, row.numerators):
            total[name] = total.get(name, 0) + factor * numerator
    if any(total.values()):
        return None
    if constant > 0 or (constant == 0 and strict):
        return core
    return None


def solve(
    objective: LinExpr,
    rows: Sequence[LinearRow],
    sense: Sense,
    variables: Sequence[str],
    integer_variables: AbstractSet[str],
):
    """Optimise over *rows*; branch and bound when integers are involved.

    *variables* are the LP's columns, sorted, covering every variable of
    *rows* and *objective*.  A :class:`BranchAndBoundLimit` falls back to
    the rational relaxation, counted as ``lp.ilp.bb_limit_fallbacks``.
    """
    relevant_integers = [name for name in variables if name in integer_variables]
    if relevant_integers:
        try:
            return solve_ilp(
                objective,
                list(rows),
                relevant_integers,
                sense,
                variables,
            )
        except BranchAndBoundLimit:
            # Fall back to the rational relaxation.  The only integer
            # caller is the nontermination engine, and a lasso it builds
            # on a rational answer is replayed, by the engine itself and
            # by the certificate checker, before any verdict rests on it.
            count("lp.ilp.bb_limit_fallbacks")
    return solve_lp(objective, list(rows), sense, variables)
