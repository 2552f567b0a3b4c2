"""Independent re-verification of lasso (recurrence-set) witnesses.

Given a :class:`~repro.program.automaton.ControlFlowAutomaton` and a
:class:`~repro.nontermination.witness.Lasso` claimed by the
nontermination engine, re-establish nontermination **without trusting the
engine**: the only thing shared with it is the witness datatype.

The claim decomposes into one universally quantified half and one
concrete half, and the checker discharges both:

1. **Closure (Farkas).**  The checker rebuilds the symbolic pass around
   the cycle *itself* — from the automaton's transitions, the lasso's
   guard-conjunct indices (into the checker's own deterministic DNF
   expansion, so any valid index under-approximates the real guard) and
   its affine havoc choices — obtaining the pulled-back guard rows and
   the affine map ``F``.  It then refutes, with the exact
   :mod:`repro.checking.farkas` engine, every way a state of ``S`` could
   fail to take the pass or escape it: ``S ∧ ¬g`` for each pulled-back
   guard row ``g`` and ``S ∧ ¬r(F(x))`` for each row ``r`` of ``S``.
   Strict atoms over the automaton's integer variables are tightened
   (integer reasoning is not optional here — the witness claims
   nontermination of the *integer* program), and an unrefuted obligation
   admitting only a non-integral witness is *inconclusive*, not invalid.

2. **Reachability (replay).**  The initial state is checked against the
   initial condition, the stem is step-executed against the real guards
   and updates (havocs take the recorded concrete values), the landing
   state must lie in ``S``, and the cycle is then unrolled
   ``REPLAY_ITERATIONS`` times concretely — havocs take their affine
   choice evaluated at the *entry* state of the iteration — with the
   state required to stay in ``S`` and integral on integer variables.

Together: a real state in ``S`` exists and every ``S``-state has a legal
successor in ``S``, hence an infinite execution exists.  For integer
programs the checker additionally verifies that ``F`` maps integer
states to integer states (integral coefficients, no rational-variable
leakage into integer slots); failing that the verdict is inconclusive.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from repro.checking import farkas
from repro.checking.checker import CertificateVerdict, ObligationFailure
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import And, Atom, Formula, Or, _Constant
from repro.linexpr.transform import dnf_conjunctions
from repro.nontermination.witness import Lasso
from repro.program.automaton import ControlFlowAutomaton

#: Concrete cycle iterations unrolled during replay.
REPLAY_ITERATIONS = 2


class _StructureError(Exception):
    """The lasso does not even parse against the automaton."""


def _negate_branches(constraint: Constraint) -> List[Constraint]:
    """Branches of ``¬constraint`` (each must be refuted separately)."""
    if constraint.is_equality():
        return [
            Constraint(constraint.expr, Relation.LT),
            Constraint(-constraint.expr, Relation.LT),
        ]
    return [constraint.negate()]


def _holds(formula: Formula, state: Dict[str, Fraction]) -> bool:
    """Concrete truth of *formula* under the total assignment *state*."""
    if isinstance(formula, _Constant):
        return formula.value
    if isinstance(formula, Atom):
        return formula.constraint.satisfied_by(state)
    if isinstance(formula, And):
        return all(_holds(op, state) for op in formula.operands)
    if isinstance(formula, Or):
        return any(_holds(op, state) for op in formula.operands)
    raise TypeError("unknown formula node %r" % (formula,))


def _rebuild_pass(automaton: ControlFlowAutomaton, lasso: Lasso):
    """Re-derive (pulled-back guard rows, affine map F) from the lasso.

    Raises :class:`_StructureError` on any structural mismatch; the
    engine's claims are never taken on faith.
    """
    variables = list(automaton.variables)
    transitions = automaton.transitions
    if not lasso.cycle:
        raise _StructureError("empty cycle")
    state = {v: LinExpr.variable(v) for v in variables}
    guard_rows: List[Constraint] = []
    location = lasso.cutpoint
    for position, step in enumerate(lasso.cycle):
        if not 0 <= step.transition < len(transitions):
            raise _StructureError(
                "cycle step %d: transition index %d out of range"
                % (position, step.transition)
            )
        transition = transitions[step.transition]
        if transition.source != location:
            raise _StructureError(
                "cycle step %d: transition leaves %s, not %s"
                % (position, transition.source, location)
            )
        conjuncts = dnf_conjunctions(transition.guard)
        if not 0 <= step.conjunct < len(conjuncts):
            raise _StructureError(
                "cycle step %d: guard conjunct %d out of range"
                % (position, step.conjunct)
            )
        for row in conjuncts[step.conjunct]:
            pulled = row.substitute(state)
            if pulled.is_trivially_false():
                raise _StructureError(
                    "cycle step %d: chosen guard conjunct is infeasible"
                    % position
                )
            if not pulled.is_trivially_true():
                guard_rows.append(pulled)
        havocs = {v for v, expr in transition.updates.items() if expr is None}
        if set(step.choices) != havocs:
            raise _StructureError(
                "cycle step %d: choices %s do not match havocs %s"
                % (position, sorted(step.choices), sorted(havocs))
            )
        new_state = dict(state)
        for v in variables:
            if v not in transition.updates:
                continue
            expr = transition.updates[v]
            if expr is None:
                choice = step.choices[v]
                if not choice.variables() <= set(variables):
                    raise _StructureError(
                        "cycle step %d: choice for %s mentions non-program "
                        "variables" % (position, v)
                    )
                new_state[v] = choice
            else:
                new_state[v] = expr.substitute(state)
        state = new_state
        location = transition.target
    if location != lasso.cutpoint:
        raise _StructureError(
            "cycle ends at %s, not at the cutpoint %s"
            % (location, lasso.cutpoint)
        )
    return guard_rows, state


def _integrality_note(
    automaton: ControlFlowAutomaton, f_map: Dict[str, LinExpr]
) -> Optional[str]:
    """Why ``F`` might not preserve integer states, or ``None`` if it does."""
    integers = automaton.integer_variables
    for v in integers:
        expr = f_map[v]
        if expr.constant_term.denominator != 1:
            return "F(%s) has a non-integral constant" % v
        for name, coeff in expr.terms.items():
            if name not in integers:
                return "F(%s) depends on non-integer variable %s" % (v, name)
            if coeff.denominator != 1:
                return "F(%s) has a non-integral coefficient on %s" % (v, name)
    return None


def _replay(
    automaton: ControlFlowAutomaton, lasso: Lasso
) -> Optional[ObligationFailure]:
    """Step-execute the lasso; an :class:`ObligationFailure` on the first
    divergence from the automaton semantics, else ``None``."""
    variables = list(automaton.variables)
    integers = automaton.integer_variables
    transitions = automaton.transitions

    def fail(case: str, state: Dict[str, Fraction]) -> ObligationFailure:
        return ObligationFailure(
            source=automaton.initial_location,
            target=lasso.cutpoint,
            case=case,
            witness={name: str(value) for name, value in state.items()},
        )

    missing = [v for v in variables if v not in lasso.initial]
    state = {v: Fraction(lasso.initial.get(v, 0)) for v in variables}
    if missing:
        return fail("replay: initial state missing %s" % sorted(missing), state)
    for v in integers:
        if state[v].denominator != 1:
            return fail("replay: initial value of %s not integral" % v, state)
    if not _holds(automaton.initial_condition, state):
        return fail("replay: initial condition violated", state)

    location = automaton.initial_location
    for position, step in enumerate(lasso.stem):
        if not 0 <= step.transition < len(transitions):
            return fail(
                "replay: stem step %d transition index out of range" % position,
                state,
            )
        transition = transitions[step.transition]
        if transition.source != location:
            return fail(
                "replay: stem step %d leaves %s, not %s"
                % (position, transition.source, location),
                state,
            )
        if not _holds(transition.guard, state):
            return fail(
                "replay: stem step %d guard not enabled" % position, state
            )
        new_state = dict(state)
        for v, expr in transition.updates.items():
            if expr is None:
                if v not in step.choices:
                    return fail(
                        "replay: stem step %d missing choice for %s"
                        % (position, v),
                        state,
                    )
                value = step.choices[v]
                if v in integers and value.denominator != 1:
                    return fail(
                        "replay: stem step %d non-integral choice for %s"
                        % (position, v),
                        state,
                    )
                new_state[v] = value
            else:
                new_state[v] = expr.evaluate(state)
        state = new_state
        location = transition.target
    if location != lasso.cutpoint:
        return fail(
            "replay: stem ends at %s, not at the cutpoint" % location, state
        )
    for row in lasso.rows:
        if not row.satisfied_by(state):
            return fail("replay: stem lands outside S (%s)" % (row,), state)

    for iteration in range(REPLAY_ITERATIONS):
        entry = dict(state)
        for position, step in enumerate(lasso.cycle):
            transition = transitions[step.transition]
            if transition.source != location:
                return fail(
                    "replay: cycle step %d leaves %s, not %s"
                    % (position, transition.source, location),
                    state,
                )
            if not _holds(transition.guard, state):
                return fail(
                    "replay: iteration %d cycle step %d guard not enabled"
                    % (iteration + 1, position),
                    state,
                )
            new_state = dict(state)
            for v, expr in transition.updates.items():
                if expr is None:
                    new_state[v] = step.choices[v].evaluate(entry)
                else:
                    new_state[v] = expr.evaluate(state)
            state = new_state
            location = transition.target
        for row in lasso.rows:
            if not row.satisfied_by(state):
                return fail(
                    "replay: iteration %d escapes S (%s)"
                    % (iteration + 1, row),
                    state,
                )
        for v in integers:
            if state[v].denominator != 1:
                return fail(
                    "replay: iteration %d leaves %s non-integral"
                    % (iteration + 1, v),
                    state,
                )
    return None


def check_recurrence(
    automaton: ControlFlowAutomaton,
    lasso: Lasso,
    row_budget: int = farkas.DEFAULT_ROW_BUDGET,
) -> CertificateVerdict:
    """Re-verify the nontermination witness *lasso* against *automaton*.

    Returns a :class:`~repro.checking.checker.CertificateVerdict` whose
    ``status`` is ``valid`` (closure Farkas-proved *and* replay passed),
    ``invalid`` (a refutable claim, with witnesses in ``failures``) or
    ``inconclusive`` (a budget or integrality limitation).
    """
    verdict = CertificateVerdict(
        status=CertificateVerdict.VALID,
        dimension=len(lasso.rows),
        blocks=len(lasso.cycle),
    )
    variables = set(automaton.variables)
    if lasso.cutpoint not in automaton.locations:
        verdict.status = CertificateVerdict.INVALID
        verdict.failures.append(
            ObligationFailure(
                source="*",
                target=lasso.cutpoint,
                case="cutpoint is not a location of the automaton",
            )
        )
        return verdict
    for row in lasso.rows:
        if not row.variables() <= variables:
            verdict.status = CertificateVerdict.INVALID
            verdict.failures.append(
                ObligationFailure(
                    source="*",
                    target=lasso.cutpoint,
                    case="recurrence row mentions non-program variables: %s"
                    % (row,),
                )
            )
            return verdict

    try:
        guard_rows, f_map = _rebuild_pass(automaton, lasso)
    except _StructureError as error:
        verdict.status = CertificateVerdict.INVALID
        verdict.failures.append(
            ObligationFailure(
                source="*", target=lasso.cutpoint, case=str(error)
            )
        )
        return verdict

    inconclusive = False
    note = _integrality_note(automaton, f_map)
    if note is not None:
        verdict.notes.append(note)
        inconclusive = True

    def is_integer(name: str) -> bool:
        return name in automaton.integer_variables

    base = farkas.tighten_integer_strict(list(lasso.rows), is_integer)
    images = [row.substitute(f_map) for row in lasso.rows]
    for label, obligation in [
        ("cycle guard not enabled on S", guard_rows),
        ("S not closed under the pass", images),
    ]:
        for row in obligation:
            if row.is_trivially_true():
                continue
            for branch in _negate_branches(row):
                verdict.obligations += 1
                system = base + farkas.tighten_integer_strict(
                    [branch], is_integer
                )
                try:
                    decision = farkas.decide_system(system, row_budget)
                except farkas.FarkasBudgetExceeded as error:
                    verdict.notes.append(str(error))
                    inconclusive = True
                    continue
                if isinstance(decision, farkas.Refutation):
                    verdict.refuted += 1
                    continue
                witness = decision
                if not witness.is_integral(
                    [name for name in witness.assignment if is_integer(name)]
                ):
                    inconclusive = True
                    verdict.notes.append(
                        "%s (%s) admits only a non-integral witness"
                        % (label, row)
                    )
                    continue
                verdict.failures.append(
                    ObligationFailure(
                        source=lasso.cutpoint,
                        target=lasso.cutpoint,
                        case="%s: %s" % (label, row),
                        witness=witness.to_dict(),
                    )
                )

    verdict.obligations += 1
    replay_failure = _replay(automaton, lasso)
    if replay_failure is None:
        verdict.refuted += 1
    else:
        verdict.failures.append(replay_failure)

    if verdict.failures:
        verdict.status = CertificateVerdict.INVALID
    elif inconclusive:
        verdict.status = CertificateVerdict.INCONCLUSIVE
    return verdict
