"""CEGIS synthesis of recurrence sets (the nontermination engine).

A program is nonterminating iff some *recurrence set* exists (Gupta et
al., POPL 2008): a set ``S`` of states at a cutpoint that is non-empty,
reachable from an initial state, and from which every state can take one
pass around a cycle and land back in ``S``.  This engine searches for a
polyhedral ``S`` with the same counterexample-guided shape as the
ranking-function loop in :mod:`repro.synthesis`:

1. **Candidate** — pick a cutpoint, a simple cycle through it, one DNF
   conjunct of each guard and an affine resolution ``sigma`` for every
   havoc (:func:`~repro.nontermination.templates.sigma_candidates`).
   Forward substitution turns the pass into an affine map ``F`` and the
   pulled-back guards into the initial candidate ``S``.
2. **Verify** — look for an *escaping* state: a model of
   ``S and not r(F(x))`` for some row ``r`` of ``S``, decided exactly
   over the integers by :func:`repro.smt.theory.check_conjunction`.
3. **Refine** — the escaping state is the counterexample.  First try to
   cut it off with a syntactic pool row
   (:func:`~repro.nontermination.templates.candidate_pool`); only then
   fall back to the weakest-precondition row ``r(F(x))`` itself.  An
   infeasible candidate or a non-progressing refinement discards the
   candidate; a closed one proceeds to the stem search.
4. **Stem** — a bounded symbolic execution from the initial location to
   the cutpoint (fresh variables for havocs) conjoined with ``S`` yields
   a concrete initial state and concrete havoc choices.

Cycles and stems come from one bounded walk (:meth:`RecurrenceSynthesizer.
_paths`), guards are pulled back through a symbolic state by one helper
(:func:`_pull_back`), and the self-replay runs stem and cycle through one
concrete step (:meth:`RecurrenceSynthesizer._step`).

Success is packaged as a :class:`~repro.nontermination.witness.Lasso`
and **self-replayed** before being returned, so an engine bug fails the
search rather than emitting a bogus witness; the independent replay
lives in :func:`repro.checking.recurrence.check_recurrence`, which this
package never imports.

Everything here is *sound by construction*: nondeterminism is angelic
for nontermination, closure is decided exactly, and the final verdict
additionally rests on the checker's Farkas re-proof.  The engine is
deliberately incomplete — fixed caps bound candidates, cycles,
refinements and stems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import And, Atom, Formula, Or, _Constant, negate_constraint
from repro.linexpr.transform import dnf_conjunctions
from repro.metrics import count
from repro.nontermination.templates import candidate_pool, sigma_candidates
from repro.nontermination.witness import CycleStep, Lasso, StemStep
from repro.program.automaton import ControlFlowAutomaton
from repro.program.cutset import compute_cutset
from repro.program.transition import Transition
from repro.smt.theory import check_conjunction
from repro.synthesis.engine import CegisEvent, CegisObserver

#: Full candidates (cycle x conjuncts x sigma) examined per program.
CANDIDATE_BUDGET = 64
#: Longest simple cycle (in transitions) considered at a cutpoint.
MAX_CYCLE_LENGTH = 8
#: Simple cycles enumerated per cutpoint.
MAX_CYCLE_PATHS = 16
#: Refinement iterations per candidate before giving it up.
MAX_REFINEMENTS = 24
#: Longest stem path (in transitions) from the initial location.
MAX_STEM_LENGTH = 12
#: Stem paths enumerated per cutpoint.
MAX_STEM_PATHS = 64
#: Guard-conjunct combinations solved per stem path.
MAX_STEM_CANDIDATES = 24
#: Concrete cycle iterations unrolled by the engine's self-replay.
REPLAY_ITERATIONS = 2


def evaluate_formula(formula: Formula, state: Dict[str, Fraction]) -> bool:
    """Concrete truth of *formula* under a total assignment *state*."""
    if isinstance(formula, _Constant):
        return formula.value
    if isinstance(formula, Atom):
        return formula.constraint.satisfied_by(state)
    if isinstance(formula, And):
        return all(evaluate_formula(op, state) for op in formula.operands)
    if isinstance(formula, Or):
        return any(evaluate_formula(op, state) for op in formula.operands)
    raise TypeError("unknown formula node %r" % (formula,))


def _pull_back(
    rows: Sequence[Constraint], state: Mapping[str, LinExpr]
) -> Optional[List[Constraint]]:
    """*rows* over the symbolic *state*: trivially true ones dropped,
    ``None`` if one is trivially false."""
    pulled_rows = []
    for row in rows:
        pulled = row.substitute(state)
        if pulled.is_trivially_false():
            return None
        if not pulled.is_trivially_true():
            pulled_rows.append(pulled)
    return pulled_rows


@dataclass
class NontermResult:
    """Outcome of the recurrence-set search."""

    success: bool
    lasso: Optional[Lasso] = None
    iterations: int = 0
    message: str = ""


class RecurrenceSynthesizer:
    """One recurrence-set search over a :class:`ControlFlowAutomaton`.

    The search counts its ``candidates``, ``refinements``, ``escapes``
    and ``stems`` as ``nontermination.engine.*`` (:mod:`repro.metrics`).
    """

    def __init__(
        self,
        automaton: ControlFlowAutomaton,
        observers: Sequence[CegisObserver] = (),
    ):
        self.automaton = automaton
        self.observers = tuple(obs for obs in observers if obs is not None)
        self._candidates = 0
        self._refinements = 0
        self._variables = list(automaton.variables)
        self._integer = set(automaton.integer_variables)
        self._pool = candidate_pool(automaton)
        self._conjunct_cache: Dict[int, List[List[Constraint]]] = {}
        self._transition_index = {
            id(transition): index
            for index, transition in enumerate(automaton.transitions)
        }

    # -- plumbing ----------------------------------------------------------------

    def _emit(self, kind: str, **payload) -> None:
        if not self.observers:
            return
        event = CegisEvent(kind, 0, self._candidates, payload)
        for observer in self.observers:
            observer(event)

    def _conjunctions(self, formula: Formula) -> List[List[Constraint]]:
        """The raw DNF conjuncts of a guard or the initial condition,
        cached per formula.

        The list is *never* filtered: a :class:`CycleStep` records its
        conjunct by index, and the checker rebuilds the same list from
        the same deterministic expansion.
        """
        key = id(formula)
        cached = self._conjunct_cache.get(key)
        if cached is None:
            cached = dnf_conjunctions(formula)
            self._conjunct_cache[key] = cached
        return cached

    # -- the search --------------------------------------------------------------

    def synthesize(self) -> NontermResult:
        if not self.automaton.has_cycle():
            return self._finish(False, None, "control-flow graph is acyclic")
        cutpoints = [
            location
            for location in compute_cutset(self.automaton)
            if location in self.automaton.reachable_locations()
        ]
        self._emit("nonterm_start", cutpoints=list(cutpoints))
        candidates = (
            (cutpoint, path, candidate)
            for cutpoint in cutpoints
            for path in self._paths(
                cutpoint, cutpoint, MAX_CYCLE_LENGTH, MAX_CYCLE_PATHS
            )
            for candidate in self._cycle_candidates(path)
        )
        for cutpoint, path, (rows, f_map, steps) in candidates:
            if self._candidates >= CANDIDATE_BUDGET:
                message = "candidate budget exhausted"
                break
            self._candidates += 1
            count("nontermination.engine.candidates")
            self._emit("nonterm_candidate", cutpoint=cutpoint, length=len(path))
            closed = self._refine(rows, f_map)
            if closed is None:
                continue
            self._emit("nonterm_closed", cutpoint=cutpoint, rows=len(closed))
            stem = self._find_stem(cutpoint, closed)
            if stem is None:
                continue
            initial, stem_steps = stem
            lasso = Lasso(
                cutpoint=cutpoint,
                rows=list(closed),
                initial=initial,
                stem=stem_steps,
                cycle=list(steps),
            )
            if not self._replays(lasso):
                continue
            self._emit("nonterm_success", cutpoint=cutpoint, rows=len(closed))
            return self._finish(True, lasso, "recurrence set found")
        else:
            message = "no recurrence set found within budget"
        return self._finish(False, None, message)

    def _finish(
        self, success: bool, lasso: Optional[Lasso], message: str
    ) -> NontermResult:
        self._emit("nonterm_end", success=success, message=message)
        return NontermResult(
            success=success,
            lasso=lasso,
            iterations=self._refinements,
            message=message,
        )

    # -- paths -------------------------------------------------------------------

    def _paths(
        self, source: str, target: str, max_length: int, max_paths: int
    ) -> List[List[Transition]]:
        """Paths from *source* that end on entering *target*, shortest first.

        A bounded depth-first walk over the outgoing transitions in
        automaton order keeps the first *max_paths* paths of at most
        *max_length* transitions that enter no location twice; the sort
        is stable.  With ``source == target`` these are the simple
        cycles through it, otherwise the acyclic stems into *target*.
        """
        results: List[List[Transition]] = []

        def visit(location: str, path: List[Transition], visited) -> None:
            for transition in self.automaton.outgoing(location):
                if len(results) >= max_paths:
                    return
                if transition.target == target:
                    results.append(path + [transition])
                elif (
                    transition.target not in visited
                    and len(path) + 1 < max_length
                ):
                    visit(
                        transition.target,
                        path + [transition],
                        visited | {transition.target},
                    )

        visit(source, [], {source})
        results.sort(key=len)
        return results

    def _cycle_candidates(
        self, path: List[Transition]
    ) -> Iterator[Tuple[List[Constraint], Dict[str, LinExpr], List[CycleStep]]]:
        """All (guard rows, affine map, steps) instantiations of *path*.

        The symbolic state starts as the identity over the program
        variables; each step pulls its chosen guard conjunct back to the
        cycle-entry state and substitutes either the update expression or
        the chosen ``sigma`` for every variable, so the final state *is*
        the affine map ``F`` of the whole pass.
        """
        identity = {v: LinExpr.variable(v) for v in self._variables}

        def walk(index, state, rows, steps):
            if index == len(path):
                yield list(rows), dict(state), list(steps)
                return
            transition = path[index]
            t_index = self._transition_index[id(transition)]
            for c_index, conjunct in enumerate(self._conjunctions(transition.guard)):
                pulled = _pull_back(conjunct, state)
                if pulled is None:
                    continue
                havocs = sorted(
                    v for v, expr in transition.updates.items() if expr is None
                )
                menus = [sigma_candidates(v, state[v]) for v in havocs]
                for combo in itertools.product(*menus):
                    choices = dict(zip(havocs, combo))
                    new_state = {}
                    for v in self._variables:
                        if v in transition.updates:
                            expr = transition.updates[v]
                            new_state[v] = (
                                choices[v]
                                if expr is None
                                else expr.substitute(state)
                            )
                        else:
                            new_state[v] = state[v]
                    steps.append(
                        CycleStep(
                            transition=t_index,
                            conjunct=c_index,
                            choices=dict(choices),
                        )
                    )
                    yield from walk(index + 1, new_state, rows + pulled, steps)
                    steps.pop()

        yield from walk(0, identity, [], [])

    # -- closure refinement ------------------------------------------------------

    def _refine(
        self, rows: List[Constraint], f_map: Dict[str, LinExpr]
    ) -> Optional[List[Constraint]]:
        """Refine the candidate until closed under ``F``, or give up."""
        S: List[Constraint] = []
        seen = set()

        def add(row: Constraint) -> str:
            if row.is_trivially_true():
                return "dup"
            if row.is_trivially_false():
                return "infeasible"
            key = row.normalized()
            if key in seen:
                return "dup"
            seen.add(key)
            S.append(row)
            return "added"

        for row in rows:
            if add(row) == "infeasible":
                return None

        for _ in range(MAX_REFINEMENTS):
            self._refinements += 1
            count("nontermination.engine.refinements")
            if S:
                feasible = check_conjunction(S, integer_variables=self._integer)
                if not feasible.satisfiable:
                    return None
            escape = self._find_escape(S, f_map)
            if escape is None:
                return S
            count("nontermination.engine.escapes")
            model, violated = escape
            state = {
                v: model.get(v, Fraction(0)) for v in self._variables
            }
            self._emit(
                "nonterm_escape",
                state={name: str(value) for name, value in state.items()},
            )
            progressed = False
            for pool_row in self._pool:
                if pool_row.normalized() in seen:
                    continue
                if not pool_row.satisfied_by(state):
                    status = add(pool_row)
                    if status == "infeasible":
                        return None
                    if status == "added":
                        progressed = True
                        break
            if not progressed:
                # Weakest-precondition fallback: require the violated row
                # to also hold after the pass.
                if add(violated.substitute(f_map)) != "added":
                    return None
        return None

    def _find_escape(
        self, S: List[Constraint], f_map: Dict[str, LinExpr]
    ) -> Optional[Tuple[Dict[str, Fraction], Constraint]]:
        """A state of ``S`` whose image escapes some row, or ``None``."""
        for row in S:
            negation = negate_constraint(row.substitute(f_map))
            atoms = negation.operands if isinstance(negation, Or) else (negation,)
            for branch in (atom.constraint for atom in atoms):
                if branch.is_trivially_false():
                    continue
                if branch.is_trivially_true():
                    # The row can never hold after the pass; any state of
                    # S (known feasible) escapes.
                    witness = check_conjunction(
                        S, integer_variables=self._integer
                    )
                    return witness.model, row
                result = check_conjunction(
                    S + [branch], integer_variables=self._integer
                )
                if result.satisfiable:
                    return result.model, row
        return None

    # -- stem search -------------------------------------------------------------

    def _find_stem(
        self, cutpoint: str, S: List[Constraint]
    ) -> Optional[Tuple[Dict[str, Fraction], List[StemStep]]]:
        """A concrete initial state + havoc choices landing in ``S``."""
        initial_location = self.automaton.initial_location
        paths = (
            [[]]
            if initial_location == cutpoint
            else self._paths(
                initial_location, cutpoint, MAX_STEM_LENGTH, MAX_STEM_PATHS
            )
        )
        base_map = {v: "%s@stem0" % v for v in self._variables}
        for path in paths:
            for rows, slots_by_step, integer_names in self._stem_attempts(
                path, S, base_map
            ):
                count("nontermination.engine.stems")
                result = check_conjunction(
                    rows, integer_variables=integer_names
                )
                if not result.satisfiable:
                    continue
                model = result.model
                initial = {
                    v: model.get(base_map[v], Fraction(0))
                    for v in self._variables
                }
                steps = [
                    StemStep(
                        transition=t_index,
                        choices={
                            v: model.get(name, Fraction(0))
                            for v, name in slots.items()
                        },
                    )
                    for t_index, slots in slots_by_step
                ]
                self._emit("nonterm_stem", length=len(path))
                return initial, steps
        return None

    def _stem_attempts(
        self,
        path: List[Transition],
        S: List[Constraint],
        base_map: Dict[str, str],
    ) -> Iterator[Tuple[List[Constraint], List[Tuple[int, Dict[str, str]]], set]]:
        """Constraint systems for one stem path, one per conjunct combo.

        The symbolic state starts as fresh ``v@stem0`` copies of the
        program variables; a havoc at step ``i`` gets a fresh ``v@stem<i>``.
        """
        produced = 0

        def walk(index, state, rows, slots_by_step, integer_names):
            nonlocal produced
            if produced >= MAX_STEM_CANDIDATES:
                return
            if index == len(path):
                pulled = _pull_back(S, state)
                if pulled is None:
                    return
                produced += 1
                yield rows + pulled, list(slots_by_step), set(integer_names)
                return
            transition = path[index]
            t_index = self._transition_index[id(transition)]
            for conjunct in self._conjunctions(transition.guard):
                pulled = _pull_back(conjunct, state)
                if pulled is None:
                    continue
                new_state = dict(state)
                new_integers = set(integer_names)
                slots: Dict[str, str] = {}
                for v in self._variables:
                    if v not in transition.updates:
                        continue
                    expr = transition.updates[v]
                    if expr is None:
                        name = "%s@stem%d" % (v, index + 1)
                        slots[v] = name
                        new_state[v] = LinExpr.variable(name)
                        if v in self._integer:
                            new_integers.add(name)
                    else:
                        new_state[v] = expr.substitute(state)
                slots_by_step.append((t_index, slots))
                yield from walk(
                    index + 1, new_state, rows + pulled, slots_by_step, new_integers
                )
                slots_by_step.pop()

        state0 = {v: LinExpr.variable(base_map[v]) for v in self._variables}
        integers0 = {base_map[v] for v in self._variables if v in self._integer}
        for conjunct in self._conjunctions(self.automaton.initial_condition):
            rows0 = _pull_back(conjunct, state0)
            if rows0 is not None:
                yield from walk(0, state0, rows0, [], integers0)

    # -- self-replay -------------------------------------------------------------

    def _step(
        self,
        location: str,
        state: Dict[str, Fraction],
        index: int,
        choices: Mapping[str, Fraction],
    ) -> Optional[Tuple[str, Dict[str, Fraction]]]:
        """Take transition *index* from (*location*, *state*), with each
        havoc set from *choices*; ``None`` if it cannot be taken."""
        transitions = self.automaton.transitions
        if not 0 <= index < len(transitions):
            return None
        transition = transitions[index]
        if transition.source != location:
            return None
        if not evaluate_formula(transition.guard, state):
            return None
        new_state = dict(state)
        for v, expr in transition.updates.items():
            if expr is not None:
                new_state[v] = expr.evaluate(state)
            elif v in choices:
                new_state[v] = choices[v]
            else:
                return None
        return transition.target, new_state

    def _replays(self, lasso: Lasso) -> bool:
        """Concretely execute the lasso before handing it out.

        The stem, then :data:`REPLAY_ITERATIONS` passes around the cycle,
        must each end at the cutpoint inside ``S``, with every integer
        variable integral.  Guards against engine bugs only — the
        authoritative replay is the independent checker's.
        """
        state = {
            v: Fraction(lasso.initial.get(v, 0)) for v in self._variables
        }
        if not evaluate_formula(self.automaton.initial_condition, state):
            return False
        location = self.automaton.initial_location
        for steps in [lasso.stem] + [lasso.cycle] * REPLAY_ITERATIONS:
            entry = state
            for step in steps:
                choices = step.choices
                if isinstance(step, CycleStep):
                    choices = {
                        v: expr.evaluate(entry) for v, expr in choices.items()
                    }
                moved = self._step(location, state, step.transition, choices)
                if moved is None:
                    return False
                location, state = moved
            if location != lasso.cutpoint:
                return False
            if not all(row.satisfied_by(state) for row in lasso.rows):
                return False
            if any(state[v].denominator != 1 for v in self._integer):
                return False
        return True


def synthesize_recurrence(
    automaton: ControlFlowAutomaton,
    observers: Sequence[CegisObserver] = (),
) -> NontermResult:
    """Search for a recurrence set of *automaton*; see the module doc."""
    return RecurrenceSynthesizer(automaton, observers=observers).synthesize()
