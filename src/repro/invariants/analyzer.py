"""The abstract-interpretation engine.

A standard worklist algorithm over the control-flow automaton:

* :class:`~repro.polyhedra.polyhedron.Polyhedron` values are propagated
  along transitions (guard, assignments, havoc); a strict guard row is
  closed by :meth:`~repro.linexpr.constraint.Constraint.closure`, the
  generators of ``value ∧ guard`` are computed once per transition and
  the updates map them, so a transition whose image is full-dimensional
  solves no LP,
* at the *widening points* (the cut-set of the automaton) the new value
  is widened, up to the guard thresholds, against the previous one,
  guaranteeing termination,
* once the ascending iteration stabilises, a descending (narrowing) pass
  recovers some precision lost to widening.  Each transition remembers
  its last post and the source value it was taken from; a post from the
  identical source object is that stored image, so the descending pass
  reuses the ascending phase's final posts from every location it has
  not refined yet (``invariants.analyzer.posts_reused``).

The output is an :class:`~repro.invariants.invariant_map.InvariantMap`
with one polyhedron per location.  Each is minimised only when its
constraints are first read: synthesis reads the cut points alone, so the
other locations' values are never minimised in a build.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.invariants.invariant_map import InvariantMap
from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import TRUE
from repro.linexpr.transform import dnf_conjunctions, formula_atoms
from repro.metrics import count
from repro.polyhedra.polyhedron import Polyhedron
from repro.program.automaton import ControlFlowAutomaton
from repro.program.cutset import compute_cutset
from repro.program.transition import Transition

#: Joins at a widening point before the widening kicks in.
WIDENING_DELAY = 2

#: Descending (narrowing) passes after the ascending phase stabilises.
DESCENDING_ITERATIONS = 1

#: Budget of worklist steps of the ascending phase.
MAX_ITERATIONS = 10_000


class InvariantAnalyzer:
    """Forward reachability analysis over convex polyhedra."""

    def __init__(self, automaton: ControlFlowAutomaton):
        self.automaton = automaton
        self.variables = automaton.variables
        self.thresholds = _guard_thresholds(automaton)
        self.widening_points = set(compute_cutset(automaton))
        #: Per transition (by identity), its last source value and image.
        self._posts: Dict[int, Tuple[Polyhedron, Polyhedron]] = {}

    # -- the public entry point ----------------------------------------------------

    def run(self) -> InvariantMap:
        values = self._ascending_phase()
        for _ in range(DESCENDING_ITERATIONS):
            values = self._descending_pass(values)
        invariants = InvariantMap(self.automaton.variables)
        for location, value in values.items():
            invariants.set(location, value.minimized_when_read())
        return invariants

    # -- iteration phases --------------------------------------------------------------

    def _initial_values(self) -> Dict[str, Polyhedron]:
        values: Dict[str, Polyhedron] = {
            location: Polyhedron.empty(self.variables)
            for location in self.automaton.locations
        }
        condition = self.automaton.initial_condition
        universe = Polyhedron.universe(self.variables)
        if condition is TRUE:
            initial = universe
        else:
            # Every disjunct of the initial condition is a possible start.
            initial = Polyhedron.empty(self.variables)
            for conjunct in dnf_conjunctions(condition):
                initial = initial.join(self._constrain(universe, conjunct))
        values[self.automaton.initial_location] = initial
        return values

    def _ascending_phase(self) -> Dict[str, Polyhedron]:
        values = self._initial_values()
        visit_count: Dict[str, int] = {}
        worklist: List[str] = [self.automaton.initial_location]
        iterations = 0
        while worklist:
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise RuntimeError(
                    "invariant analysis did not converge within %d steps"
                    % MAX_ITERATIONS
                )
            location = worklist.pop(0)
            for transition in self.automaton.outgoing(location):
                contribution = self._post(values[location], transition)
                if contribution.is_empty():
                    continue
                target = transition.target
                previous = values[target]
                if previous.includes(contribution):
                    continue
                joined = previous.join(contribution)
                if target in self.widening_points:
                    visit_count[target] = visit_count.get(target, 0) + 1
                    if visit_count[target] > WIDENING_DELAY:
                        joined = previous.widen(joined, self.thresholds)
                values[target] = joined
                if target not in worklist:
                    worklist.append(target)
        return values

    def _descending_pass(
        self, values: Dict[str, Polyhedron]
    ) -> Dict[str, Polyhedron]:
        refined = dict(values)
        for location in sorted(self.automaton.locations):
            if location == self.automaton.initial_location:
                continue
            incoming = self.automaton.incoming(location)
            if not incoming:
                continue
            recomputed = Polyhedron.empty(self.variables)
            for transition in incoming:
                contribution = self._post(refined[transition.source], transition)
                recomputed = recomputed.join(contribution)
            # Narrowing: the recomputed value is sound on its own; keeping
            # the meet guards against losing the fixpoint property.
            refined[location] = values[location].intersect(recomputed)
        return refined

    # -- transfer function ------------------------------------------------------------------

    def _constrain(
        self, value: Polyhedron, constraints: Iterable[Constraint]
    ) -> Polyhedron:
        """``value ∧ constraints``, with strict rows closed."""
        integer_variables = self.automaton.integer_variables
        return value.intersect_constraints(
            constraint.closure(integer_variables) for constraint in constraints
        )

    def _post(self, value: Polyhedron, transition: Transition) -> Polyhedron:
        """The image of *value* under *transition*; a post from the very
        source object the transition last posted is its stored image
        (polyhedra are immutable, so it is the same value)."""
        stored = self._posts.get(id(transition))
        if stored is not None and stored[0] is value:
            count("invariants.analyzer.posts_reused")
            return stored[1]
        image = self._image(value, transition)
        self._posts[id(transition)] = (value, image)
        return image

    def _image(self, value: Polyhedron, transition: Transition) -> Polyhedron:
        if value.is_empty():
            return value
        guard_constraints = transition.guard_constraints()
        if guard_constraints is None:
            # Disjunctive guard: analyse each disjunct and join,
            # which keeps the transfer function sound and reasonably precise.
            disjuncts = dnf_conjunctions(transition.guard)
            result = Polyhedron.empty(self.variables)
            for conjunct in disjuncts:
                constrained = self._constrain(value, conjunct)
                result = result.join(self._apply_updates(constrained, transition))
            return result
        constrained = self._constrain(value, guard_constraints)
        return self._apply_updates(constrained, transition)

    def _apply_updates(
        self, value: Polyhedron, transition: Transition
    ) -> Polyhedron:
        # One conversion to generators of ``value ∧ guard``: it settles
        # emptiness, the updates map it, and inclusion in the target's
        # value is then tested on the image's generators.  None of these
        # steps solves an LP.
        value.generators()
        if value.is_empty():
            return value
        result = value
        # Updates are simultaneous; stage them through fresh names when a
        # right-hand side mentions a variable that is itself updated.
        updated = set(transition.updates)
        needs_staging = any(
            expression is not None
            and (set(expression.variables()) & updated) - {name}
            for name, expression in transition.updates.items()
        )
        if not needs_staging:
            for name, expression in transition.updates.items():
                if expression is None:
                    result = result.havoc(name)
                else:
                    result = result.assign(name, expression)
            return result
        # Simultaneous update: assign through staged copies, then project.
        staged = {}
        for name, expression in transition.updates.items():
            if expression is None:
                result = result.havoc(name)
            else:
                staged[name] = expression
        stage_names = {name: name + "!stage" for name in staged}
        extended = result.extend_space(
            list(result.variables) + list(stage_names.values())
        )
        for name, expression in staged.items():
            extended = extended.assign(stage_names[name], expression)
        for name in staged:
            extended = extended.assign(name, LinExpr.variable(stage_names[name]))
        return extended.project(self.variables)


def _guard_thresholds(automaton: ControlFlowAutomaton) -> List[Constraint]:
    """Widening-up-to thresholds: the closed guard constraints of the program.

    These are the constraints Aspic/Pagai would typically keep across
    widening; using them recovers loop bounds such as ``i ≤ 4`` that plain
    widening throws away.
    """
    sources = [automaton.initial_condition] + [
        transition.guard for transition in automaton.transitions
    ]
    return [
        constraint.closure(automaton.integer_variables)
        for formula in sources
        for constraint in formula_atoms(formula)
    ]


def compute_invariants(automaton: ControlFlowAutomaton) -> InvariantMap:
    """The polyhedral invariant of every reachable location of *automaton*."""
    return InvariantAnalyzer(automaton).run()
