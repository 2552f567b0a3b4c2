"""The abstract-interpretation engine.

A standard worklist algorithm over the control-flow automaton:

* abstract values are propagated along transitions with the domain's
  transfer functions (guard, assignments, havoc),
* at *widening points* (by default the cut-set of the automaton) the new
  value is widened against the previous one, guaranteeing termination,
* once the ascending iteration stabilises, a bounded number of descending
  (narrowing) iterations recovers some precision lost to widening.

The output is an :class:`~repro.invariants.invariant_map.InvariantMap`
with one polyhedron per reachable location.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.invariants.domain import AbstractDomain
from repro.invariants.invariant_map import InvariantMap
from repro.invariants.polyhedra_domain import PolyhedraDomain
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import TRUE
from repro.linexpr.transform import dnf_conjunctions
from repro.program.automaton import ControlFlowAutomaton
from repro.program.cutset import compute_cutset
from repro.program.transition import Transition


class InvariantAnalyzer:
    """Forward reachability analysis parameterised by an abstract domain."""

    def __init__(
        self,
        automaton: ControlFlowAutomaton,
        domain: Optional[AbstractDomain] = None,
        widening_points: Optional[Sequence[str]] = None,
        widening_delay: int = 2,
        descending_iterations: int = 1,
        max_iterations: int = 10_000,
    ):
        self.automaton = automaton
        if domain is None:
            domain = PolyhedraDomain(
                automaton.variables,
                automaton.integer_variables,
                thresholds=_guard_thresholds(automaton),
            )
        self.domain = domain
        self.widening_points = set(
            widening_points
            if widening_points is not None
            else compute_cutset(automaton)
        )
        self.widening_delay = widening_delay
        self.descending_iterations = descending_iterations
        self.max_iterations = max_iterations

    # -- the public entry point ----------------------------------------------------

    def run(self) -> InvariantMap:
        values = self._ascending_phase()
        for _ in range(self.descending_iterations):
            values = self._descending_pass(values)
        invariants = InvariantMap(self.automaton.variables)
        for location, value in values.items():
            invariants.set(
                location, self.domain.to_polyhedron(value).minimized()
            )
        return invariants

    # -- iteration phases --------------------------------------------------------------

    def _initial_values(self) -> Dict[str, object]:
        values: Dict[str, object] = {
            location: self.domain.bottom()
            for location in self.automaton.locations
        }
        condition = self.automaton.initial_condition
        if condition is TRUE:
            initial = self.domain.top()
        else:
            # Every disjunct of the initial condition is a possible start.
            initial = self.domain.bottom()
            for conjunct in dnf_conjunctions(condition):
                initial = self.domain.join(
                    initial, self.domain.constrain(self.domain.top(), conjunct)
                )
        values[self.automaton.initial_location] = initial
        return values

    def _ascending_phase(self) -> Dict[str, object]:
        values = self._initial_values()
        visit_count: Dict[str, int] = {}
        worklist: List[str] = [self.automaton.initial_location]
        iterations = 0
        while worklist:
            iterations += 1
            if iterations > self.max_iterations:
                raise RuntimeError(
                    "invariant analysis did not converge within %d steps"
                    % self.max_iterations
                )
            location = worklist.pop(0)
            for transition in self.automaton.outgoing(location):
                contribution = self._post(values[location], transition)
                if self.domain.is_bottom(contribution):
                    continue
                target = transition.target
                previous = values[target]
                if self.domain.includes(previous, contribution):
                    continue
                joined = self.domain.join(previous, contribution)
                if target in self.widening_points:
                    visit_count[target] = visit_count.get(target, 0) + 1
                    if visit_count[target] > self.widening_delay:
                        joined = self.domain.widen(previous, joined)
                values[target] = joined
                if target not in worklist:
                    worklist.append(target)
        return values

    def _descending_pass(self, values: Dict[str, object]) -> Dict[str, object]:
        refined = dict(values)
        for location in sorted(self.automaton.locations):
            if location == self.automaton.initial_location:
                continue
            incoming = self.automaton.incoming(location)
            if not incoming:
                continue
            recomputed = self.domain.bottom()
            for transition in incoming:
                contribution = self._post(refined[transition.source], transition)
                recomputed = self.domain.join(recomputed, contribution)
            refined[location] = self.domain.narrow(values[location], recomputed)
        return refined

    # -- transfer function ------------------------------------------------------------------

    def _post(self, value: object, transition: Transition) -> object:
        if self.domain.is_bottom(value):
            return value
        guard_constraints = transition.guard_constraints()
        if guard_constraints is None:
            # Disjunctive or quantified guard: analyse each disjunct and join,
            # which keeps the transfer function sound and reasonably precise.
            disjuncts = dnf_conjunctions(transition.guard)
            result = self.domain.bottom()
            for conjunct in disjuncts:
                constrained = self.domain.constrain(value, conjunct)
                result = self.domain.join(
                    result, self._apply_updates(constrained, transition)
                )
            return result
        constrained = self.domain.constrain(value, guard_constraints)
        return self._apply_updates(constrained, transition)

    def _apply_updates(self, value: object, transition: Transition) -> object:
        if self.domain.is_bottom(value):
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
                    result = self.domain.havoc(result, name)
                else:
                    result = self.domain.assign(result, name, expression)
            return result
        # Simultaneous update via the polyhedron fallback: this is exact for
        # the polyhedra domain and a sound approximation for boxes.
        polyhedron = self.domain.to_polyhedron(result)
        staged = {}
        for name, expression in transition.updates.items():
            if expression is None:
                polyhedron = polyhedron.havoc(name)
            else:
                staged[name] = expression
        if staged:
            stage_names = {name: name + "!stage" for name in staged}
            extended = polyhedron.extend_space(
                list(polyhedron.variables) + list(stage_names.values())
            )
            for name, expression in staged.items():
                extended = extended.assign(
                    stage_names[name], expression
                )
            for name in staged:
                extended = extended.assign(
                    name, LinExpr.variable(stage_names[name])
                )
            polyhedron = extended.project(self.domain.variables)
        converted = self.domain.constrain(self.domain.top(), polyhedron.constraints)
        return converted


def _guard_thresholds(automaton: ControlFlowAutomaton):
    """Widening-up-to thresholds: the guard constraints of the program.

    These are the constraints Aspic/Pagai would typically keep across
    widening; using them recovers loop bounds such as ``i ≤ 4`` that plain
    widening throws away.
    """
    from repro.linexpr.transform import formula_atoms

    integer_variables = automaton.integer_variables
    thresholds = []
    sources = [automaton.initial_condition] + [
        transition.guard for transition in automaton.transitions
    ]
    for formula in sources:
        for constraint in formula_atoms(formula):
            prepared = constraint
            if constraint.is_strict() and constraint.variables() <= integer_variables:
                prepared = constraint.tighten_for_integers()
            thresholds.append(prepared.weaken())
    return thresholds


def compute_invariants(
    automaton: ControlFlowAutomaton,
    domain: Optional[AbstractDomain] = None,
    **options,
) -> InvariantMap:
    """Convenience wrapper: run the analyzer with default settings."""
    return InvariantAnalyzer(automaton, domain, **options).run()
