"""Control-flow automata (integer transition systems)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.linexpr.formula import Formula, TRUE, atom
from repro.program.transition import Transition


class ControlFlowAutomaton:
    """A program: control locations, integer variables, guarded transitions.

    ``initial_condition`` constrains the variables at the initial location
    (the ``assume`` statements of the mini-language or the initial values of
    the paper's examples); it is used by the invariant generator only — the
    synthesiser works relative to whatever invariant it is given.
    """

    def __init__(
        self,
        variables: Sequence[str],
        initial_location: str,
        initial_condition: Formula = TRUE,
        integer_variables: Optional[Iterable[str]] = None,
        name: str = "",
    ):
        #: Human-readable program name (propagated by the front end; used
        #: by the analysis pipeline and the reporting layers for labelling).
        self.name = name
        self.variables: List[str] = list(variables)
        self.initial_location = initial_location
        self.initial_condition = atom(initial_condition)
        self.locations: Set[str] = {initial_location}
        self.transitions: List[Transition] = []
        # By default every program variable ranges over the integers, which
        # is the setting of the paper's benchmarks; rational programs can
        # override this (see §8 "Rational Variables").
        self.integer_variables: Set[str] = (
            set(integer_variables)
            if integer_variables is not None
            else set(variables)
        )

    # -- construction ------------------------------------------------------------

    def add_location(self, name: str) -> str:
        self.locations.add(name)
        return name

    def add_transition(self, transition: Transition) -> Transition:
        unknown = (
            set(transition.updates)
            - set(self.variables)
        )
        if unknown:
            raise ValueError(
                "transition updates unknown variables %s" % sorted(unknown)
            )
        self.locations.add(transition.source)
        self.locations.add(transition.target)
        self.transitions.append(transition)
        return transition

    # -- structure ----------------------------------------------------------------

    def outgoing(self, location: str) -> List[Transition]:
        return [t for t in self.transitions if t.source == location]

    def incoming(self, location: str) -> List[Transition]:
        return [t for t in self.transitions if t.target == location]

    def successors(self, location: str) -> List[str]:
        return sorted({t.target for t in self.outgoing(location)})

    def predecessors(self, location: str) -> List[str]:
        return sorted({t.source for t in self.incoming(location)})

    def reachable_locations(self) -> Set[str]:
        """Locations reachable from the initial location in the CFG."""
        seen: Set[str] = set()
        frontier = [self.initial_location]
        while frontier:
            location = frontier.pop()
            if location in seen:
                continue
            seen.add(location)
            frontier.extend(self.successors(location))
        return seen

    def has_cycle(self) -> bool:
        """Whether the control-flow graph contains a cycle."""
        return bool(self._back_edges())

    def _back_edges(self) -> List[Transition]:
        """Transitions closing a cycle in a DFS from the initial location."""
        color: Dict[str, int] = {}
        back: List[Transition] = []

        def visit(location: str) -> None:
            color[location] = 1
            for transition in self.outgoing(location):
                successor = transition.target
                state = color.get(successor, 0)
                if state == 0:
                    visit(successor)
                elif state == 1:
                    back.append(transition)
            color[location] = 2

        for start in [self.initial_location] + sorted(self.locations):
            if color.get(start, 0) == 0:
                visit(start)
        return back

    # -- misc ----------------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        return {
            "locations": len(self.locations),
            "transitions": len(self.transitions),
            "variables": len(self.variables),
        }

    def __repr__(self) -> str:
        return "ControlFlowAutomaton(%d locations, %d transitions, vars=%s)" % (
            len(self.locations),
            len(self.transitions),
            self.variables,
        )
