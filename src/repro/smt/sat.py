"""A small CDCL SAT solver.

Literals are non-zero integers (DIMACS convention: ``v`` is the positive
literal of variable ``v``, ``-v`` its negation).  The solver implements

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* non-chronological backjumping,
* a VSIDS-style activity heuristic with phase saving, whose decisions
  come from a lazy heap.

``solve`` takes *assumptions*, MiniSat-style (Eén & Sörensson, SAT 2003):
literals decided first, true for that call only.  A guard variable
assumed true switches on the clauses it guards for one query; the clauses
learned under it stay valid, because they follow from the clause database
alone.

It is deliberately compact: the boolean structure of a large-block
transition relation is small (tens to a few hundred clauses), and the
heavy lifting of the reproduction happens in the theory solver.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple


class SatSolver:
    """An incremental CDCL solver over integer literals."""

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}
        self._assignment: Dict[int, bool] = {}
        self._level: Dict[int, int] = {}
        self._reason: Dict[int, Optional[int]] = {}
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._activity: Dict[int, float] = {}
        self._phase: Dict[int, bool] = {}
        self._activity_increment = 1.0
        # Decision candidates keyed (-activity, variable): the top valid
        # entry is the scan's choice, the lowest index of maximal activity.
        # Entries go stale when a variable is bumped or assigned; every
        # unassigned variable keeps one entry with its current activity.
        self._heap: List[Tuple[float, int]] = []
        # Units learned above level 0 (under assumptions), re-asserted at
        # level 0 when the call returns.
        self._learned_units: List[int] = []
        self._unsatisfiable = False
        self._processed = 0

    # -- problem construction ------------------------------------------------

    def new_variable(self) -> int:
        """Allocate a fresh propositional variable and return its index."""
        self._num_vars += 1
        index = self._num_vars
        self._activity[index] = 0.0
        self._phase[index] = False
        heapq.heappush(self._heap, (-0.0, index))
        return index

    @property
    def num_variables(self) -> int:
        return self._num_vars

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause; returns False when it makes the problem trivially UNSAT."""
        if self._unsatisfiable:
            return False
        self._backtrack_to(0)
        unique: List[int] = []
        seen = set()
        for literal in literals:
            if literal == 0:
                raise ValueError("0 is not a literal")
            while abs(literal) > self._num_vars:
                self.new_variable()
            if -literal in seen:
                return True  # tautology, always satisfied
            if literal not in seen:
                seen.add(literal)
                unique.append(literal)
        if not unique:
            self._unsatisfiable = True
            return False
        # Drop literals already false at level 0 and detect satisfied clauses.
        filtered: List[int] = []
        for literal in unique:
            value = self._value(literal)
            if value is True:
                return True
            if value is False:
                continue
            filtered.append(literal)
        if not filtered:
            self._unsatisfiable = True
            return False
        if len(filtered) == 1:
            if not self._enqueue(filtered[0], None):
                self._unsatisfiable = True
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._unsatisfiable = True
                return False
            return True
        index = len(self._clauses)
        self._clauses.append(filtered)
        self._watch(filtered[0], index)
        self._watch(filtered[1], index)
        return True

    # -- solving ---------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> Optional[Dict[int, bool]]:
        """Return a satisfying assignment (variable → bool) or None for UNSAT.

        The assignment is total over the allocated variables.  *assumptions*
        are literals assumed true for this call only; ``None`` under
        assumptions says nothing about later calls without them.
        """
        model = self._search(assumptions)
        self._assert_learned_units()
        return model

    def _search(self, assumptions: Sequence[int]) -> Optional[Dict[int, bool]]:
        if self._unsatisfiable:
            return None
        self._backtrack_to(0)
        conflict = self._propagate()
        if conflict is not None:
            self._unsatisfiable = True
            return None

        for literal in assumptions:
            value = self._value(literal)
            if value is True:
                continue
            if value is False:
                return None
            self._new_decision_level()
            self._enqueue(literal, None)
            conflict = self._propagate()
            if conflict is not None:
                self._backtrack_to(0)
                return None
        assumption_level = self._decision_level()

        while True:
            conflict = self._propagate()
            if conflict is not None:
                if self._decision_level() <= assumption_level:
                    self._backtrack_to(0)
                    if assumption_level == 0:
                        self._unsatisfiable = True
                    return None
                learned, backjump_level = self._analyze(conflict)
                if backjump_level < assumption_level:
                    backjump_level = assumption_level
                self._backtrack_to(backjump_level)
                self._learn(learned)
                self._decay_activities()
            else:
                literal = self._pick_branch_literal()
                if literal is None:
                    model = {
                        var: self._assignment.get(var, self._phase.get(var, False))
                        for var in range(1, self._num_vars + 1)
                    }
                    self._backtrack_to(0)
                    return model
                self._new_decision_level()
                self._enqueue(literal, None)

    # -- internals ---------------------------------------------------------------

    def _assert_learned_units(self) -> None:
        """Keep the units learned under assumptions, at level 0.

        A learned clause follows from the clause database alone, so its
        unit holds without the assumptions it was found under.
        """
        units, self._learned_units = self._learned_units, []
        if not units or self._unsatisfiable:
            return
        self._backtrack_to(0)
        if not all(self._enqueue(literal, None) for literal in units):
            self._unsatisfiable = True
        elif self._propagate() is not None:
            self._unsatisfiable = True

    def _value(self, literal: int) -> Optional[bool]:
        assigned = self._assignment.get(abs(literal))
        if assigned is None:
            return None
        return assigned if literal > 0 else not assigned

    def _watch(self, literal: int, clause_index: int) -> None:
        self._watches.setdefault(literal, []).append(clause_index)

    def _enqueue(self, literal: int, reason: Optional[int]) -> bool:
        value = self._value(literal)
        if value is not None:
            return value
        variable = abs(literal)
        self._assignment[variable] = literal > 0
        self._phase[variable] = literal > 0
        self._level[variable] = self._decision_level()
        self._reason[variable] = reason
        self._trail.append(literal)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_limits)

    def _new_decision_level(self) -> None:
        self._trail_limits.append(len(self._trail))

    def _backtrack_to(self, level: int) -> None:
        while self._decision_level() > level:
            limit = self._trail_limits.pop()
            while len(self._trail) > limit:
                literal = self._trail.pop()
                variable = abs(literal)
                del self._assignment[variable]
                self._level.pop(variable, None)
                self._reason.pop(variable, None)
                heapq.heappush(self._heap, (-self._activity[variable], variable))
        if self._processed > len(self._trail):
            self._processed = len(self._trail)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        queue_index = self._processed
        while queue_index < len(self._trail):
            literal = self._trail[queue_index]
            queue_index += 1
            self._processed = queue_index
            conflict = self._propagate_literal(-literal)
            if conflict is not None:
                return conflict
        self._processed = len(self._trail)
        return None

    def _propagate_literal(self, false_literal: int) -> Optional[int]:
        watching = self._watches.get(false_literal, [])
        index = 0
        while index < len(watching):
            clause_index = watching[index]
            clause = self._clauses[clause_index]
            # Ensure the false literal sits at position 1.
            if clause[0] == false_literal:
                clause[0], clause[1] = clause[1], clause[0]
            first = clause[0]
            if self._value(first) is True:
                index += 1
                continue
            # Look for a replacement watch.
            replacement = None
            for position in range(2, len(clause)):
                if self._value(clause[position]) is not False:
                    replacement = position
                    break
            if replacement is not None:
                clause[1], clause[replacement] = clause[replacement], clause[1]
                watching[index] = watching[-1]
                watching.pop()
                self._watch(clause[1], clause_index)
                continue
            # Clause is unit or conflicting.
            if self._value(first) is False:
                return clause_index
            self._enqueue(first, clause_index)
            index += 1
        return None

    def _analyze(self, conflict_index: int):
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        learned: List[int] = []
        seen = set()
        counter = 0
        literal = None
        clause = list(self._clauses[conflict_index])
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            for clause_literal in clause:
                if literal is not None and clause_literal == literal:
                    continue
                variable = abs(clause_literal)
                if variable in seen:
                    continue
                if self._level.get(variable, 0) == 0:
                    continue
                seen.add(variable)
                self._bump_activity(variable)
                if self._level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next literal on the trail to resolve on.
            while True:
                literal = self._trail[trail_index]
                trail_index -= 1
                if abs(literal) in seen:
                    break
            counter -= 1
            seen.discard(abs(literal))
            if counter == 0:
                break
            reason_index = self._reason.get(abs(literal))
            clause = list(self._clauses[reason_index]) if reason_index is not None else []
        learned.insert(0, -literal)

        if len(learned) == 1:
            return learned, 0
        backjump = max(self._level[abs(lit)] for lit in learned[1:])
        return learned, backjump

    def _learn(self, learned: List[int]) -> None:
        if len(learned) == 1:
            if self._decision_level() > 0:
                self._learned_units.append(learned[0])
            self._enqueue(learned[0], None)
            return
        # Place a literal from the backjump level in the second watch slot.
        backjump = max(self._level.get(abs(lit), 0) for lit in learned[1:])
        for position in range(1, len(learned)):
            if self._level.get(abs(learned[position]), 0) == backjump:
                learned[1], learned[position] = learned[position], learned[1]
                break
        index = len(self._clauses)
        self._clauses.append(learned)
        self._watch(learned[0], index)
        self._watch(learned[1], index)
        self._enqueue(learned[0], index)

    def _pick_branch_literal(self) -> Optional[int]:
        if len(self._heap) > 4 * self._num_vars + 64:
            self._rebuild_heap()  # mostly stale entries
        heap = self._heap
        while heap:
            negated, variable = heapq.heappop(heap)
            if variable in self._assignment or -negated != self._activity[variable]:
                continue  # stale: assigned, or bumped since it was pushed
            preferred = self._phase.get(variable, False)
            return variable if preferred else -variable
        return None

    def _rebuild_heap(self) -> None:
        self._heap = [
            (-self._activity[variable], variable)
            for variable in range(1, self._num_vars + 1)
            if variable not in self._assignment
        ]
        heapq.heapify(self._heap)

    def _bump_activity(self, variable: int) -> None:
        self._activity[variable] += self._activity_increment
        if self._activity[variable] > 1e100:
            for key in self._activity:
                self._activity[key] *= 1e-100
            self._activity_increment *= 1e-100
            self._rebuild_heap()
        elif variable not in self._assignment:
            heapq.heappush(self._heap, (-self._activity[variable], variable))

    def _decay_activities(self) -> None:
        self._activity_increment /= 0.95
