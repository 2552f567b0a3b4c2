"""The lazy DPLL(T) loop.

:class:`SmtSolver` ties together the propositional abstraction
(:mod:`repro.smt.cnf`), the CDCL SAT core (:mod:`repro.smt.sat`) and the
linear-arithmetic theory solver (:mod:`repro.smt.theory`):

1. the asserted formulas are Tseitin-encoded,
2. the SAT core proposes a boolean model,
3. the linear atoms assigned by that model are checked for consistency,
4. an inconsistent assignment is blocked through its unsat core — the
   support of the simplex's own infeasibility certificate, checked
   exactly (:mod:`repro.smt.theory`) — and the loop continues until
   either a theory-consistent model is found or the propositional
   abstraction becomes unsatisfiable.

Each atom is lowered to its simplex rows once, when the encoder gives it
its literal, into the context's :class:`~repro.smt.theory.AtomTable`; a
theory check gathers the stored rows of the justified atoms instead of
converting them again.

One solver is one long-lived context.  Formulas asserted without a
guard hold for every query; a formula asserted under a *guard* (a fresh
boolean variable, assumed true in each SAT call until :meth:`retire`)
holds only while the guard is active.  Blocking clauses are theory
tautologies, so every lemma learned under one guard keeps pruning the
queries after it.

The ``smt.solver.*`` counters (:mod:`repro.metrics`) record SAT calls,
theory checks and conflicts, and how each conflict was blocked:
``farkas_cores`` through a checked certificate's core, ``core_fallbacks``
through the whole assignment; ``bound_axioms`` counts the clauses
:mod:`repro.smt.cnf` adds between disjoint parallel bounds, and
``round_cap_hits`` the checks that gave up (:class:`TheoryRoundLimit`).
``smt.theory.atoms_lowered`` counts the atoms each context lowered and
``smt.theory.rows`` the rows its theory checks were handed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.linexpr.constraint import Constraint
from repro.linexpr.formula import (
    And,
    Atom,
    FALSE,
    Formula,
    Or,
    TRUE,
    atom,
)
from repro.linexpr.transform import formula_variables
from repro.metrics import count
from repro.smt.cnf import CnfEncoder
from repro.smt.sat import SatSolver
from repro.smt.theory import AtomTable, check_conjunction


#: Theory/SAT rounds one check may take before it gives up.
MAX_THEORY_ROUNDS = 10_000


class TheoryRoundLimit(RuntimeError):
    """The theory/SAT refinement did not converge within its round cap."""


class SmtStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SmtResult:
    """Outcome of a satisfiability check."""

    status: SmtStatus
    model: Dict[str, Fraction] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is SmtStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SmtStatus.UNSAT


class SmtSolver:
    """Lazy SMT solver for quantifier-free linear arithmetic."""

    def __init__(self) -> None:
        self._sat = SatSolver()
        self._atoms = AtomTable()
        self._encoder = CnfEncoder(self._sat, self._atoms)
        self._free_variables: Set[str] = set()
        self._roots: List[Formula] = []
        # Active guard → the formulas it switches on and their variables.
        self._guarded: Dict[int, Tuple[List[Formula], Set[str]]] = {}

    # -- problem construction ---------------------------------------------------

    def assert_formula(self, formula, guard: Optional[int] = None) -> None:
        """Conjoin *formula* (a Formula or a bare Constraint) to the assertions.

        With a *guard* from :meth:`new_guard` the formula holds only until
        the guard is retired; without one it holds for good.  Formulas
        are in negation normal form by construction, so it is encoded as
        given, one Tseitin variable per node of its DAG.
        """
        node = atom(formula)
        if guard is None:
            self._free_variables |= formula_variables(node)
            self._roots.append(node)
            self._encoder.assert_formula(node)
            return
        roots, variables = self._guarded[guard]
        variables |= formula_variables(node)
        roots.append(node)
        self._sat.add_clause([-guard, self._encoder.encode(node)])

    def new_guard(self) -> int:
        """A fresh guard literal, active until :meth:`retire`."""
        guard = self._sat.new_variable()
        self._guarded[guard] = ([], set())
        return guard

    def retire(self, guard: int) -> None:
        """Switch *guard*'s formulas off for good; learned clauses stay."""
        del self._guarded[guard]
        self._sat.add_clause([-guard])

    # -- solving -------------------------------------------------------------------

    def check(self) -> SmtResult:
        """Decide satisfiability of the asserted conjunction."""
        assignment = self._next_consistent_assignment()
        if assignment is None:
            return SmtResult(SmtStatus.UNSAT)
        _, theory_model = assignment
        return SmtResult(SmtStatus.SAT, model=self._complete_model(theory_model))

    def assignment(
        self,
    ) -> Optional[Tuple[List[Constraint], Dict[str, Fraction]]]:
        """One theory-consistent assignment, or ``None`` when unsatisfiable.

        The pair is ``(asserted constraints, model)``: the theory literals
        made true by the boolean model — one disjunct of the assertions —
        and a model of them.  The optimising layer minimises inside it.
        """
        assignment = self._next_consistent_assignment()
        if assignment is None:
            return None
        literals, model = assignment
        return self._constraints_of(literals), self._complete_model(model)

    # -- internals --------------------------------------------------------------------

    def _next_consistent_assignment(
        self,
    ) -> Optional[Tuple[List[int], Dict[str, Fraction]]]:
        iterations = 0
        while True:
            iterations += 1
            if iterations > MAX_THEORY_ROUNDS:
                count("smt.solver.round_cap_hits")
                raise TheoryRoundLimit(
                    "theory/SAT refinement did not converge within %d rounds"
                    % MAX_THEORY_ROUNDS
                )
            count("smt.solver.sat_calls")
            boolean_model = self._sat.solve(list(self._guarded))
            if boolean_model is None:
                return None
            literals = self._theory_literals(boolean_model)
            constraints = self._constraints_of(literals)
            count("smt.solver.theory_calls")
            count("smt.theory.rows", len(constraints))
            outcome = check_conjunction(constraints, atoms=self._atoms)
            if outcome.satisfiable:
                return literals, outcome.model
            count("smt.solver.theory_conflicts")
            if outcome.certified:
                count("smt.solver.farkas_cores")
                core_literals = [literals[index] for index in outcome.core]
            else:
                # No checked certificate: blocking the whole assignment is
                # always sound, only weaker.
                count("smt.solver.core_fallbacks")
                core_literals = literals
            self._sat.add_clause([-literal for literal in core_literals])

    def _theory_literals(self, boolean_model: Dict[int, bool]) -> List[int]:
        """A *justification*: atoms sufficient to make every assertion true.

        Formulas are NNF, so every atom occurs with positive polarity only,
        so the assertions are monotone in their atoms and it is enough to
        collect, for each asserted formula, the atoms of one satisfied
        branch (the first true child of every disjunction under the current
        boolean model).  This keeps the theory conjunction the size of one
        program path — exactly the disjunct the paper's algorithm reasons
        about — instead of the whole formula, and it makes theory conflicts
        and their blocking clauses much smaller.
        """
        justified: Dict[int, None] = {}
        visited: Set[int] = set()
        holds: Dict[int, bool] = {}
        for root in self._active_roots():
            self._justify(root, boolean_model, justified, visited, holds)
        return list(justified)

    def _active_roots(self) -> List[Formula]:
        """The permanent assertions, then those of the active guards."""
        roots = list(self._roots)
        for guarded, _ in self._guarded.values():
            roots.extend(guarded)
        return roots

    def _justify(
        self,
        node: Formula,
        boolean_model: Dict[int, bool],
        justified: Dict[int, None],
        visited: Set[int],
        holds: Dict[int, bool],
    ) -> None:
        """Justify *node*, once per theory check: a node shared by several
        parents adds its atoms on its first visit, so later visits add
        nothing and may be skipped."""
        if node is TRUE or id(node) in visited:
            return
        visited.add(id(node))
        if isinstance(node, Atom):
            constraint = node.constraint
            if constraint.is_trivially_true():
                return
            justified.setdefault(self._encoder.atom_literal(constraint))
            return
        if isinstance(node, And):
            for child in node.operands:
                self._justify(child, boolean_model, justified, visited, holds)
            return
        if isinstance(node, Or):
            for child in node.operands:
                if self._holds(child, boolean_model, holds):
                    self._justify(child, boolean_model, justified, visited, holds)
                    return
            # No child is boolean-true (can only happen through rounding of
            # don't-care variables); fall back to the first child.
            self._justify(node.operands[0], boolean_model, justified, visited, holds)
            return
        raise TypeError("unexpected formula node %r in justification" % (node,))

    def _holds(
        self, node: Formula, boolean_model: Dict[int, bool], holds: Dict[int, bool]
    ) -> bool:
        """Evaluate a (monotone, NNF) formula under the boolean model;
        *holds* caches the truth of each node visited in this check."""
        if node is TRUE:
            return True
        if node is FALSE:
            return False
        value = holds.get(id(node))
        if value is not None:
            return value
        if isinstance(node, Atom):
            if node.constraint.is_trivially_true():
                value = True
            elif node.constraint.is_trivially_false():
                value = False
            else:
                literal = self._encoder.atom_literal(node.constraint)
                value = bool(boolean_model.get(literal))
        elif isinstance(node, And):
            value = all(self._holds(child, boolean_model, holds) for child in node.operands)
        elif isinstance(node, Or):
            value = any(self._holds(child, boolean_model, holds) for child in node.operands)
        else:
            raise TypeError("unexpected formula node %r in evaluation" % (node,))
        holds[id(node)] = value
        return value

    def _constraints_of(self, literals: Sequence[int]) -> List[Constraint]:
        """The atoms of the justified literals, which are all positive."""
        return [self._encoder.constraint_of(literal) for literal in literals]

    def _complete_model(self, theory_model: Dict[str, Fraction]) -> Dict[str, Fraction]:
        model = dict(theory_model)
        for name in self.free_variables:
            model.setdefault(name, Fraction(0))
        return model

    # -- helpers exposed to the optimiser -----------------------------------------------

    @property
    def atoms(self) -> AtomTable:
        """The context's lowered atoms."""
        return self._atoms

    @property
    def free_variables(self) -> Set[str]:
        """The variables of the permanent and the active assertions."""
        names = set(self._free_variables)
        for _, variables in self._guarded.values():
            names |= variables
        return names
