"""Optimisation modulo theory (OMT).

The synthesis loop of the paper asks the SMT solver to *minimise* ``λ·u``
over the models of ``I ∧ τ ∧ AvoidSpace(u, B)`` so that the returned
counterexample is extremal — a vertex of (one disjunct of) the convex hull
of one-step differences, or a ray when the objective is unbounded
(section 4.2 of the paper).

The search is *local*: take the first theory-consistent disjunct found by
the lazy solver and minimise inside it.  The objective may depend on the
disjunct: the synthesis oracle passes a callable that reads the block
selector off the disjunct's model and returns that block's ``λ·u`` with
``u`` substituted by the block's map.  The witness is a generator of
that disjunct's polyhedron, which is all the termination argument of the
paper needs, and it is what keeps the query cheap.

One :class:`OptimizingSmtSolver` is one SMT context.  The fixed part of a
sequence of queries (``I ∧ τ``) is asserted once; each query passes its
own formulas as ``scoped``, asserted under a guard for that call only, so
the theory lemmas of earlier queries keep pruning the later ones.  The
minimisation reads the closure rows of the disjunct's atoms from the
context's atom table (:class:`~repro.smt.theory.AtomTable`), where the
DPLL(T) checks before it lowered them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, Optional, Sequence, Union

from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.lp.problem import LinearRow, LpStatus, Sense
from repro.lp.simplex import solve_lp
from repro.metrics import count
from repro.smt.solver import SmtSolver, SmtStatus


@dataclass
class OptimizationResult:
    """Result of minimising an objective over the models of a formula."""

    status: SmtStatus
    model: Dict[str, Fraction] = field(default_factory=dict)
    objective_value: Optional[Fraction] = None
    unbounded: bool = False
    ray: Dict[str, Fraction] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is SmtStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SmtStatus.UNSAT


class OptimizingSmtSolver:
    """Minimise a linear objective over the models of asserted formulas."""

    def __init__(self) -> None:
        self._solver = SmtSolver()

    # -- construction ------------------------------------------------------------

    def assert_formula(self, formula) -> None:
        """Conjoin *formula* (a Formula or a bare Constraint) for good."""
        self._solver.assert_formula(formula)

    # -- queries --------------------------------------------------------------------

    def check(self, scoped: Sequence = ()) -> OptimizationResult:
        """Plain satisfiability of the assertions and *scoped*."""
        with self._scope(scoped):
            result = self._solver.check()
        return OptimizationResult(result.status, model=result.model)

    def minimize(
        self,
        objective: Union[LinExpr, Callable[[Dict[str, Fraction]], LinExpr]],
        scoped: Sequence = (),
    ) -> OptimizationResult:
        """Minimise *objective* in the first theory-consistent disjunct.

        The disjunct satisfies the assertions and, for this call only, the
        formulas of *scoped*.  The result is an extremal model, or a ray
        when the objective is unbounded below in that disjunct.  A
        callable *objective* gets the disjunct's model and returns it.
        """
        count("smt.optimize.queries")
        with self._scope(scoped):
            assignment = self._solver.assignment()
        if assignment is None:
            return OptimizationResult(SmtStatus.UNSAT)
        count("smt.optimize.assignments_explored")
        constraints, model = assignment
        if callable(objective):
            objective = objective(model)
        return self._minimize_in_disjunct(objective, constraints, model)

    # -- internals ---------------------------------------------------------------------

    @contextmanager
    def _scope(self, scoped: Sequence) -> Iterator[None]:
        """Assert *scoped* under a fresh guard, retired on exit."""
        if not scoped:
            yield
            return
        guard = self._solver.new_guard()
        try:
            for formula in scoped:
                self._solver.assert_formula(formula, guard=guard)
            yield
        finally:
            self._solver.retire(guard)

    def _minimize_in_disjunct(
        self,
        objective: LinExpr,
        constraints: Sequence[Constraint],
        fallback_model: Dict[str, Fraction],
    ) -> OptimizationResult:
        """Minimise the objective inside one theory-consistent conjunction."""
        table = self._solver.atoms
        atoms = [table.lower(constraint) for constraint in constraints]
        rows = [atom.row for atom in atoms]
        closure = [atom.closure for atom in atoms]
        names = sorted(
            set(fallback_model)
            | {name for row in closure for name in row.names}
            | set(objective.variables())
        )
        outcome = solve_lp(objective, closure, Sense.MINIMIZE, names)

        if outcome.status is LpStatus.UNBOUNDED:
            ray = {
                name: value
                for name, value in outcome.ray.items()
                if value != 0
            }
            model = self._complete(outcome.assignment or fallback_model, names)
            if not self._satisfies(rows, model):
                model = self._complete(fallback_model, names)
            value = objective.evaluate(model)
            return OptimizationResult(
                SmtStatus.SAT,
                model=model,
                objective_value=value,
                unbounded=True,
                ray=ray,
            )

        if outcome.status is LpStatus.OPTIMAL:
            model = self._complete(outcome.assignment, names)
            if self._satisfies(rows, model):
                return OptimizationResult(
                    SmtStatus.SAT,
                    model=model,
                    objective_value=outcome.objective,
                )
        # The optimum of the closure violates a strict constraint (it can
        # only come from an AvoidSpace atom); fall back to the theory model,
        # which satisfies every literal of the assignment.
        model = self._complete(fallback_model, names)
        value = objective.evaluate(model)
        return OptimizationResult(
            SmtStatus.SAT, model=model, objective_value=value
        )

    @staticmethod
    def _satisfies(rows: Sequence[LinearRow], model: Dict[str, Fraction]) -> bool:
        try:
            return all(row.satisfied_by(model) for row in rows)
        except KeyError:
            return False

    @staticmethod
    def _complete(
        model: Dict[str, Fraction], names: Sequence[str]
    ) -> Dict[str, Fraction]:
        completed = dict(model)
        for name in names:
            completed.setdefault(name, Fraction(0))
        return completed
