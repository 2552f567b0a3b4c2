"""A lazy SMT solver for linear arithmetic, with optimisation.

This is the reproduction's stand-in for Z3: the synthesis algorithm needs

* satisfiability of formulas built from ∧ / ∨ / ∃ over linear atoms
  (the large-block transition relations of the paper),
* models (values of the program variables before and after a transition),
* *optimisation* modulo theory — minimise ``λ·u`` so counterexamples are
  extremal (vertices of the convex hull of one-step differences), and
* detection of unbounded objectives, returning the improving **ray**.

Architecture (classic lazy SMT / DPLL(T)):

``NNF formula DAG → Tseitin CNF (one variable per node) → CDCL SAT core``; every
boolean model is checked for theory consistency by an exact-simplex
theory solver; theory conflicts are returned as unsat cores and blocked.
Every SMT context is rational; a direct conjunction check may declare
integer variables, which branch and bound then decides inside the theory
solver.  Parallel bounds get static *bound axioms* when their atoms are
encoded, and one solver serves a whole sequence of queries: per-query
formulas sit under guard literals passed as SAT assumptions.
"""

from repro.smt.solver import SmtResult, SmtSolver, SmtStatus, TheoryRoundLimit
from repro.smt.optimize import OptimizationResult, OptimizingSmtSolver
from repro.smt.theory import TheoryResult, check_conjunction

__all__ = [
    "SmtSolver",
    "SmtResult",
    "SmtStatus",
    "TheoryRoundLimit",
    "OptimizingSmtSolver",
    "OptimizationResult",
    "TheoryResult",
    "check_conjunction",
]
