"""Exact linear programming over the rationals.

The module provides a two-phase primal simplex working entirely with
:class:`fractions.Fraction`, plus a branch-and-bound wrapper for (mixed)
integer programs.  It is the workhorse behind

* the ``LP(V, Constraints(I))`` instances of Definition 11 of the paper,
* the theory solver of the lazy SMT solver (:mod:`repro.smt`),
* the Farkas-based baseline synthesisers.
"""

from repro.lp.problem import (
    LinearProgram,
    LinearRow,
    LpResult,
    LpStatus,
    Sense,
)
from repro.lp.simplex import SimplexState, solve_lp
from repro.lp.branch_bound import solve_ilp

__all__ = [
    "LinearProgram",
    "LinearRow",
    "LpResult",
    "LpStatus",
    "Sense",
    "SimplexState",
    "solve_lp",
    "solve_ilp",
]
