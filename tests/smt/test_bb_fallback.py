"""Branch-and-bound limits fall back to the rational relaxation, counted.

Both integer queries of the SMT layer — the OMT minimisation and the
theory check — solve through :func:`repro.smt.theory.solve`, which
catches :class:`BranchAndBoundLimit` and answers with the rational
relaxation instead.  The fallback is sound for the synthesis loop, but
it is counted as ``lp.ilp.bb_limit_fallbacks``; the OMT query's count
includes the theory checks of its DPLL(T) search.  On systems whose
relaxation optimum is integral the answer must not change.
"""

import pytest

import repro.smt.theory as theory
from repro.linexpr.expr import var
from repro.linexpr.formula import And
from repro.lp.branch_bound import BranchAndBoundLimit
from repro.metrics import recording
from repro.smt.optimize import OptimizingSmtSolver
from repro.smt.theory import check_conjunction

x, y = var("x"), var("y")


def _limit(*args, **kwargs):
    raise BranchAndBoundLimit("node budget exhausted")


def _minimize():
    solver = OptimizingSmtSolver(integer_variables=["x", "y"])
    solver.assert_formula(And([x >= 3, x <= 9, y >= x]))
    result = solver.minimize(x + y)
    return result.status, result.objective_value, result.model


def _check():
    result = check_conjunction(
        [x >= 1, x <= 5, y >= x, y <= 7], integer_variables={"x", "y"}
    )
    return result.satisfiable, result.model, result.core


@pytest.mark.parametrize(
    "query,fallbacks",
    # The OMT query: one theory check of its only Boolean assignment,
    # then one minimisation inside that disjunct.
    [(_minimize, 2), (_check, 1)],
    ids=["optimize", "theory"],
)
def test_limit_falls_back_and_is_counted(query, fallbacks, monkeypatch):
    with recording() as counters:
        expected = query()
    assert "lp.ilp.bb_limit_fallbacks" not in counters

    monkeypatch.setattr(theory, "solve_ilp", _limit)
    with recording() as counters:
        fallback = query()
    assert counters["lp.ilp.bb_limit_fallbacks"] == fallbacks
    assert fallback == expected
