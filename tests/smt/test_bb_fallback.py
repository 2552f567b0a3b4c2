"""Branch-and-bound limits fall back to the rational relaxation, counted.

Both integer sites of the SMT layer — the OMT minimisation and the
theory check — catch :class:`BranchAndBoundLimit` and answer with the
rational relaxation instead.  The fallback is sound for the synthesis
loop, but it is counted as ``lp.ilp.bb_limit_fallbacks``.  On systems
whose relaxation optimum is integral the answer must not change.
"""

import pytest

import repro.smt.optimize as optimize
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
    "module,query",
    [(optimize, _minimize), (theory, _check)],
    ids=["optimize", "theory"],
)
def test_limit_falls_back_and_is_counted(module, query, monkeypatch):
    with recording() as counters:
        expected = query()
    assert "lp.ilp.bb_limit_fallbacks" not in counters

    monkeypatch.setattr(module, "solve_ilp", _limit)
    with recording() as counters:
        fallback = query()
    assert counters["lp.ilp.bb_limit_fallbacks"] == 1
    assert fallback == expected
