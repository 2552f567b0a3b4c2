"""Branch-and-bound limits fall back to the rational relaxation, counted.

The one integer query of the SMT layer — a conjunction check that
declares integer variables, which only the nontermination engine makes —
solves through :func:`repro.smt.theory.solve`, which catches
:class:`BranchAndBoundLimit` and answers with the rational relaxation
instead.  The fallback is counted as ``lp.ilp.bb_limit_fallbacks``.  On
systems whose relaxation optimum is integral the answer must not change.
"""

import pytest

import repro.smt.theory as theory
from repro.linexpr.expr import var
from repro.lp.branch_bound import BranchAndBoundLimit
from repro.metrics import recording
from repro.smt.theory import check_conjunction

x, y = var("x"), var("y")


def _limit(*args, **kwargs):
    raise BranchAndBoundLimit("node budget exhausted")


def _check():
    result = check_conjunction(
        [x >= 1, x <= 5, y >= x, y <= 7], integer_variables={"x", "y"}
    )
    return result.satisfiable, result.model, result.core


@pytest.mark.parametrize(
    "query,fallbacks",
    [(_check, 1)],
    ids=["theory"],
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
