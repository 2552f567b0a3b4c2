"""Tests for the bound axioms the encoder adds between parallel atoms."""

from hypothesis import given, settings, strategies as st

import repro.smt.solver as solver_module
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import var
from repro.linexpr.formula import And, Or
from repro.metrics import recording
from repro.smt.cnf import CnfEncoder
from repro.smt.sat import SatSolver
from repro.smt.solver import SmtSolver
from repro.smt.theory import check_conjunction

x, y = var("x"), var("y")


def axioms_between(first: Constraint, second: Constraint) -> int:
    encoder = CnfEncoder(SatSolver())
    with recording() as counters:
        encoder.atom_literal(first)
        encoder.atom_literal(second)
    return counters.get("smt.solver.bound_axioms", 0)


small = st.integers(min_value=-4, max_value=4)
scale = st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.sampled_from([k, -k])
)


@st.composite
def parallel_pair(draw):
    """Two atoms on one direction, each scaled by ±k, any relation."""
    a, b = draw(small), draw(small)
    if a == 0 and b == 0:
        a = 1
    form = a * x + b * y
    return tuple(
        Constraint(form * draw(scale) + draw(small), draw(st.sampled_from(Relation)))
        for _ in range(2)
    )


class TestBoundAxioms:
    @given(parallel_pair())
    @settings(max_examples=300, deadline=None)
    def test_axiom_iff_the_pair_is_unsat(self, pair):
        unsat = not check_conjunction(list(pair)).satisfiable
        assert axioms_between(*pair) == (1 if unsat else 0)

    def test_only_parallel_atoms_are_compared(self):
        assert axioms_between(x <= 0, y >= 1) == 0
        assert axioms_between(x + y <= 0, x - y >= 1) == 0
        assert axioms_between(x + y <= 0, 2 * x + 2 * y >= 1) == 1

    def test_touching_bounds(self):
        assert axioms_between(x <= 0, x >= 0) == 0
        assert axioms_between(x < 0, x >= 0) == 1
        assert axioms_between(x.eq(0), x > 0) == 1
        assert axioms_between(x.eq(0), x.eq(1)) == 1

    def test_parallel_conflicts_skip_the_theory(self, monkeypatch):
        calls = []
        real = solver_module.check_conjunction

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "check_conjunction", counting)
        solver = SmtSolver()
        solver.assert_formula(And([x >= 3, Or([x <= 1, 2 * x <= 4])]))
        assert solver.check().is_unsat
        assert calls == []

    def test_integer_mode_keeps_rational_disjointness(self):
        # 2x ≥ 1 and 2x ≤ 1 share the rational x = 1/2: no axiom, even
        # though no integer lies in between.  Axioms are rational facts.
        assert axioms_between(2 * x >= 1, 2 * x <= 1) == 0
