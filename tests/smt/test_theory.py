"""Tests for the linear-arithmetic theory solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import repro.smt.theory as theory
from repro.checking.farkas import is_infeasible, tighten_integer_strict
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr, var
from repro.linexpr.formula import And, Or
from repro.metrics import recording
from repro.smt.solver import SmtSolver
from repro.smt.theory import check_conjunction

x, y = var("x"), var("y")


class TestSatisfiable:
    def test_simple(self):
        result = check_conjunction([x >= 0, x <= 5])
        assert result.satisfiable
        assert 0 <= result.model["x"] <= 5

    def test_strict_rational(self):
        result = check_conjunction([x > 0, x < 1])
        assert result.satisfiable
        assert 0 < result.model["x"] < 1

    def test_strict_integer_tightened(self):
        result = check_conjunction([x > 0, x < 2], integer_variables={"x"})
        assert result.satisfiable
        assert result.model["x"] == 1

    def test_integer_model_integral(self):
        result = check_conjunction(
            [2 * x >= 1, 2 * x <= 5], integer_variables={"x"}
        )
        assert result.satisfiable
        assert result.model["x"].denominator == 1

    def test_model_satisfies_all(self):
        constraints = [x + y <= 4, x - y >= 1, y >= 0]
        result = check_conjunction(constraints)
        assert result.satisfiable
        for constraint in constraints:
            assert constraint.satisfied_by(result.model)


class TestUnsatisfiable:
    def test_simple_conflict(self):
        result = check_conjunction([x >= 1, x <= 0])
        assert not result.satisfiable

    def test_strict_boundary(self):
        result = check_conjunction([x > 0, x < 0])
        assert not result.satisfiable
        assert result.core == [0, 1] and result.certified

    def test_strict_rational_gap(self):
        # 0 < x < 1 has no integer solution.
        result = check_conjunction([x > 0, x < 1], integer_variables={"x"})
        assert not result.satisfiable

    def test_trivially_false(self):
        result = check_conjunction([x * 0 >= 1])
        assert not result.satisfiable
        assert result.core == [0]

    def test_core_is_unsat_and_minimal(self):
        constraints = [x >= 0, y >= 0, x <= 5, x >= 10]
        result = check_conjunction(constraints)
        assert not result.satisfiable and result.certified
        core = [constraints[i] for i in result.core]
        assert not check_conjunction(core).satisfiable
        assert len(core) == 2

    def test_fallback_core_covers_conflict(self):
        # 2x = 1 has a rational solution but no integer one: branch and
        # bound refutes it below the root, so there is no certificate.
        constraints = [(2 * x).eq(1), y >= 0]
        result = check_conjunction(constraints, integer_variables={"x"})
        assert not result.satisfiable
        assert not result.certified
        assert result.core == [0, 1]


# -- differential: Farkas cores against the independent checker -------------------

VARIABLES = ("a", "b", "c")
RELATIONS = (Relation.LE, Relation.LT, Relation.EQ)
small = st.integers(-4, 4)


@st.composite
def infeasible_conjunctions(draw):
    """A random conjunction plus a row contradicting a combination of it.

    ``E = Σ w_i·e_i`` (``w_i ≥ 0``, any sign on equalities) satisfies
    ``E ≤ 0`` — strictly when a strict row has ``w_i > 0`` — on every
    solution, so the added row ``E ≥ 0`` / ``E > 0`` / ``E ≥ 1`` /
    ``E = 1`` makes the whole conjunction rationally infeasible.
    Returns ``(constraints, integer variables)``.
    """
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(small, min_size=3, max_size=3),
                st.integers(-6, 6),
                st.sampled_from(RELATIONS),
            ),
            min_size=1,
            max_size=6,
        )
    )
    constraints = [
        Constraint(LinExpr(dict(zip(VARIABLES, coefficients)), constant), relation)
        for coefficients, constant, relation in rows
    ]
    combined = LinExpr()
    strict = False
    for constraint in constraints:
        weight = draw(
            small if constraint.is_equality() else st.integers(0, 3)
        )
        combined = combined + constraint.expr * weight
        strict = strict or (weight > 0 and constraint.is_strict())
    if strict:
        contradiction = -combined <= 0
    else:
        contradiction = draw(
            st.sampled_from(
                [-combined < 0, 1 - combined <= 0, combined.eq(1)]
            )
        )
    constraints.insert(
        draw(st.integers(0, len(constraints))), contradiction
    )
    integers = draw(
        st.sampled_from([frozenset(), frozenset(VARIABLES), frozenset("a")])
    )
    return constraints, set(integers)


@given(infeasible_conjunctions())
@settings(max_examples=150, deadline=None)
def test_farkas_cores_refute_independently(case):
    constraints, integers = case
    result = check_conjunction(constraints, integers)
    assert not result.satisfiable
    assert result.core
    assert result.core == sorted(set(result.core))
    assert set(result.core) <= set(range(len(constraints)))
    # Purely rational or purely integer inputs never need branch and bound
    # to refute, so the root LP always leaves a certificate.
    if integers != {"a"}:
        assert result.certified
    core = [constraints[index] for index in result.core]
    assert is_infeasible(
        tighten_integer_strict(core, lambda name: name in integers)
    )


# -- tampering and fallbacks -------------------------------------------------------


@pytest.fixture
def tampered(monkeypatch):
    """Make every theory LP report the given multipliers instead of its own."""

    def install(rewrite):
        real = theory.solve_lp

        def solve_lp(*args, **kwargs):
            result = real(*args, **kwargs)
            if result.multipliers is not None:
                result.multipliers = rewrite(result.multipliers)
            return result

        monkeypatch.setattr(theory, "solve_lp", solve_lp)

    return install


class TestCertificateCheck:
    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda weights: [-weight for weight in weights],
            lambda weights: [Fraction(0)] * len(weights),
            lambda weights: [weight + 1 for weight in weights],
        ],
        ids=["negated", "zero", "shifted"],
    )
    def test_wrong_multipliers_fall_back_to_full_core(self, tampered, rewrite):
        tampered(rewrite)
        constraints = [x >= 0, y >= 0, x <= 5, x >= 10]
        result = check_conjunction(constraints)
        assert not result.satisfiable
        assert not result.certified
        assert result.core == [0, 1, 2, 3]

    def test_motzkin_conditions(self):
        # (x − 1) − (x − 2) = 1, but x ≤ 1 ∧ x ≤ 2 is satisfiable: an
        # inequality may not take a negative weight; an equality may.
        assert theory._farkas_core([x <= 1, x <= 2], [1, -1]) is None
        assert theory._farkas_core([x.eq(1), x <= 0], [-1, 1]) == [0, 1]
        # A zero sum refutes only through a strict row.
        assert theory._farkas_core([x <= 0, -x <= 0], [1, 1]) is None
        assert theory._farkas_core([x < 0, -x <= 0], [1, 1]) == [0, 1]

    def test_solver_counts_the_fallback(self, tampered):
        tampered(lambda weights: [-weight for weight in weights])
        solver = SmtSolver()
        solver.assert_formula(And([x >= 3, x <= 1]))
        with recording() as counters:
            assert solver.check().is_unsat
        assert counters["smt.solver.core_fallbacks"] == 1
        assert "smt.solver.farkas_cores" not in counters

    def test_integer_gap_falls_back(self):
        solver = SmtSolver(integer_variables=["x"])
        solver.assert_formula(And([(2 * x).eq(1), y >= 0]))
        with recording() as counters:
            assert solver.check().is_unsat
        assert counters["smt.solver.core_fallbacks"] == 1
        assert "smt.solver.farkas_cores" not in counters

    def test_certified_cores_are_counted(self):
        solver = SmtSolver()
        solver.assert_formula(And([x >= 3, Or([x <= 1, x <= 2]), y >= 0]))
        with recording() as counters:
            assert solver.check().is_unsat
        assert counters["smt.solver.farkas_cores"] == 2
        assert counters["smt.solver.theory_conflicts"] == 2
        assert "smt.solver.core_fallbacks" not in counters


def test_program_theory_calls_pinned(monkeypatch):
    """Farkas cores block whole families of paths at once.

    On ``sorts/bubble_sort`` the DPLL(T) loop of the synthesis needs 31
    theory checks, and the count repeats exactly.  Blocking each conflict
    whole, as a solver without cores for large conflicts does, takes 138.
    The count follows the Farkas certificate the simplex ends on: solving
    with the equality rows left in (no elimination) gives other valid
    multipliers, other cores from the 17th check on, and 32 checks.  The
    certificate stage is off, so the pin measures synthesis alone.
    """
    import repro.smt.solver as solver_module
    from repro.api import Analysis, AnalysisConfig
    from repro.benchsuite import get_suite

    program = next(p for p in get_suite("sorts") if p.name == "bubble_sort")
    calls = []
    real = solver_module.check_conjunction

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_module, "check_conjunction", counting)
    result = Analysis(
        program.build(),
        config=AnalysisConfig(check_certificates=False),
        name=program.name,
    ).run("termite")
    assert result.proved
    assert len(calls) == 31
