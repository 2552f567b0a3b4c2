"""Tests for the linear-arithmetic theory solver."""

import time
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
        # 2x = 1 has a rational solution but no integer one: the gcd test
        # of branch and bound refutes it past the feasible root, so there
        # is no certificate.
        constraints = [(2 * x).eq(1), y >= 0]
        result = check_conjunction(constraints, integer_variables={"x"})
        assert not result.satisfiable
        assert not result.certified
        assert result.core == [0, 1]


class TestIntegerEqualities:
    """An equality whose coefficient gcd does not divide its constant is
    refuted before branch and bound branches."""

    def test_unbounded_gcd_conflict_is_refuted_at_once(self):
        # Rationally feasible and unbounded: branching alone never ends.
        a, b = var("a"), var("b")
        start = time.perf_counter()
        with recording() as counters:
            result = check_conjunction([(2 * a - 2 * b).eq(1)], {"a", "b"})
        assert time.perf_counter() - start < 1.0
        assert not result.satisfiable
        assert not result.certified
        assert result.core == [0]
        assert counters["lp.ilp.equalities_refuted"] == 1
        assert counters["lp.ilp.nodes"] == 1

    def test_equalities_conflicting_only_together_are_refuted(self):
        # Each row alone has integer solutions; a − 2b − (a − 2c) = 1 says
        # 2c − 2b = 1, which has none.
        a, b, c = var("a"), var("b"), var("c")
        start = time.perf_counter()
        with recording() as counters:
            result = check_conjunction(
                [(a - 2 * b).eq(0), (a - 2 * c).eq(1)], {"a", "b", "c"}
            )
        assert time.perf_counter() - start < 1.0
        assert not result.satisfiable
        assert counters["lp.ilp.equalities_refuted"] == 1
        assert counters["lp.ilp.nodes"] == 1

    def test_rows_with_a_rational_variable_are_not_refuted(self):
        a = var("a")
        with recording() as counters:
            result = check_conjunction([(2 * a + 2 * y).eq(1)], {"a"})
        assert result.satisfiable
        assert "lp.ilp.equalities_refuted" not in counters


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


@st.composite
def conjunctions(draw):
    """A random conjunction of strict, non-strict and equality rows.

    Integer variables get the box ``−4 ≤ v ≤ 4``, which keeps branch and
    bound within its node budget and puts every integer variable in the
    model.  The equality step refutes integer-infeasible equalities such
    as ``a − 2b = 0 ∧ a − 2c = 1`` at once, but inequalities with no
    integer point in an unbounded strip are still searched, so the box
    stays.  Returns ``(constraints, integer variables)``.
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
    integers = draw(
        st.sampled_from([frozenset(), frozenset(VARIABLES), frozenset("a")])
    )
    for name in sorted(integers):
        constraints += [var(name) >= -4, var(name) <= 4]
    return constraints, set(integers)


@given(conjunctions())
@settings(max_examples=200, deadline=None)
def test_lowered_rows_agree_with_the_independent_checker(case):
    # The checker decides the rational system on its own (Fourier–Motzkin,
    # no LP); with integer tightening it refutes every integer-infeasible
    # system whose tightened rows are rationally infeasible.
    constraints, integers = case
    result = check_conjunction(constraints, integers)
    tightened = tighten_integer_strict(constraints, lambda name: name in integers)
    if result.satisfiable:
        assert all(c.satisfied_by(result.model) for c in constraints)
        assert all(result.model[name].denominator == 1 for name in integers)
        assert not is_infeasible(tightened)
        return
    if not integers:
        assert is_infeasible(constraints)
    if result.certified:
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
        def core(constraints, weights):
            atoms = [theory.lower_atom(c, set()) for c in constraints]
            return theory._farkas_core(atoms, weights)

        # (x − 1) − (x − 2) = 1, but x ≤ 1 ∧ x ≤ 2 is satisfiable: an
        # inequality may not take a negative weight; an equality may.
        assert core([x <= 1, x <= 2], [1, -1]) is None
        assert core([x.eq(1), x <= 0], [-1, 1]) == [0, 1]
        # A zero sum refutes only through a strict row.
        assert core([x <= 0, -x <= 0], [1, 1]) is None
        assert core([x < 0, -x <= 0], [1, 1]) == [0, 1]

    def test_solver_counts_the_fallback(self, tampered):
        tampered(lambda weights: [-weight for weight in weights])
        # Not a parallel pair: the bound axioms leave it to the theory.
        solver = SmtSolver()
        solver.assert_formula(And([x + y >= 3, x <= 1, y <= 1]))
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
        # Two theory conflicts, neither a parallel pair a bound axiom
        # would refute before the theory sees it.
        solver = SmtSolver()
        solver.assert_formula(
            And([x + y >= 3, y <= 1, Or([x <= 1, x - y <= 0]), y >= -5])
        )
        with recording() as counters:
            assert solver.check().is_unsat
        assert counters["smt.solver.farkas_cores"] == 2
        assert counters["smt.solver.theory_conflicts"] == 2
        assert "smt.solver.core_fallbacks" not in counters


def test_program_theory_calls_pinned(monkeypatch):
    """Farkas cores block whole families of paths at once.

    On ``sorts/bubble_sort`` the DPLL(T) loop of the synthesis needs 6
    theory checks, and the count repeats exactly.  Blocking each conflict
    whole, as a solver without cores for large conflicts does, took 66
    under the earlier per-location block encoding.
    The count follows the Farkas certificate the simplex ends on, and it
    counts two savings on top of the cores: one SMT context per CEGIS
    component keeps the cores of one oracle query for the next, and the
    bound axioms refute parallel pairs such as ``x ≤ 0 ∧ x ≥ 1`` with no
    theory check.  With a fresh context per query and no axioms the
    count was 31 (138 blocking whole).  The SSA block encoding, which
    names a variable only where it changes, took it from 19 to 15: with
    no per-location copies, fewer atoms reach the SAT solver.
    Substituting the block vector ``u`` into each block, instead of
    defining it by equalities in every block, took it from 15 to 10: the
    ``u`` rows no longer enter the cores, so fewer conflicts are left to
    refute.  Reading each block's ``u`` off its post-state, ``post(x)``
    in place of ``x'``, took it from 10 to 6: a coordinate the block
    leaves unchanged, or moves by a constant stride, is no longer an atom
    for the SAT solver to guess and the theory to refute.  The
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
    assert len(calls) == 6


def test_each_atom_is_lowered_once_per_context(monkeypatch):
    """An atom is lowered when it gets its literal, never again.

    ``x ≤ 100`` comes back under a fresh guard, retired after its query,
    three times, and the three paths of the permanent formula are checked
    under many Boolean assignments; each distinct atom still reaches
    :func:`lower_atom` once, and the theory checks only gather the stored
    rows.
    """
    lowered = []
    real = theory.lower_atom

    def counting(constraint, integer_variables):
        lowered.append(constraint)
        return real(constraint, integer_variables)

    monkeypatch.setattr(theory, "lower_atom", counting)
    solver = SmtSolver()
    solver.assert_formula(
        And([x + y >= 3, y <= 1, Or([x - 2 * y >= 10, x <= 1, x - y <= 0])])
    )
    assert len(lowered) == 5
    with recording() as counters:
        for bound in (100, 100, 50, 100):
            guard = solver.new_guard()
            solver.assert_formula(x <= bound, guard=guard)
            assert solver.check().is_sat
            solver.retire(guard)
        assert solver.check().is_sat
    assert len(lowered) == len(set(lowered)) == 7
    assert counters["smt.theory.atoms_lowered"] == 2  # x ≤ 100, x ≤ 50
    assert counters["smt.solver.theory_calls"] == 7
    assert counters["smt.theory.rows"] > 2 * len(lowered)
