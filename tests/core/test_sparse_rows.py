"""Differential tests: the sparse stacked rows against dense references.

The invariant rows of ``Constraints(I)`` are kept as their nonzeros
(:class:`~repro.core.problem.InvariantRow`), the ranking LP builds its
generator rows from them, and a :class:`~repro.core.problem.BlockMap`
keeps only its source and target rows.  Each is compared here with the
dense ``Fraction`` construction over the whole stacked space, on random
invariants, counterexamples and candidates over one to three cut points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Analysis, AnalysisConfig
from repro.benchsuite.registry import get_suite
from repro.core.lp_instance import RankingLp
from repro.core.problem import ONE_COORDINATE, TerminationProblem
from repro.invariants.invariant_map import InvariantMap
from repro.linalg.vector import Vector
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.linexpr.transform import prime_suffix
from repro.lp.problem import LinearRow
from repro.polyhedra.polyhedron import Polyhedron

VARIABLES = ("x", "y")

#: Entries with many zeros, so whole blocks of a vector are often zero.
entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def problems(draw):
    """A problem over one to three cut points, each invariant made of
    zero to three random rows (zero rows give the universe)."""
    cutset = ["k%d" % index for index in range(draw(st.integers(1, 3)))]
    invariants = InvariantMap(VARIABLES)
    for location in cutset:
        rows = draw(
            st.lists(
                st.tuples(
                    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                    st.integers(-4, 4),
                    st.sampled_from((Relation.LE, Relation.EQ)),
                ),
                max_size=3,
            )
        )
        invariants.set(
            location,
            Polyhedron(
                VARIABLES,
                [
                    Constraint(
                        LinExpr(dict(zip(VARIABLES, coefficients)), constant),
                        relation,
                    )
                    for coefficients, constant, relation in rows
                ],
            ),
        )
    return TerminationProblem(VARIABLES, cutset, invariants, [])


def stacked_vectors(problem):
    return st.lists(
        entries,
        min_size=problem.stacked_dimension,
        max_size=problem.stacked_dimension,
    ).map(Vector)


def dense_rows(problem):
    """``Constraints(I)`` as dense vectors over the whole stacked space."""
    width = len(problem.space_variables)
    rows = []
    for k, location in enumerate(problem.cutset):
        before = [Fraction(0)] * (k * width)
        after = [Fraction(0)] * ((problem.num_cutpoints - k - 1) * width)
        for normal, bound in problem.invariant(location).constraint_vectors():
            block = [normal.coefficient(name) for name in problem.variables]
            rows.append(Vector(before + block + [-bound] + after))
        rows.append(
            Vector(before + [Fraction(0)] * problem.num_variables + [1] + after)
        )
    return rows


def densify(row, dimension):
    entries = [Fraction(0)] * dimension
    for index, value in row.terms:
        entries[index] = Fraction(value)
    return Vector(entries)


def dense_block_rows(problem, source, target):
    """``M·z + o`` of a ``source → target`` step, one form per coordinate."""

    def end(variable, primed):
        if variable == ONE_COORDINATE:
            return LinExpr.constant(1)
        return LinExpr.variable(prime_suffix(variable) if primed else variable)

    return [
        (end(variable, False) if location == source else LinExpr())
        - (end(variable, True) if location == target else LinExpr())
        for location in problem.cutset
        for variable in problem.space_variables
    ]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_invariant_rows_are_the_nonzeros_of_the_dense_rows(data):
    problem = data.draw(problems())
    sparse = problem.invariant_rows()
    width = len(problem.space_variables)
    assert [densify(row, problem.stacked_dimension) for row in sparse] == (
        dense_rows(problem)
    )
    for row in sparse:
        assert all(value != 0 for _, value in row.terms)
        assert {index // width for index, _ in row.terms} <= {row.cutpoint}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_generator_rows_match_the_dense_dot_products(data):
    problem = data.draw(problems())
    counterexamples = data.draw(
        st.lists(stacked_vectors(problem), min_size=1, max_size=4)
    )
    lp = RankingLp(problem)
    for generator in counterexamples:
        lp.add_counterexample(generator)
    dense = dense_rows(problem)
    for j, generator in enumerate(counterexamples):
        # Σ_i (v_j · row_i)·γ_i − δ_j ≥ 0, with a term for every nonzero
        # product and no other.
        combination = LinExpr(
            {"gamma_%d" % i: generator.dot(row) for i, row in enumerate(dense)}
        )
        reference = combination - LinExpr.variable("delta_%d" % j) >= 0
        assert lp._generator_row(j) == LinearRow.of(reference)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_ranking_is_the_dense_combination_of_the_rows(data):
    problem = data.draw(problems())
    gammas = data.draw(
        st.lists(
            entries,
            min_size=len(problem.invariant_rows()),
            max_size=len(problem.invariant_rows()),
        )
    )
    stacked = Vector.zeros(problem.stacked_dimension)
    for gamma, row in zip(gammas, dense_rows(problem)):
        stacked = stacked + row * gamma
    assert problem.combine(gammas) == stacked


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_block_maps_match_the_full_rows(data):
    problem = data.draw(problems())
    source = data.draw(st.sampled_from(problem.cutset))
    target = data.draw(st.sampled_from(problem.cutset))
    block_map = problem.block_map(source, target)
    rows = dense_block_rows(problem, source, target)
    assert block_map.support == tuple(
        index for index, row in enumerate(rows) if row != LinExpr()
    )

    weight = data.draw(stacked_vectors(problem))
    form = LinExpr()
    for entry, row in zip(weight, rows):
        form = form + row * entry
    assert block_map.form(weight) == form

    names = list(VARIABLES) + [prime_suffix(name) for name in VARIABLES]
    point = dict(zip(names, data.draw(st.lists(entries, min_size=4, max_size=4))))
    for ray in (False, True):
        assert block_map.image(point, ray=ray) == Vector(
            row.evaluate(point) - (row.constant_term if ray else 0)
            for row in rows
        )


@pytest.mark.parametrize(
    "oracle,instances,rows,pivots", [("smt", 12, 78, 28), ("dd", 9, 45, 25)]
)
def test_gemm_ranking_lp_search_is_pinned(oracle, instances, rows, pivots):
    """``polybench/gemm``'s ranking LP: the same instances, rows and pivots
    as the dense construction gave, under either oracle."""
    program = next(p for p in get_suite("polybench") if p.name == "gemm")
    result = Analysis(
        program.build(), config=AnalysisConfig(cex_oracle=oracle), name="gemm"
    ).run("termite")
    assert result.status.value == "terminating"
    lp = result.to_dict()["lp"]
    assert (lp["instances"], lp["total_rows"], lp["pivots"]) == (
        instances,
        rows,
        pivots,
    )
