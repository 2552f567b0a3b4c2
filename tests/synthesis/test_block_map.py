"""The per-block substitution of the block vector ``u``.

``Φ`` never defines ``u``: on a step of block ``b`` it is the image
``M_b·(x, x') + o_b`` of the step (:class:`repro.core.problem.BlockMap`).
These tests check the two facts the synthesis rests on, against a
reference written out from Definition 12 rather than through the map:

* every witness of the ``smt`` oracle is a genuine step of a path
  polyhedron of ``problem.disjuncts()``, and every ray a recession
  direction of the selected block that decreases the candidate;
* ``AvoidSpace_b``, reduced to a basis of the forms ``w·(M_b·z + o_b)``,
  holds at a step exactly when its ``u`` leaves ``span(B)``.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Analysis
from repro.benchsuite.registry import get_program
from repro.core.problem import ONE_COORDINATE
from repro.linalg.matrix import in_span, orthogonal_complement
from repro.linalg.vector import Vector
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import FALSE, TRUE, And, Atom, Or
from repro.linexpr.transform import prime_suffix
from repro.smt.theory import check_conjunction
from repro.synthesis.engine import CegisEngine
from repro.synthesis.oracles import SmtOptimizingOracle

EXAMPLE_LISTING1 = (
    Path(__file__).parents[2] / "examples" / "listing1.imp"
).read_text()

#: Two cut points, with blocks between them both ways and a self-loop.
NESTED = (
    "var i, j, n;\n"
    "i = 0;\n"
    "while (i < n) { j = 0; while (j < n) { j = j + 1; } i = i + 1; }\n"
)


def reference_u(problem, source, target):
    """``u = e_source((x, 1)) − e_target((x', 1))``, one form per coordinate."""
    forms = []
    for location in problem.cutset:
        for variable in problem.space_variables:
            form = LinExpr()
            if location == source:
                form = form + (
                    1 if variable == ONE_COORDINATE else LinExpr.variable(variable)
                )
            if location == target:
                form = form - (
                    1
                    if variable == ONE_COORDINATE
                    else LinExpr.variable(prime_suffix(variable))
                )
            forms.append(form)
    return forms


def steps_to(problem, disjuncts, vector):
    """The ``(source, target)`` of every disjunct with a step whose ``u`` is *vector*."""
    found = []
    for disjunct in disjuncts:
        forms = reference_u(problem, disjunct.source, disjunct.target)
        pinned = [form.eq(value) for form, value in zip(forms, vector)]
        if any(row.is_trivially_false() for row in pinned):
            continue
        if check_conjunction(list(disjunct.constraints) + pinned).satisfiable:
            found.append((disjunct.source, disjunct.target))
    return found


def in_linear_image(problem, source, target, ray):
    """Whether *ray* is ``M·r`` for some direction ``r`` of ``(x, x')``."""
    forms = reference_u(problem, source, target)
    names = list(problem.variables) + [prime_suffix(v) for v in problem.variables]
    columns = [Vector(form.coefficient(name) for form in forms) for name in names]
    return in_span(ray, columns)


class CheckingOracle(SmtOptimizingOracle):
    """The ``smt`` oracle, checking every witness group as it hands it out."""

    def __init__(self, problem):
        self.disjuncts = problem.disjuncts()
        self.answers = 0
        self.blocks_seen = set()

    def find(self, objective, flat_basis, extremal=True):
        group = super().find(objective, flat_basis, extremal)
        if group is not None:
            self.check(objective, group)
        return group

    def check(self, objective, group):
        problem = self._problem
        vertex = group[0]
        assert vertex.kind == "vertex"
        ends = steps_to(problem, self.disjuncts, vertex.vector)
        assert ends, "witness %s is no step of any path polyhedron" % (
            vertex.vector,
        )
        for ray in group[1:]:
            assert ray.kind == "ray"
            assert objective.dot(ray.vector) < 0
            assert any(
                in_linear_image(problem, source, target, ray.vector)
                for source, target in ends
            )
        self.answers += 1
        self.blocks_seen.update(ends)


SOUNDNESS_PROGRAMS = [
    ("listing1", lambda: EXAMPLE_LISTING1),
    ("polybench/gemm", lambda: get_program("polybench", "gemm").build()),
    ("wtc/wcet2", lambda: get_program("wtc", "wcet2").build()),
    ("wtc/nested_shared", lambda: get_program("wtc", "nested_shared").build()),
    (
        "termcomp/nested_dependent",
        lambda: get_program("termcomp", "nested_dependent").build(),
    ),
    ("sorts/bubble_sort", lambda: get_program("sorts", "bubble_sort").build()),
    ("sorts/cocktail_sort", lambda: get_program("sorts", "cocktail_sort").build()),
]


@pytest.mark.parametrize(
    "build", [build for _, build in SOUNDNESS_PROGRAMS],
    ids=[name for name, _ in SOUNDNESS_PROGRAMS],
)
def test_smt_witnesses_are_steps_of_the_selected_block(build):
    problem = Analysis(build()).problem()
    oracle = CheckingOracle(problem)
    assert CegisEngine(oracle).synthesize_lexicographic(problem).success
    assert oracle.answers
    if len(problem.blocks) > 1:
        # The oracle answered from more than one block.
        assert len(oracle.blocks_seen) > 1


def holds(formula, point):
    """*formula* (atoms, ∧, ∨) evaluated at a total *point*."""
    if formula is TRUE:
        return True
    if formula is FALSE:
        return False
    if isinstance(formula, Atom):
        return formula.constraint.satisfied_by(point)
    if isinstance(formula, And):
        return all(holds(child, point) for child in formula.operands)
    if isinstance(formula, Or):
        return any(holds(child, point) for child in formula.operands)
    raise TypeError(formula)


@pytest.fixture(scope="module")
def nested_problem():
    problem = Analysis(NESTED).problem()
    assert len(problem.cutset) == 2
    return problem


small = st.integers(min_value=-2, max_value=2)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reduced_avoid_space_matches_the_span(nested_problem, data):
    problem = nested_problem
    dimension = problem.stacked_dimension
    source = data.draw(st.sampled_from(problem.cutset))
    target = data.draw(st.sampled_from(problem.cutset))
    names = list(problem.variables) + [prime_suffix(v) for v in problem.variables]
    point = {name: data.draw(small) for name in names}
    u = Vector(form.evaluate(point) for form in reference_u(problem, source, target))
    basis = data.draw(
        st.lists(st.lists(small, min_size=dimension, max_size=dimension), max_size=4)
    )
    basis = [Vector(entries) for entries in basis]
    if data.draw(st.booleans()):
        # Put u itself, mixed with the other directions, in span(B).
        basis.append(u + sum(basis, Vector.zeros(dimension)))
    complement = orthogonal_complement(basis, dimension)
    avoid = problem.block_map(source, target).avoid_space(complement)
    assert holds(avoid, point) == (not in_span(u, basis))


def test_stutter_formula_is_u_equals_zero(nested_problem):
    problem = nested_problem
    for source in problem.cutset:
        for target in problem.cutset:
            zero = problem.block_map(source, target).is_zero()
            if source != target:
                # The @one coordinates read +1 and −1: u is never 0.
                assert zero is FALSE
                continue
            still = {name: 1 for name in problem.variables}
            still.update({prime_suffix(name): 1 for name in problem.variables})
            moved = dict(still, **{prime_suffix(problem.variables[0]): 2})
            assert holds(zero, still) and not holds(zero, moved)
