"""The per-block substitution of the block vector ``u``.

``Φ`` never defines ``u``: on a step of block ``b`` it is the image
``M_b·z + o_b`` of the step (:class:`repro.core.problem.BlockMap`), read
off the block's post-state (``post(x)`` in place of ``x'``).  These tests
check the facts the synthesis rests on, against a reference written out
from Definition 12 over ``(x, x')`` rather than through the map:

* on the block's steps, where ``x' = post(x)``, the map's forms and
  images equal the reference's;

* every witness of the ``smt`` oracle is a genuine step of a path
  polyhedron of ``problem.disjuncts()``, and every ray a recession
  direction of the selected block that decreases the candidate;
* ``AvoidSpace_b``, reduced to a basis of the forms ``w·(M_b·z + o_b)``,
  holds at a step exactly when its ``u`` leaves ``span(B)``; a block that
  moves a variable by a constant stride never has ``u = 0``.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Analysis
from repro.benchsuite.registry import get_program
from repro.checking.generator import ProgramGenerator
from repro.core.problem import ONE_COORDINATE
from repro.linalg.matrix import in_span, orthogonal_complement
from repro.linalg.vector import Vector
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import FALSE, TRUE, And, Atom, Or
from repro.linexpr.transform import prime_suffix
from repro.metrics import recording
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


def post_state(problem, source, target):
    """``post(x)`` of the ``source → target`` block (empty without one)."""
    for block in problem.blocks:
        if (block.source, block.target) == (source, target):
            return block.post
    return {}


def step_names(problem, source, target):
    """The names a point on the block's steps assigns freely: ``x``, the
    names of every post-state, and ``x'`` where there is none."""
    post = post_state(problem, source, target)
    names = set(problem.variables)
    for variable in problem.variables:
        if variable in post:
            names |= post[variable].variables()
        else:
            names.add(prime_suffix(variable))
    return sorted(names)


def on_the_steps(problem, source, target, values, ray=False):
    """*values* with every ``x'`` set to ``post(x)``, as on every step of
    the block (the linear part of ``post(x)`` for a *ray*)."""
    point = dict(values)
    for variable, version in post_state(problem, source, target).items():
        if ray:
            version = version - version.constant_term
        point[prime_suffix(variable)] = version.evaluate(values)
    return point


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


@pytest.fixture(scope="module")
def generated_problems():
    generator = ProgramGenerator(seed=0)
    return [Analysis(program.source).problem() for program in generator.programs(12)]


small = st.integers(min_value=-2, max_value=2)


def draw_pair(data, problem):
    """A ``(source, target)`` of *problem*, a block's more often than not."""
    if problem.blocks and data.draw(st.booleans()):
        block = data.draw(st.sampled_from(problem.blocks))
        return block.source, block.target
    return (
        data.draw(st.sampled_from(problem.cutset)),
        data.draw(st.sampled_from(problem.cutset)),
    )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_forms_and_images_are_the_reference_on_the_steps(
    nested_problem, generated_problems, data
):
    problem = data.draw(st.sampled_from([nested_problem] + generated_problems))
    dimension = problem.stacked_dimension
    source, target = draw_pair(data, problem)
    block_map = problem.block_map(source, target)
    reference = reference_u(problem, source, target)
    weight = Vector(
        data.draw(st.lists(small, min_size=dimension, max_size=dimension))
    )
    expected = sum(
        (w * form for w, form in zip(weight, reference) if w), LinExpr()
    )
    post = post_state(problem, source, target)
    assert block_map.form(weight) == expected.substitute(
        {prime_suffix(variable): version for variable, version in post.items()}
    )
    values = {
        name: data.draw(small) for name in step_names(problem, source, target)
    }
    for ray in (False, True):
        point = on_the_steps(problem, source, target, values, ray)
        assert block_map.image(point, ray=ray) == Vector(
            form.evaluate(point) - (form.constant_term if ray else 0)
            for form in reference
        )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reduced_avoid_space_matches_the_span(nested_problem, data):
    problem = nested_problem
    dimension = problem.stacked_dimension
    source = data.draw(st.sampled_from(problem.cutset))
    target = data.draw(st.sampled_from(problem.cutset))
    names = step_names(problem, source, target)
    point = on_the_steps(
        problem, source, target, {name: data.draw(small) for name in names}
    )
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
    inner, outer = problem.cutset
    for source in problem.cutset:
        for target in problem.cutset:
            zero = problem.block_map(source, target).is_zero()
            if source != target:
                # The @one coordinates read +1 and −1: u is never 0.
                assert zero is FALSE
                continue
            if (source, target) == (inner, inner):
                # The inner loop's block sets j' = j + 1: u_j is 1.
                assert zero is FALSE
                continue
            names = step_names(problem, source, target)
            still = on_the_steps(problem, source, target, dict.fromkeys(names, 1))
            moved = dict(still, **{prime_suffix(problem.variables[0]): 2})
            assert holds(zero, still) and not holds(zero, moved)


def test_constant_stride_needs_no_theory():
    """``x`` moves by −1 on every step, so ``u`` avoids every space that
    leaves its coordinate out, and no step stutters: the query's
    ``AvoidSpace`` is TRUE, no theory check conflicts, and the stutter
    check asks no SMT query at all."""
    problem = Analysis(
        "var x, y;\nwhile (x > 0) { x = x - 1; y = y + x; }\n"
    ).problem()
    (block,) = problem.blocks
    block_map = problem.block_map(block.source, block.target)
    dimension = problem.stacked_dimension
    assert block_map.avoid_space(orthogonal_complement([], dimension)) is TRUE
    assert block_map.is_zero() is FALSE
    oracle = SmtOptimizingOracle()
    engine = CegisEngine(oracle)
    with recording() as counters:
        outcome = engine.synthesize_lexicographic(problem)
    assert outcome.success
    assert counters["smt.solver.theory_calls"] >= 1
    assert "smt.solver.theory_conflicts" not in counters
    with recording() as counters:
        assert not oracle.stutters()
    assert not counters
