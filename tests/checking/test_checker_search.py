"""The checker's search over block DAGs against a path-by-path reference.

The reference expands each block into its paths (DNF) and decides every
(path, failure pattern) system from scratch.  Both must agree on the
status, and every witness the search reports must satisfy
invariant ∧ path ∧ pattern.
"""

from fractions import Fraction
from typing import List

from hypothesis import given, settings, strategies as st

from repro.checking import farkas
from repro.checking.checker import CertificateVerdict, check_ranking
from repro.core.problem import TerminationProblem
from repro.core.ranking import AffineRankingFunction, LexicographicRankingFunction
from repro.invariants.invariant_map import InvariantMap
from repro.linalg.vector import Vector
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import FALSE, TRUE, And, Atom, Formula, Or
from repro.linexpr.transform import prime_suffix
from repro.program.large_block import BlockTransition

VARIABLES = ("x", "y")
CUTSET = ("a", "b")
#: Names atoms may mention: program variables, their primes, one auxiliary.
NAMES = ("x", "y", "x'", "y'", "z")


# -- the reference: DNF expansion, one full decision per (path, pattern) -----


def _paths(formula: Formula) -> List[List[Constraint]]:
    if formula is TRUE:
        return [[]]
    if formula is FALSE:
        return []
    if isinstance(formula, Atom):
        return [[formula.constraint]]
    parts = [_paths(operand) for operand in formula.operands]
    if isinstance(formula, Or):
        return [path for part in parts for path in part]
    product: List[List[Constraint]] = [[]]
    for part in parts:
        product = [left + right for left in product for right in part]
    return product


def _patterns(before, after):
    cases = []
    for i in range(len(before)):
        prefix = [Constraint(before[j] - after[j], Relation.EQ) for j in range(i)]
        cases.append(
            (
                "component %d grew" % (i + 1),
                prefix + [Constraint(before[i] - after[i], Relation.LT)],
            )
        )
        cases.append(
            (
                "component %d decreased while negative" % (i + 1),
                prefix
                + [
                    Constraint(after[i] - before[i], Relation.LT),
                    Constraint(before[i], Relation.LT),
                ],
            )
        )
    cases.append(
        (
            "no component decreased",
            [Constraint(b - a, Relation.EQ) for b, a in zip(before, after)],
        )
    )
    return cases


def _tighten(constraints, integer_mode):
    if not integer_mode:
        return list(constraints)
    return farkas.tighten_integer_strict(
        constraints, lambda name: name.rstrip("'") in VARIABLES
    )


def reference_status(problem, ranking, integer_mode=False) -> str:
    primed = {name: prime_suffix(name) for name in problem.variables}
    for block in problem.blocks:
        before = [c.expression(block.source) for c in ranking.components]
        after = [
            c.expression(block.target).rename(primed) for c in ranking.components
        ]
        invariant = list(problem.invariant(block.source).constraints)
        for path in _paths(block.formula):
            base = _tighten(invariant + path, integer_mode)
            for _, pattern in _patterns(before, after):
                system = base + _tighten(pattern, integer_mode)
                if not farkas.is_infeasible(system):
                    return CertificateVerdict.INVALID
    return CertificateVerdict.VALID


def _holds(constraints, point) -> bool:
    return all(
        constraint.satisfied_by(
            {name: point.get(name, Fraction(0)) for name in constraint.variables()}
        )
        for constraint in constraints
    )


# -- random blocks: small NNF DAGs with shared nodes --------------------------

_coefficient = st.integers(-2, 2)


@st.composite
def _constraint(draw) -> Constraint:
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    terms = {name: Fraction(draw(_coefficient)) for name in names}
    relation = draw(st.sampled_from([Relation.LE, Relation.LT, Relation.EQ]))
    return Constraint(LinExpr(terms, draw(st.integers(-3, 3))), relation)


#: ``x' ≤ x − 1``: conjoined to most atoms of a *decreasing* block.
_DECREASE = Constraint(LinExpr({"x'": 1, "x": -1}, 1), Relation.LE)
#: ``x ≥ 0``: in every invariant of a case whose ranking starts with ``x``.
_BOUNDED = Constraint(LinExpr({"x": -1}), Relation.LE)


@st.composite
def _formula(draw, decreasing: bool) -> Formula:
    pool: List[Formula] = []
    for _ in range(draw(st.integers(2, 5))):
        leaf: Formula = Atom(draw(_constraint()))
        if decreasing and draw(st.integers(0, 4)):
            leaf = And([leaf, Atom(_DECREASE)])
        pool.append(leaf)
    for _ in range(draw(st.integers(1, 6))):
        operands = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
        node = And(operands) if draw(st.booleans()) else Or(operands)
        pool.append(node)
    if draw(st.integers(0, 9)) == 0:
        pool.append(Or([pool[-1], draw(st.sampled_from([TRUE, FALSE]))]))
    return pool[-1]


def _affine(draw, values) -> AffineRankingFunction:
    return AffineRankingFunction(
        VARIABLES,
        {
            location: Vector([Fraction(draw(values)) for _ in VARIABLES])
            for location in CUTSET
        },
        {location: Fraction(draw(st.integers(-2, 2))) for location in CUTSET},
    )


@st.composite
def _case(draw):
    """A problem and a certificate for it.

    Half the cases rank by ``x`` first, with ``x ≥ 0`` invariant and most
    atoms conjoined with ``x' ≤ x − 1``: those certificates are often
    valid, and only below the block's ``Or`` nodes.
    """
    decreasing = draw(st.booleans())
    invariants = InvariantMap.from_constraints(
        VARIABLES,
        {
            location: [_BOUNDED] * decreasing
            + [
                Constraint(
                    LinExpr(
                        {name: Fraction(draw(_coefficient)) for name in VARIABLES},
                        draw(st.integers(-3, 3)),
                    ),
                    Relation.LE,
                )
                for _ in range(draw(st.integers(0, 2)))
            ]
            for location in CUTSET
        },
    )
    blocks = [
        BlockTransition(source, target, draw(_formula(decreasing)), 0)
        for source, target in draw(
            st.lists(
                st.sampled_from([("a", "a"), ("a", "b"), ("b", "a")]),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
    ]
    problem = TerminationProblem(VARIABLES, CUTSET, invariants, blocks)
    components = [_affine(draw, _coefficient) for _ in range(draw(st.integers(1, 2)))]
    if decreasing:
        components[0] = AffineRankingFunction(
            VARIABLES,
            {location: Vector([Fraction(1), Fraction(0)]) for location in CUTSET},
            {location: Fraction(0) for location in CUTSET},
        )
    return problem, LexicographicRankingFunction(components)


class TestAgainstTheReference:
    @settings(max_examples=150, deadline=None)
    @given(_case())
    def test_same_status_and_witnesses_hold(self, case):
        problem, ranking = case
        verdict = check_ranking(problem, ranking)
        assert verdict.status == reference_status(problem, ranking)
        if verdict.accepted:
            assert verdict.refuted == verdict.obligations
        primed = {name: prime_suffix(name) for name in problem.variables}
        by_block = {(b.source, b.target): b for b in problem.blocks}
        for failure in verdict.failures:
            block = by_block[(failure.source, failure.target)]
            point = {name: Fraction(value) for name, value in failure.witness.items()}
            before = [c.expression(block.source) for c in ranking.components]
            after = [
                c.expression(block.target).rename(primed)
                for c in ranking.components
            ]
            pattern = dict(_patterns(before, after))[failure.case]
            assert _holds(problem.invariant(block.source).constraints, point)
            assert any(_holds(path, point) for path in _paths(block.formula))
            assert _holds(pattern, point)

    @settings(max_examples=60, deadline=None)
    @given(_case())
    def test_integer_mode_valid_exactly_when_the_reference_is(self, case):
        problem, ranking = case
        verdict = check_ranking(problem, ranking, integer_mode=True)
        reference = reference_status(problem, ranking, integer_mode=True)
        assert verdict.accepted == (reference == CertificateVerdict.VALID)
