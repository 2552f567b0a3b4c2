"""Tests for constraint-representation polyhedra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr, var
from repro.lp.simplex import check_feasibility
from repro.polyhedra.polyhedron import Polyhedron
from repro.polyhedra.projection import entails
from tests.polyhedra.generator_rows import generator_system

x, y = var("x"), var("y")


def box(lox, hix, loy, hiy):
    return Polyhedron(["x", "y"], [x >= lox, x <= hix, y >= loy, y <= hiy])


class TestPredicates:
    def test_universe(self):
        assert Polyhedron.universe(["x"]).is_universe()
        assert not Polyhedron.universe(["x"]).is_empty()

    def test_empty(self):
        assert Polyhedron.empty(["x"]).is_empty()

    def test_emptiness_by_conflict(self):
        assert Polyhedron(["x"], [x >= 1, x <= 0]).is_empty()

    def test_contains_point(self):
        assert box(0, 2, 0, 2).contains_point({"x": 1, "y": 2})
        assert not box(0, 2, 0, 2).contains_point({"x": 3, "y": 0})

    def test_entails_constraint(self):
        assert box(0, 2, 0, 2).entails_constraint(x <= 5)
        assert not box(0, 2, 0, 2).entails_constraint(x <= 1)

    def test_includes_and_equals(self):
        small = box(0, 1, 0, 1)
        large = box(0, 2, 0, 2)
        assert large.includes(small)
        assert not small.includes(large)
        assert small.equals(box(0, 1, 0, 1))

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            Polyhedron(["x"], [y <= 0])


class TestOperations:
    def test_intersect(self):
        meet = box(0, 3, 0, 3).intersect(box(2, 5, 2, 5))
        assert meet.equals(box(2, 3, 2, 3))

    def test_join_is_convex_hull(self):
        hull = box(0, 1, 0, 1).join(box(3, 4, 0, 1))
        assert hull.contains_point({"x": 2, "y": Fraction(1, 2)})
        assert not hull.contains_point({"x": 2, "y": 2})

    def test_join_with_empty(self):
        assert box(0, 1, 0, 1).join(Polyhedron.empty(["x", "y"])).equals(box(0, 1, 0, 1))

    def test_widen_keeps_stable_constraints(self):
        widened = box(0, 1, 0, 1).widen(box(0, 2, 0, 1))
        assert widened.entails_constraint(x >= 0)
        assert widened.entails_constraint(y <= 1)
        assert not widened.entails_constraint(x <= 10)

    def test_widening_splits_equalities(self):
        line = Polyhedron(["x", "y"], [y.eq(0), x >= 0])
        widened = line.widen(Polyhedron(["x", "y"], [y >= 0, y <= 1, x >= 0]))
        assert widened.entails_constraint(y >= 0)

    def test_project(self):
        projected = box(0, 2, 5, 7).project(["x"])
        assert projected.entails_constraint(x <= 2)
        assert projected.variables == ("x",)

    def test_assign(self):
        result = box(0, 2, 0, 2).assign("x", x + 10)
        low, high = result.bounds(x)
        assert (low, high) == (10, 12)

    def test_assign_swap_independent(self):
        result = box(0, 1, 5, 6).assign("x", y)
        low, high = result.bounds(x)
        assert (low, high) == (5, 6)

    def test_havoc(self):
        result = box(0, 2, 0, 2).havoc("x")
        assert result.bounds(x) == (None, None)
        assert result.bounds(y) == (0, 2)

    def test_rename(self):
        renamed = box(0, 1, 0, 1).rename({"x": "a"})
        assert renamed.variables == ("a", "y")

    def test_minimized_removes_redundant(self):
        redundant = Polyhedron(["x"], [x <= 1, x <= 2, x <= 3])
        assert len(redundant.minimized().constraints) == 1

    def test_bounds_unbounded(self):
        assert Polyhedron(["x"], [x >= 0]).bounds(x) == (0, None)

    def test_constraint_vectors_convention(self):
        poly = Polyhedron(["x"], [x <= 7])
        ((normal, bound),) = poly.constraint_vectors()
        # a·x ≥ b with a = -1, b = -7 encodes x ≤ 7.
        assert normal.coefficient("x") == -1
        assert bound == -7


bounds_strategy = st.integers(min_value=-5, max_value=5)


class TestHypothesis:
    @given(bounds_strategy, bounds_strategy, bounds_strategy, bounds_strategy)
    @settings(max_examples=25, deadline=None)
    def test_join_upper_bounds_both(self, a, b, c, d):
        first = Polyhedron(["x"], [x >= min(a, b), x <= max(a, b)])
        second = Polyhedron(["x"], [x >= min(c, d), x <= max(c, d)])
        hull = first.join(second)
        assert hull.includes(first)
        assert hull.includes(second)

    @given(bounds_strategy, bounds_strategy)
    @settings(max_examples=25, deadline=None)
    def test_widen_upper_bounds_arguments(self, a, b):
        first = Polyhedron(["x"], [x >= 0, x <= max(a, 0)])
        second = Polyhedron(["x"], [x >= 0, x <= max(b, 0)])
        widened = first.widen(second)
        assert widened.includes(first)
        assert widened.includes(second)


# -- both representations: generator checks and the emptiness flag ------------

SPACE = ("x", "y", "z")
small = st.integers(min_value=-3, max_value=3)


@st.composite
def constraints(draw, strict=False):
    """``a·x + c ⋈ 0`` over SPACE with small integer coefficients."""
    coefficients = draw(st.lists(small, min_size=3, max_size=3))
    expr = LinExpr.from_terms(zip(SPACE, coefficients)) + draw(small)
    relations = [Relation.LE, Relation.EQ] + ([Relation.LT] if strict else [])
    return Constraint(expr, draw(st.sampled_from(relations)))


@st.composite
def generator_systems(draw):
    vector = st.lists(small, min_size=3, max_size=3)
    return generator_system(
        SPACE,
        draw(st.lists(vector, min_size=1, max_size=4)),
        draw(st.lists(vector, max_size=2)),
        draw(st.lists(vector, max_size=1)),
    )


@st.composite
def polyhedra(draw):
    """Empty, unbounded, lower-dimensional and line-containing polyhedra,
    built from constraints or from generators (which are then cached)."""
    if draw(st.booleans()):
        return Polyhedron.from_generators(draw(generator_systems()))
    return Polyhedron(SPACE, draw(st.lists(constraints(), max_size=4)))


def lp_empty(polyhedron):
    return check_feasibility(polyhedron.constraints).is_infeasible


def lp_includes(bigger, smaller):
    return lp_empty(smaller) or all(
        entails(smaller.constraints, row) for row in bigger.constraints
    )


def assert_flag_exact(polyhedron):
    """``is_empty()`` is the LP's verdict, and a flag known before the
    query already is."""
    known = polyhedron._empty_cache
    answer = lp_empty(polyhedron)
    assert polyhedron.is_empty() == answer
    if known is not None:
        assert known == answer


def round_trip(moved, back):
    return [moved, back(moved)]


@st.composite
def operations(draw):
    """One polyhedron operation: a function from its operand to the
    results of its steps, the last of which continues the chain in the
    operand's space."""
    kind = draw(
        st.sampled_from(
            [
                "intersect",
                "intersect_constraints",
                "assign",
                "havoc",
                "project",
                "rename",
                "extend_space",
                "join",
                "widen",
                "minimized",
            ]
        )
    )
    name = draw(st.sampled_from(SPACE))
    rest = [v for v in SPACE if v != name]
    wide = SPACE + ("w",)
    if kind == "intersect":
        other = draw(polyhedra())
        return lambda p: [p.intersect(other)]
    if kind == "intersect_constraints":
        rows = draw(st.lists(constraints(), min_size=1, max_size=3))
        return lambda p: [p.intersect_constraints(rows)]
    if kind == "assign":
        numbers = draw(st.lists(small, min_size=4, max_size=4))
        expression = LinExpr.from_terms(zip(SPACE, numbers)) + numbers[-1]
        return lambda p: [p.assign(name, expression)]
    if kind == "havoc":
        return lambda p: [p.havoc(name)]
    # Leave the space and come back to it.
    if kind == "project":
        return lambda p: round_trip(p.project(rest), lambda q: q.extend_space(SPACE))
    if kind == "rename":
        return lambda p: round_trip(
            p.rename({name: "w"}), lambda q: q.rename({"w": name})
        )
    if kind == "extend_space":
        return lambda p: round_trip(p.extend_space(wide), lambda q: q.project(SPACE))
    if kind == "join":
        other = draw(polyhedra())
        return lambda p: [p.join(other)]
    if kind == "widen":
        other = draw(polyhedra())
        thresholds = draw(st.lists(constraints(), max_size=2))
        return lambda p: [p.widen(p.join(other), thresholds)]
    return lambda p: [p.minimized()]


def snapshot(system):
    return (list(system.vertices), list(system.rays), list(system.lines))


class TestBothRepresentations:
    @given(polyhedra(), polyhedra())
    @settings(max_examples=150, deadline=None)
    def test_includes_agrees_with_lp(self, bigger, smaller):
        assert bigger.includes(smaller) == lp_includes(bigger, smaller)

    @given(polyhedra(), constraints(strict=True))
    @settings(max_examples=150, deadline=None)
    def test_entails_constraint_agrees_with_lp(self, polyhedron, candidate):
        polyhedron.generators()
        assert polyhedron.entails_constraint(candidate) == entails(
            polyhedron.constraints, candidate
        )

    @given(polyhedra(), st.lists(constraints(), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_is_empty_agrees_with_lp(self, polyhedron, rows):
        polyhedron.is_empty()
        narrowed = polyhedron.intersect_constraints(rows)
        assert narrowed.is_empty() == lp_empty(narrowed)
        assert polyhedron.generators().is_empty() == lp_empty(polyhedron)

    @given(polyhedra(), st.lists(operations(), min_size=1, max_size=4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_emptiness_flag_is_exact(self, polyhedron, chain, data):
        """Every intermediate result of a chain of operations, queried or
        not (the next operation then runs on an unknown flag)."""
        if data.draw(st.booleans()):
            polyhedron.is_empty()
        results = []
        for operation in chain:
            steps = operation(polyhedron)
            polyhedron = steps[-1]
            for result in steps:
                if data.draw(st.booleans()):
                    assert_flag_exact(result)
                else:
                    results.append(result)
        for result in results:
            assert_flag_exact(result)

    @given(generator_systems(), polyhedra(), polyhedra())
    @settings(max_examples=100, deadline=None)
    def test_generators_are_cached_and_never_mutated(self, system, other, third):
        before = snapshot(system)
        built = Polyhedron.from_generators(system)
        assert built.generators() is system
        assert other.generators() is other.generators()
        built.includes(other)
        other.includes(built)
        joined = built.join(other)
        joined.includes(third)
        built.widen(joined).join(third)
        for row in third.constraints:
            built.entails_constraint(row)
        assert snapshot(system) == before

    def test_constants_settle_emptiness(self):
        assert Polyhedron.empty(SPACE)._empty_cache is True
        assert Polyhedron.universe(SPACE)._empty_cache is False
