"""Tests for the span of a family of exact vectors and its wrappers."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.matrix import Span, in_span, orthogonal_complement
from repro.linalg.vector import Vector

small = st.integers(min_value=-6, max_value=6)
matrices = st.lists(
    st.lists(small, min_size=3, max_size=3), min_size=2, max_size=4
).map(lambda rows: [Vector(row) for row in rows])


@st.composite
def families(draw):
    """A small integer family of dimension 1–5, with repeated and
    dependent vectors, and a vector of the same dimension."""
    dimension = draw(st.integers(min_value=1, max_value=5))
    vectors = st.lists(small, min_size=dimension, max_size=dimension).map(Vector)
    family = draw(st.lists(vectors, max_size=5))
    if family and draw(st.booleans()):
        family.append(draw(st.sampled_from(family)))
    if len(family) >= 2 and draw(st.booleans()):
        first, second = draw(st.permutations(family))[:2]
        family.append(first * draw(small) + second * draw(small))
    return dimension, family, draw(vectors)


class TestBasics:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Span(2, [Vector([1, 2]), Vector([3])])
        with pytest.raises(ValueError):
            Vector([1]) in Span(2)


class TestElimination:
    def test_rank_full(self):
        assert len(Span(2, [Vector([1, 0]), Vector([0, 1])])) == 2

    def test_rank_deficient(self):
        assert len(Span(2, [Vector([1, 2]), Vector([2, 4])])) == 1

    def test_null_space(self):
        rows = [Vector([1, 2]), Vector([2, 4])]
        kernel = Span(2, rows).complement()
        assert kernel == [Vector([-2, 1])]
        assert all(row.dot(kernel[0]) == 0 for row in rows)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, rows):
        span = Span(3, rows)
        assert len(span) + len(span.complement()) == 3

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_kernel_vectors_are_in_kernel(self, rows):
        for vector in Span(3, rows).complement():
            assert all(row.dot(vector) == 0 for row in rows)


class TestSpan:
    def test_complement_is_read_off_the_reduced_form(self):
        # RREF [[1, 0, -1], [0, 1, 2]]: the one free column is the last.
        span = Span(3, [Vector([1, 2, 3]), Vector([2, 3, 4])])
        assert span.complement() == [Vector([1, -2, 1])]

    @given(families())
    @settings(max_examples=200, deadline=None)
    def test_membership_is_orthogonality_to_the_complement(self, case):
        dimension, family, vector = case
        span = Span(dimension, family)
        assert (vector in span) == all(
            normal.dot(vector) == 0 for normal in span.complement()
        )

    @given(families())
    @settings(max_examples=200, deadline=None)
    def test_dimension_splits_between_span_and_complement(self, case):
        dimension, family, _ = case
        span = Span(dimension, family)
        assert len(span) + len(span.complement()) == dimension

    @given(families(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_complement_does_not_depend_on_the_order(self, case, random):
        dimension, family, _ = case
        shuffled = list(family)
        random.shuffle(shuffled)
        assert (
            Span(dimension, shuffled).complement()
            == Span(dimension, family).complement()
        )

    @given(families())
    @settings(max_examples=200, deadline=None)
    def test_add_grows_exactly_for_vectors_outside(self, case):
        dimension, family, vector = case
        span = Span(dimension)
        for member in itertools.chain(family, [vector]):
            outside = member not in span
            assert span.add(member) == outside
            assert member in span


class TestSubspaces:
    def test_in_span(self):
        family = [Vector([1, 0, 0]), Vector([0, 1, 0])]
        assert in_span(Vector([2, 3, 0]), family)
        assert not in_span(Vector([0, 0, 1]), family)

    def test_zero_always_in_span(self):
        assert in_span(Vector([0, 0]), [])

    def test_linearly_independent(self):
        independent = Span(2)
        assert independent.add(Vector([1, 0]))
        assert independent.add(Vector([1, 1]))
        dependent = Span(2, [Vector([1, 2])])
        assert not dependent.add(Vector([2, 4]))

    def test_orthogonal_complement_empty_family(self):
        complement = orthogonal_complement([], 2)
        assert len(complement) == 2

    def test_orthogonal_complement_is_orthogonal(self):
        family = [Vector([1, 2, 3])]
        for w in orthogonal_complement(family, 3):
            assert w.dot(family[0]) == 0

    def test_membership_via_complement(self):
        family = [Vector([1, 0, 1])]
        complement = orthogonal_complement(family, 3)
        inside = Vector([2, 0, 2])
        outside = Vector([1, 1, 0])
        assert all(w.dot(inside) == 0 for w in complement)
        assert any(w.dot(outside) != 0 for w in complement)
