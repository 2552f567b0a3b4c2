"""Tests for exact rational vectors."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.linalg.vector import Vector

small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)
vectors3 = st.lists(small_fractions, min_size=3, max_size=3).map(Vector)


class TestConstruction:
    def test_zeros(self):
        assert Vector.zeros(3) == Vector([0, 0, 0])

    def test_unit(self):
        assert Vector.unit(3, 1) == Vector([0, 1, 0])

    def test_unit_scaled(self):
        assert Vector.unit(2, 0, 5) == Vector([5, 0])

    def test_len_and_index(self):
        v = Vector([1, 2, 3])
        assert len(v) == 3
        assert v[2] == 3

    def test_slice(self):
        assert Vector([1, 2, 3, 4])[1:3] == Vector([2, 3])


class TestArithmetic:
    def test_add_sub(self):
        assert Vector([1, 2]) + Vector([3, 4]) == Vector([4, 6])
        assert Vector([1, 2]) - Vector([3, 4]) == Vector([-2, -2])

    def test_scalar(self):
        assert Vector([1, 2]) * 3 == Vector([3, 6])
        assert 3 * Vector([1, 2]) == Vector([3, 6])
        assert Vector([2, 4]) / 2 == Vector([1, 2])

    def test_neg(self):
        assert -Vector([1, -2]) == Vector([-1, 2])

    def test_dot(self):
        assert Vector([1, 2, 3]).dot(Vector([4, 5, 6])) == 32

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Vector([1]) + Vector([1, 2])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Vector([1]) / 0

    @given(vectors3, vectors3)
    def test_dot_symmetric(self, u, v):
        assert u.dot(v) == v.dot(u)

    @given(vectors3, vectors3, small_fractions)
    def test_dot_linear(self, u, v, a):
        w = u * a
        assert w.dot(v) == a * u.dot(v)


class TestHelpers:
    def test_is_zero(self):
        assert Vector([0, 0]).is_zero()
        assert not Vector([0, 1]).is_zero()

    def test_normalized(self):
        assert Vector([Fraction(1, 2), Fraction(3, 2)]).normalized() == Vector([1, 3])

    def test_hashable(self):
        assert len({Vector([1, 2]), Vector([1, 2]), Vector([2, 1])}) == 2
