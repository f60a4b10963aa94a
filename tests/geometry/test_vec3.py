"""Unit tests for the Vec3 primitive."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry.vec3 import Vec3

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3, finite, finite, finite)


class TestBasics:
    def test_zero(self):
        assert Vec3.zero() == Vec3(0, 0, 0)

    def test_unit_vectors_are_unit_length(self):
        for unit in (Vec3.unit_x(), Vec3.unit_z()):
            assert unit.norm() == pytest.approx(1.0)

    def test_indexing_and_iteration(self):
        v = Vec3(1, 2, 3)
        assert list(v) == [1, 2, 3]
        assert v[0] == 1 and v[2] == 3
        assert len(v) == 3
        assert tuple(v) == (1, 2, 3)

    def test_hashable(self):
        assert len({Vec3(1, 2, 3), Vec3(1, 2, 3), Vec3(0, 0, 0)}) == 2


class TestArithmetic:
    def test_add_sub(self):
        assert Vec3(1, 2, 3) + Vec3(4, 5, 6) == Vec3(5, 7, 9)
        assert Vec3(4, 5, 6) - Vec3(1, 2, 3) == Vec3(3, 3, 3)

    def test_scalar_multiplication_both_sides(self):
        assert Vec3(1, 2, 3) * 2 == Vec3(2, 4, 6)
        assert 2 * Vec3(1, 2, 3) == Vec3(2, 4, 6)

    def test_division(self):
        assert Vec3(2, 4, 6) / 2 == Vec3(1, 2, 3)

    def test_negation(self):
        assert -Vec3(1, -2, 3) == Vec3(-1, 2, -3)

    def test_hadamard_scale(self):
        assert Vec3(1, 2, 3).scale(Vec3(2, 3, 4)) == Vec3(2, 6, 12)


class TestGeometry:
    def test_dot_and_cross(self):
        assert Vec3.unit_x().dot(Vec3(0, 1, 0)) == 0.0
        assert Vec3.unit_x().cross(Vec3(0, 1, 0)) == Vec3.unit_z()

    def test_norm(self):
        assert Vec3(3, 4, 0).norm() == pytest.approx(5.0)
        assert Vec3(3, 4, 0).norm_sq() == pytest.approx(25.0)

    def test_normalized(self):
        n = Vec3(0, 3, 4).normalized()
        assert n.norm() == pytest.approx(1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Vec3.zero().normalized()

    def test_distance(self):
        assert Vec3(0, 0, 0).distance_to(Vec3(1, 2, 2)) == pytest.approx(3.0)

    def test_horizontal_distance_ignores_z(self):
        assert Vec3(0, 0, 10).horizontal_distance_to(Vec3(3, 4, -10)) == pytest.approx(5.0)

    def test_lerp_endpoints_and_midpoint(self):
        a, b = Vec3(0, 0, 0), Vec3(2, 4, 6)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b
        assert a.lerp(b, 0.5) == Vec3(1, 2, 3)

    def test_clamp(self):
        v = Vec3(5, -5, 0.5)
        assert v.clamp(Vec3(-1, -1, -1), Vec3(1, 1, 1)) == Vec3(1, -1, 0.5)


class TestProperties:
    @given(vectors, vectors)
    def test_addition_commutes(self, a, b):
        assert tuple(a + b) == pytest.approx(tuple(b + a), rel=0, abs=1e-6)

    @given(vectors)
    def test_subtracting_self_is_zero(self, a):
        assert tuple(a - a) == pytest.approx((0, 0, 0), rel=0, abs=1e-9)

    @given(vectors, vectors)
    def test_triangle_inequality(self, a, b):
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-6

    @given(vectors, vectors)
    def test_dot_symmetry(self, a, b):
        assert a.dot(b) == pytest.approx(b.dot(a), rel=1e-9, abs=1e-6)

    @given(vectors)
    def test_cross_with_self_is_zero(self, a):
        assert tuple(a.cross(a)) == pytest.approx((0, 0, 0), rel=0, abs=1e-3)
