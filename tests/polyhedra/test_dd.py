"""Tests for the double-description conversions."""

from fractions import Fraction

from repro.api import Analysis
from repro.core.problem import TransitionDisjunct
from repro.linalg.vector import Vector
from repro.linexpr.expr import var
from repro.linexpr.transform import prime_suffix
from repro.polyhedra.dd import (
    cone_double_description,
    constraints_to_generators,
    generators_to_constraints,
)
from repro.polyhedra.generators import GeneratorSystem
from repro.polyhedra.polyhedron import Polyhedron
from repro.program.builder import AutomatonBuilder
from repro.synthesis.oracles import disjunct_generators
from tests.polyhedra.generator_rows import generator_system

x, y = var("x"), var("y")


class TestConeDoubleDescription:
    def test_nonnegative_quadrant(self):
        lines, rays = cone_double_description(
            [(Vector([-1, 0]), False), (Vector([0, -1]), False)], 2
        )
        assert not lines
        assert sorted(tuple(r) for r in rays) == [(0, 1), (1, 0)]

    def test_halfplane_keeps_a_line(self):
        lines, rays = cone_double_description([(Vector([0, -1]), False)], 2)
        assert len(lines) == 1 and lines[0][1] == 0
        assert any(r[1] > 0 for r in rays)

    def test_equality_gives_line_in_plane(self):
        lines, rays = cone_double_description([(Vector([1, 1]), True)], 2)
        directions = [tuple(line) for line in lines] + [tuple(r) for r in rays]
        assert all(a + b == 0 for a, b in directions)

    def test_point_cone(self):
        lines, rays = cone_double_description(
            [
                (Vector([1, 0]), True),
                (Vector([0, 1]), True),
            ],
            2,
        )
        assert not lines and not rays


class TestPolyhedronConversions:
    def test_square_vertices(self):
        system = constraints_to_generators([x >= 0, x <= 1, y >= 0, y <= 1], ["x", "y"])
        # Vertices are rows (x, y, weight).
        assert sorted(system.vertices) == [
            (0, 0, 1),
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 1),
        ]
        assert not system.rays and not system.lines

    def test_unbounded_rays(self):
        system = constraints_to_generators([x >= 0, y >= 0, x - y <= 3], ["x", "y"])
        assert sorted(system.rays) == [(0, 1, 0), (1, 1, 0)]

    def test_empty_polyhedron(self):
        system = constraints_to_generators([x >= 1, x <= 0], ["x"])
        assert system.is_empty()

    def test_line_generator(self):
        system = constraints_to_generators([x >= 0], ["x", "y"])
        assert any(tuple(line)[0] == 0 for line in system.lines)

    def test_round_trip_square(self):
        original = Polyhedron(["x", "y"], [x >= 0, x <= 2, y >= 0, y <= 1])
        rebuilt = Polyhedron.from_generators(original.generators())
        assert rebuilt.equals(original)

    def test_round_trip_unbounded(self):
        original = Polyhedron(["x", "y"], [x >= 0, y >= 2])
        rebuilt = Polyhedron.from_generators(original.generators())
        assert rebuilt.equals(original)

    def test_generators_to_constraints_empty(self):
        constraints = generators_to_constraints(GeneratorSystem(("x",)))
        assert len(constraints) == 1
        assert constraints[0].is_trivially_false()

    def test_single_point(self):
        system = generator_system(("x", "y"), vertices=[[2, 3]])
        poly = Polyhedron.from_generators(system)
        assert poly.contains_point({"x": 2, "y": 3})
        assert not poly.contains_point({"x": 2, "y": 4})


class TestGeneratorSystem:
    def test_merge_keeps_distinct_vertices(self):
        a = generator_system(("x",), vertices=[[1]])
        b = generator_system(("x",), vertices=[[2]])
        assert len(a.merge(b).vertices) == 2

    def test_merge_dedupes_parallel_rays(self):
        a = generator_system(("x",), rays=[[1]])
        b = generator_system(("x",), rays=[[2]])
        assert len(a.merge(b).rays) == 1

    def test_contains_point_barycentric(self):
        square = Polyhedron.from_generators(
            constraints_to_generators([x >= 0, x <= 1, y >= 0, y <= 1], ["x", "y"])
        )
        assert square.contains_point({"x": Fraction(1, 2), "y": Fraction(1, 2)})
        assert not square.contains_point({"x": Fraction(2), "y": Fraction(0)})

    def test_difference_generators_tags(self):
        """``disjunct_generators`` tags one vertex and three rays: the ray
        along ``y`` plus both orientations of the line along ``y'``."""
        builder = AutomatonBuilder(["x", "y"], initial="k0")
        builder.transition(
            "k0", "k0", guard=[x > 0, y > 0], updates={"x": x - y, "y": None}
        )
        problem = Analysis(builder.build(), name="loop").problem()
        head = problem.cutset[0]
        x_next, y_next = prime_suffix("x"), prime_suffix("y")
        # The block havocs y on its edge into the head, so y' is free and
        # the line along it is a real direction of the step; x' = x − y,
        # so u = (y, y − y') and the ray along x (x' moving with x) maps
        # to 0 and is dropped.
        disjunct = TransitionDisjunct(
            head,
            head,
            (x >= 1, y >= 1, var(x_next).eq(x - y)),
            (x_next, y_next),
        )
        generators = disjunct_generators(problem, disjunct)
        tags = [tag for tag, _ in generators]
        assert tags == ["vertex", "ray", "ray", "ray"]
        vertex, ray, line, opposite = [vector for _, vector in generators]
        assert vertex == Vector([1, 1, 0]) and ray == Vector([1, 1, 0])
        assert line == -opposite and line != ray
