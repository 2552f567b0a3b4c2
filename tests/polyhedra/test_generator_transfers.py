"""The polyhedra domain on the generators: saturation redundancy and
generator-mapped transfer functions agree with the constraint algorithms.

* ``remove_redundant(rows, generators)`` keeps exactly the rows the
  sequential LP test keeps, in the same order;
* ``assign``/``havoc``/``project`` on a polyhedron with cached generators
  equal the Fourier–Motzkin results (on a polyhedron without them), also
  when the input or the image is lower-dimensional;
* a lower-dimensional image takes the counted Fourier–Motzkin fallback.
"""

from hypothesis import given, settings, strategies as st

from repro import metrics
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr, var
from repro.polyhedra.dd import constraints_to_generators
from repro.polyhedra.polyhedron import Polyhedron
from repro.polyhedra.projection import remove_redundant
from tests.polyhedra.generator_rows import generator_system

VARIABLES = ("x", "y", "z")
x, y, z = var("x"), var("y"), var("z")

coefficients = st.integers(min_value=-2, max_value=2)


@st.composite
def rows(draw):
    """One constraint over ``x, y, z``; equalities make systems
    lower-dimensional."""
    terms = {name: draw(coefficients) for name in VARIABLES}
    expr = LinExpr(terms, draw(st.integers(min_value=-3, max_value=3)))
    relation = draw(st.sampled_from([Relation.LE] * 5 + [Relation.EQ]))
    return Constraint(expr, relation)


@st.composite
def systems(draw):
    """A nonempty system, often with duplicated, scaled and implied rows
    and with implicit equalities (a row and its opposite)."""
    base = draw(st.lists(rows(), min_size=1, max_size=6))
    extra = []
    for row in base:
        choice = draw(st.integers(min_value=0, max_value=5))
        if choice == 0:
            extra.append(Constraint(row.expr * 2, row.relation))
        elif choice == 1 and row.relation is Relation.LE:
            extra.append(Constraint(-row.expr, Relation.LE))
        elif choice == 2 and row.relation is Relation.LE:
            extra.append(Constraint(row.expr - 1, Relation.LE))
    system = draw(st.permutations(base + extra))
    polyhedron = Polyhedron(VARIABLES, system)
    if polyhedron.is_empty():
        polyhedron = Polyhedron(VARIABLES, [x >= 0, x <= 2, y >= -1, y <= 1])
    return polyhedron


def fresh(polyhedron):
    """The same constraints, with no cached generators."""
    return Polyhedron(polyhedron.variables, polyhedron.constraints)


def with_generators(polyhedron):
    copy = fresh(polyhedron)
    copy.generators()
    return copy


expressions = st.builds(
    lambda a, b, c, k: LinExpr({"x": a, "y": b, "z": c}, k),
    coefficients,
    coefficients,
    coefficients,
    st.integers(min_value=-3, max_value=3),
)


class TestSaturationRedundancy:
    @given(systems())
    @settings(max_examples=150, deadline=None)
    def test_keeps_exactly_the_rows_the_lp_test_keeps(self, polyhedron):
        constraints = polyhedron.constraints
        system = constraints_to_generators(constraints, VARIABLES)
        assert remove_redundant(constraints, system) == remove_redundant(
            constraints
        )

    def test_full_dimensional_rows_need_no_lp(self):
        square = [x >= 0, x <= 1, y >= 0, y <= 1, z >= 0, z <= 1, x + y <= 5]
        system = constraints_to_generators(square, VARIABLES)
        with metrics.recording() as counters:
            kept = remove_redundant(square, system)
        assert len(kept) == 6
        assert counters.get("polyhedra.projection.lp_calls", 0) == 0
        assert counters["polyhedra.projection.rows_by_saturation"] == 7

    def test_duplicate_facets_of_a_flat_polyhedron(self):
        # In the plane z = 0 both x ≤ 1 and x + z ≤ 1 define the same
        # facet; the sequential test keeps the later one.
        rows = [z.eq(0), x <= 1, x + z <= 1, x >= 0, y >= 0, y <= 1]
        system = constraints_to_generators(rows, VARIABLES)
        assert remove_redundant(rows, system) == remove_redundant(rows)


class TestGeneratorTransfers:
    @given(systems(), st.sampled_from(VARIABLES), expressions)
    @settings(max_examples=120, deadline=None)
    def test_assign_equals_fourier_motzkin(self, polyhedron, name, expression):
        expected = fresh(polyhedron).assign(name, expression)
        actual = with_generators(polyhedron).assign(name, expression)
        assert actual.equals(expected)
        assert sorted(map(str, actual.constraints)) == sorted(
            map(str, expected.constraints)
        )

    @given(systems(), st.sampled_from(VARIABLES))
    @settings(max_examples=80, deadline=None)
    def test_havoc_equals_fourier_motzkin(self, polyhedron, name):
        expected = fresh(polyhedron).havoc(name)
        actual = with_generators(polyhedron).havoc(name)
        assert actual.equals(expected)
        assert sorted(map(str, actual.constraints)) == sorted(
            map(str, expected.constraints)
        )

    @given(systems(), st.sets(st.sampled_from(VARIABLES), min_size=1))
    @settings(max_examples=80, deadline=None)
    def test_project_equals_fourier_motzkin(self, polyhedron, kept):
        keep = [name for name in VARIABLES if name in kept]
        expected = fresh(polyhedron).project(keep)
        actual = with_generators(polyhedron).project(keep)
        assert actual.equals(expected)
        assert sorted(map(str, actual.constraints)) == sorted(
            map(str, expected.constraints)
        )

    @given(systems(), st.sampled_from(VARIABLES), expressions)
    @settings(max_examples=60, deadline=None)
    def test_staged_chain_equals_fourier_motzkin(self, polyhedron, name, expression):
        # extend_space, assign and project, as in a simultaneous update.
        def chain(start):
            extended = start.extend_space(VARIABLES + ("t",))
            extended = extended.assign("t", expression)
            extended = extended.assign(name, var("t"))
            return extended.project(VARIABLES)

        expected = chain(fresh(polyhedron))
        actual = chain(with_generators(polyhedron))
        assert actual.equals(expected)
        assert sorted(map(str, actual.constraints)) == sorted(
            map(str, expected.constraints)
        )

    def test_full_dimensional_image_is_mapped(self):
        box = with_generators(
            Polyhedron(VARIABLES, [x >= 0, x <= 2, y >= 0, y <= 2, z >= 0, z <= 1])
        )
        with metrics.recording() as counters:
            image = box.assign("x", x + y)
            assert not image.is_empty()
        assert counters["polyhedra.polyhedron.transfers_on_generators"] == 1
        assert "polyhedra.polyhedron.transfers_by_fm" not in counters
        assert counters["polyhedra.polyhedron.emptiness_without_lp"] == 1
        assert sorted(map(str, image.constraints)) == sorted(
            map(str, fresh(box).assign("x", x + y).constraints)
        )

    def test_lower_dimensional_image_takes_the_counted_fallback(self):
        box = with_generators(
            Polyhedron(VARIABLES, [x >= 0, x <= 2, y >= 0, y <= 2, z >= 0, z <= 1])
        )
        with metrics.recording() as counters:
            image = box.assign("x", LinExpr.constant(1))
            constraints = image.constraints
        assert counters["polyhedra.polyhedron.transfers_by_fm"] == 1
        assert "polyhedra.polyhedron.transfers_on_generators" not in counters
        assert counters["polyhedra.projection.variables_eliminated"] >= 1
        assert sorted(map(str, constraints)) == sorted(
            map(str, fresh(box).assign("x", LinExpr.constant(1)).constraints)
        )


class TestVertexlessGeneratorSystems:
    def test_rays_without_a_vertex_generate_the_empty_polyhedron(self):
        system = generator_system(("x", "y"), [], [[1, 0]])
        assert system.is_empty()
        polyhedron = Polyhedron.from_generators(system)
        assert [str(c) for c in polyhedron.constraints] == ["1 <= 0"]
        assert polyhedron.is_empty()

    def test_lines_without_a_vertex_contain_no_point(self):
        system = generator_system(("x",), [], [], [[1]])
        assert system.is_empty()
        assert not Polyhedron.from_generators(system).contains_point({"x": 0})

    def test_havoc_of_a_point_adds_a_line(self):
        point = with_generators(Polyhedron(("x", "y"), [x.eq(1), y.eq(2)]))
        havocked = point.havoc("x")
        assert havocked.equals(Polyhedron(("x", "y"), [y.eq(2)]))
