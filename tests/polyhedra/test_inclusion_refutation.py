"""Inclusion refuted on the generators agrees with the row-based test.

``Polyhedron.includes`` first tries to refute ``other ⊆ self`` on the
generators when ``self``'s constraints are still pending: a generator of
``other`` outside the bounding box of ``self``'s generators lies outside
``self``.  Over random pairs of generator systems (rays, lines and
lower-dimensional systems included) the answer must equal the test on
``self``'s rows, and the refutation must never fire when inclusion holds.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro import metrics
from repro.polyhedra.generators import GeneratorSystem
from repro.polyhedra.polyhedron import Polyhedron
from tests.polyhedra.generator_rows import generator_system

VARIABLES = ("x", "y", "z")

entries = st.integers(min_value=-3, max_value=3)
halves = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.just(2))


def vectors(values):
    return st.lists(values, min_size=3, max_size=3)


@st.composite
def generator_systems(draw):
    """A nonempty system; a projection onto a plane or a line through the
    origin makes it lower-dimensional."""
    vertices = draw(st.lists(vectors(halves), min_size=1, max_size=4))
    rays = draw(st.lists(vectors(entries), max_size=2))
    lines = draw(st.lists(vectors(entries), max_size=1))
    flatten = draw(st.sampled_from([None, None, "z", "xy"]))
    if flatten == "z":
        # Every generator in the plane z = 1 (vertices) or z = 0 (directions).
        vertices = [[v[0], v[1], 1] for v in vertices]
        rays = [[r[0], r[1], 0] for r in rays]
        lines = [[line[0], line[1], 0] for line in lines]
    elif flatten == "xy":
        # Every generator on the line x = y = z.
        vertices = [[v[0]] * 3 for v in vertices]
        rays = [[r[0]] * 3 for r in rays]
        lines = [[line[0]] * 3 for line in lines]
    return generator_system(
        VARIABLES,
        vertices,
        [r for r in rays if any(r)],
        [line for line in lines if any(line)],
    )


def by_rows(system):
    """The polyhedron of *system* with its constraints known and no
    generators cached, so ``includes`` tests its rows."""
    return Polyhedron(VARIABLES, Polyhedron.from_generators(system).constraints)


@given(generator_systems(), generator_systems())
@settings(max_examples=300, deadline=None)
def test_includes_equals_the_row_based_test(mine, theirs):
    expected = by_rows(mine).includes(Polyhedron.from_generators(theirs))
    refuted = mine.box_excludes(theirs)
    assert not (refuted and expected)
    with metrics.recording() as counters:
        verdict = Polyhedron.from_generators(mine).includes(
            Polyhedron.from_generators(theirs)
        )
    assert verdict == expected
    if refuted:
        assert counters == {
            "polyhedra.polyhedron.inclusion_refuted_on_generators": 1
        }
    else:
        assert counters["polyhedra.polyhedron.inclusion_by_rows"] == 1


@given(generator_systems())
@settings(max_examples=100, deadline=None)
def test_a_system_never_refutes_itself_or_its_parts(system):
    assert not system.box_excludes(system)
    part = GeneratorSystem(VARIABLES, system.vertices[:1])
    assert not system.box_excludes(part)


def test_each_kind_of_generator_refutes():
    square = generator_system(
        VARIABLES, [[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 0, 1]]
    )
    beyond = generator_system(VARIABLES, [[Fraction(5, 2), 0, 0]])
    ray_out = generator_system(VARIABLES, [[0, 0, 0]], [[-1, 0, 0]])
    along = generator_system(VARIABLES, [[0, 0, 0]], [], [[0, 1, 0]])
    unbounded_side = generator_system(VARIABLES, [[0, 0, 7]], [[0, 0, 3]])
    assert square.box_excludes(beyond)
    assert square.box_excludes(ray_out)
    assert square.box_excludes(along)
    # z is unbounded above: a vertex and a ray up there stay undecided.
    assert not square.box_excludes(unbounded_side)
