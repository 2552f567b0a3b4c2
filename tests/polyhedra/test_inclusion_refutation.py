"""Inclusion decided on the generators agrees with the row-based test.

``Polyhedron.includes`` first tries to decide ``other ⊆ self`` on the
generators when ``self``'s constraints are still pending: a generator of
``other`` outside the bounding box of ``self``'s generators lies outside
``self``, and ``other``'s generators all among ``self``'s lie inside it.
Over random pairs of generator systems (rays, lines and
lower-dimensional systems included, and systems drawn from the rows of
the other) the answer must equal the test on ``self``'s rows, exactly one
of the three inclusion counters fires, and the refutation must never
fire when inclusion holds.
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


@st.composite
def rows_of(draw, system):
    """A nonempty system whose every generator is one of *system*'s: some
    of its vertices and rays, and some of its lines, each kept as a line
    or as a ray, either way."""
    vertices = draw(
        st.lists(st.sampled_from(system.vertices), min_size=1, unique=True)
    )
    rays = draw(st.lists(st.sampled_from(system.rays), unique=True)) if system.rays else []
    lines = []
    for line in system.lines:
        choice = draw(st.sampled_from(["drop", "line", "ray"]))
        if choice == "drop":
            continue
        if draw(st.booleans()):
            line = tuple(-value for value in line)
        (lines if choice == "line" else rays).append(line)
    return GeneratorSystem(VARIABLES, vertices, rays, lines)


@st.composite
def system_pairs(draw):
    """``(mine, theirs)``: two independent systems, or *theirs* drawn from
    *mine*'s rows."""
    mine = draw(generator_systems())
    if draw(st.booleans()):
        return mine, draw(rows_of(mine))
    return mine, draw(generator_systems())


def among(theirs, mine):
    """Whether every row of *theirs* is one of *mine*'s (a ray may be a
    line of *mine*, and a line may be negated)."""
    lines = set(mine.lines) | {tuple(-v for v in line) for line in mine.lines}
    return (
        set(theirs.vertices) <= set(mine.vertices)
        and set(theirs.rays) <= set(mine.rays) | lines
        and set(theirs.lines) <= lines
    )


INCLUSION_COUNTERS = (
    "polyhedra.polyhedron.inclusion_refuted_on_generators",
    "polyhedra.polyhedron.inclusion_by_generator_rows",
    "polyhedra.polyhedron.inclusion_by_rows",
)


@given(system_pairs())
@settings(max_examples=400, deadline=None)
def test_includes_equals_the_row_based_test(pair):
    mine, theirs = pair
    expected = by_rows(mine).includes(Polyhedron.from_generators(theirs))
    refuted = mine.box_excludes(theirs)
    assert not (refuted and expected)
    with metrics.recording() as counters:
        verdict = Polyhedron.from_generators(mine).includes(
            Polyhedron.from_generators(theirs)
        )
    assert verdict == expected
    fired = [name for name in INCLUSION_COUNTERS if counters.get(name)]
    assert len(fired) == 1 and counters[fired[0]] == 1
    if refuted:
        assert fired == [INCLUSION_COUNTERS[0]]
    else:
        by_generator_rows = fired == [INCLUSION_COUNTERS[1]]
        assert by_generator_rows == among(theirs, mine)


@given(generator_systems())
@settings(max_examples=100, deadline=None)
def test_a_system_never_refutes_itself_or_its_parts(system):
    assert not system.box_excludes(system)
    part = GeneratorSystem(VARIABLES, system.vertices[:1])
    assert not system.box_excludes(part)


def test_rows_of_a_system_are_included_without_its_constraints():
    square = generator_system(
        VARIABLES, [[0, 0, 0], [2, 0, 0], [0, 2, 0]], [[0, 0, 1]], [[1, 1, 0]]
    )
    corner = generator_system(VARIABLES, [[2, 0, 0]], [[-1, -1, 0]])
    assert square.has_rows_of(corner)
    assert not square.has_rows_of(generator_system(VARIABLES, [[1, 0, 0]]))
    assert not square.has_rows_of(
        generator_system(VARIABLES, [[0, 0, 0]], [], [[0, 0, 1]])
    )
    mine = Polyhedron.from_generators(square)
    with metrics.recording() as counters:
        assert mine.includes(Polyhedron.from_generators(corner))
    assert counters == {"polyhedra.polyhedron.inclusion_by_generator_rows": 1}
    assert mine._constraints is None


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
