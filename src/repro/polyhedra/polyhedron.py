"""Constraint-representation polyhedra and the lattice operations on them.

:class:`Polyhedron` is the value manipulated by the polyhedral abstract
domain (our Aspic/Pagai substitute) and by the eager Ben-Amram & Genaim
baseline.  It is a *closed convex rational* polyhedron as in Definition 1
of the paper, described by a conjunction of non-strict inequalities and
equalities over a fixed tuple of variables.

Like PPL and NewPolka, a polyhedron also keeps what it learns about its
other representation, lazily and exactly:

* the *generator system* (vertices, rays, lines), either the one it was
  built from by :meth:`Polyhedron.from_generators` or the memoised result
  of the double-description conversion; inclusion and entailment are then
  decided on the generators instead of one LP per constraint;
* a *witness point*, one point known to lie in the polyhedron (from a
  feasibility LP, a vertex, or carried through the operation that built
  it), which settles :meth:`Polyhedron.is_empty` without an LP.

Both caches are private and never mutated once set; a polyhedron is
immutable as far as its callers can tell.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.problem import Sense
from repro.lp.simplex import check_feasibility, solve_lp
from repro.polyhedra.dd import (
    constraints_to_generators,
    generators_to_constraints,
)
from repro.polyhedra.generators import GeneratorSystem
from repro.polyhedra.projection import (
    entails,
    project_constraints,
    remove_redundant,
)


class Polyhedron:
    """A closed convex polyhedron ``{x | constraints}`` over named variables."""

    def __init__(
        self,
        variables: Sequence[str],
        constraints: Iterable[Constraint] = (),
    ):
        self._variables: Tuple[str, ...] = tuple(variables)
        cleaned: List[Constraint] = []
        for constraint in constraints:
            unknown = constraint.variables() - set(self._variables)
            if unknown:
                raise ValueError(
                    "constraint %s mentions variables %s outside the space"
                    % (constraint, sorted(unknown))
                )
            cleaned.append(constraint.weaken().normalized())
        self._constraints = cleaned
        self._empty_cache: Optional[bool] = None
        self._generators: Optional[GeneratorSystem] = None
        self._witness: Optional[Dict[str, Fraction]] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def universe(cls, variables: Sequence[str]) -> "Polyhedron":
        """The whole space (no constraints)."""
        result = cls(variables, [])
        result._set_witness({name: Fraction(0) for name in result._variables})
        return result

    @classmethod
    def empty(cls, variables: Sequence[str]) -> "Polyhedron":
        """The canonical empty polyhedron."""
        result = cls(variables, [Constraint(LinExpr.constant(1), Relation.LE)])
        result._set_empty()
        return result

    @classmethod
    def from_generators(cls, system: GeneratorSystem) -> "Polyhedron":
        """Build the constraint representation from a generator system.

        The result keeps *system* as its generator system.
        """
        result = cls(system.variables, generators_to_constraints(system))
        result._set_generators(system)
        return result

    # -- accessors -----------------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._variables

    @property
    def constraints(self) -> List[Constraint]:
        """The defining constraints (Definition 5's ``Constraints(I)``)."""
        return list(self._constraints)

    def __repr__(self) -> str:
        if not self._constraints:
            return "Polyhedron(universe over %s)" % (list(self._variables),)
        return "Polyhedron(%s)" % " ∧ ".join(
            str(constraint) for constraint in self._constraints
        )

    # -- predicates ----------------------------------------------------------

    def is_empty(self) -> bool:
        """Exact emptiness test: a known point or generator system settles
        it, otherwise an LP feasibility check (whose solution is kept)."""
        if self._empty_cache is None:
            outcome = check_feasibility(
                self._constraints, variables=self._variables
            )
            if outcome.is_infeasible:
                self._set_empty()
            else:
                self._set_witness(
                    {
                        name: outcome.assignment.get(name, Fraction(0))
                        for name in self._variables
                    }
                )
        return self._empty_cache

    def is_universe(self) -> bool:
        return all(c.is_trivially_true() for c in self._constraints)

    def contains_point(self, point: Mapping[str, Fraction]) -> bool:
        return all(c.satisfied_by(point) for c in self._constraints)

    def entails_constraint(self, candidate: Constraint) -> bool:
        """Whether every point of the polyhedron satisfies *candidate*.

        Decided on the generators when they are known, else by an LP.
        """
        if self._generators is not None:
            return _generated_satisfy(self._generators, candidate)
        return entails(self._constraints, candidate)

    def includes(self, other: "Polyhedron") -> bool:
        """Whether *other* ⊆ *self*: every generator of *other* obeys
        every constraint of *self*."""
        system = other.generators()
        return all(
            _generated_satisfy(system, constraint)
            for constraint in self._constraints
        )

    def equals(self, other: "Polyhedron") -> bool:
        return self.includes(other) and other.includes(self)

    # -- lattice operations ----------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        self._check_space(other)
        result = Polyhedron(
            self._variables, self._constraints + other._constraints
        )
        if self._empty_cache or other._empty_cache:
            result._set_empty()
        else:
            result._adopt_point(self, other._constraints)
            result._adopt_point(other, self._constraints)
        return result

    def intersect_constraints(
        self, constraints: Iterable[Constraint]
    ) -> "Polyhedron":
        result = Polyhedron(
            self._variables, self._constraints + list(constraints)
        )
        if self._empty_cache:
            result._set_empty()
        else:
            added = result._constraints[len(self._constraints):]
            result._adopt_point(self, added)
        return result

    def join(self, other: "Polyhedron") -> "Polyhedron":
        """Convex hull of the union (the abstract-domain join)."""
        self._check_space(other)
        mine = self.generators()
        if mine.is_empty():
            return other
        theirs = other.generators()
        if theirs.is_empty():
            return self
        return Polyhedron.from_generators(mine.merge(theirs))

    def widen(self, other: "Polyhedron") -> "Polyhedron":
        """Standard widening: keep the constraints of *self* that *other* obeys.

        ``self`` is the previous iterate, ``other`` the new one; the result
        is an upper bound of both that guarantees termination of the
        ascending iteration sequence.
        """
        self._check_space(other)
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        candidates: List[Constraint] = []
        for constraint in self._constraints:
            if constraint.is_equality():
                # Split equalities so that one half can survive widening even
                # when the other is lost (e.g. ``j = 0`` keeps ``j ≥ 0``).
                candidates.append(Constraint(constraint.expr, Relation.LE))
                candidates.append(Constraint(-constraint.expr, Relation.LE))
            else:
                candidates.append(constraint)
        stable = [
            constraint
            for constraint in candidates
            if other.entails_constraint(constraint)
        ]
        # The result contains both operands, so either one's point is in it.
        witness = self._witness if self._witness is not None else other._witness
        return self._derived(self._variables, stable, witness)

    # -- geometric operations ----------------------------------------------------

    def generators(self) -> GeneratorSystem:
        """The generator system (vertices, rays, lines).

        The system the polyhedron was built from, else the memoised
        double-description result; it is shared, so callers must not
        mutate it.
        """
        if self._generators is None:
            if self._empty_cache:
                self._set_generators(GeneratorSystem(self._variables))
            else:
                self._set_generators(
                    constraints_to_generators(
                        self._constraints, self._variables
                    )
                )
        return self._generators

    def project(self, keep: Sequence[str]) -> "Polyhedron":
        """Orthogonal projection onto the variables in *keep*."""
        projected = project_constraints(self._constraints, keep)
        witness = self._witness
        if witness is not None:
            witness = {name: witness.get(name, Fraction(0)) for name in keep}
        return self._derived(tuple(keep), projected, witness)

    def rename(self, mapping: Mapping[str, str]) -> "Polyhedron":
        new_variables = tuple(mapping.get(v, v) for v in self._variables)
        witness = self._witness
        if witness is not None:
            witness = {
                mapping.get(name, name): value
                for name, value in witness.items()
            }
        return self._derived(
            new_variables,
            [constraint.rename(mapping) for constraint in self._constraints],
            witness,
        )

    def extend_space(self, variables: Sequence[str]) -> "Polyhedron":
        """Embed into a larger space (new variables unconstrained)."""
        missing = [v for v in self._variables if v not in variables]
        if missing:
            raise ValueError("extended space misses variables %s" % missing)
        witness = self._witness
        if witness is not None:
            witness = {name: witness.get(name, Fraction(0)) for name in variables}
        return self._derived(tuple(variables), self._constraints, witness)

    def assign(self, variable: str, expression: LinExpr) -> "Polyhedron":
        """Strongest postcondition of the assignment ``variable := expression``."""
        if variable not in self._variables:
            raise ValueError("unknown variable %r" % variable)
        fresh = variable + "!old"
        renaming = {variable: fresh}
        renamed = [c.rename(renaming) for c in self._constraints]
        new_value = LinExpr.variable(variable) - expression.rename(renaming)
        renamed.append(Constraint(new_value, Relation.EQ))
        kept = project_constraints(renamed, self._variables)
        witness = self._witness
        if witness is not None and expression.variables() <= witness.keys():
            witness = dict(witness)
            witness[variable] = expression.evaluate(self._witness)
        else:
            witness = None
        return self._derived(self._variables, kept, witness)

    def havoc(self, variable: str) -> "Polyhedron":
        """Forget everything about *variable* (nondeterministic assignment)."""
        if variable not in self._variables:
            raise ValueError("unknown variable %r" % variable)
        others = [v for v in self._variables if v != variable]
        kept = project_constraints(self._constraints, others)
        return self._derived(self._variables, kept, self._witness)

    def minimized(self) -> "Polyhedron":
        """An equivalent polyhedron without redundant constraints."""
        if self.is_empty():
            return Polyhedron.empty(self._variables)
        result = Polyhedron(
            self._variables, remove_redundant(self._constraints)
        )
        result._set_witness(self._witness)
        return result

    def bounds(self, expression: LinExpr) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """Exact (min, max) of *expression* over the polyhedron.

        ``None`` means unbounded in that direction; both are ``None`` for an
        empty polyhedron.
        """
        if self.is_empty():
            return (None, None)
        low = solve_lp(
            expression, self._constraints, Sense.MINIMIZE, self._variables
        )
        high = solve_lp(
            expression, self._constraints, Sense.MAXIMIZE, self._variables
        )
        return (
            low.objective if low.is_optimal else None,
            high.objective if high.is_optimal else None,
        )

    # -- misc ------------------------------------------------------------------

    def constraint_vectors(self) -> List[Tuple["LinExpr", Fraction]]:
        """The ``(a_i, b_i)`` pairs of Definition 5 (``a_i · x ≥ b_i``).

        Every stored constraint ``expr ≤ 0`` (with ``expr = c·x + c0``) is
        flipped into ``(-c)·x ≥ c0``; equalities contribute two pairs.
        """
        pairs: List[Tuple[LinExpr, Fraction]] = []
        for constraint in self._constraints:
            expr = constraint.expr
            homogeneous = expr - expr.constant_term
            pairs.append((-homogeneous, expr.constant_term))
            if constraint.is_equality():
                pairs.append((homogeneous, -expr.constant_term))
        return pairs

    # -- the cached second representation -------------------------------------

    def _set_empty(self) -> None:
        self._empty_cache = True
        self._witness = None

    def _set_witness(self, point: Dict[str, Fraction]) -> None:
        self._empty_cache = False
        self._witness = point

    def _set_generators(self, system: GeneratorSystem) -> None:
        self._generators = system
        if system.vertices:
            self._set_witness(dict(zip(self._variables, system.vertices[0])))
        elif system.is_empty():
            self._set_empty()

    def _known_points(self) -> Iterator[Dict[str, Fraction]]:
        if self._witness is not None:
            yield self._witness
        if self._generators is not None:
            for vertex in self._generators.vertices:
                yield dict(zip(self._generators.variables, vertex))

    def _adopt_point(
        self, superset: "Polyhedron", rows: Sequence[Constraint]
    ) -> None:
        """Keep a known point of *superset* that satisfies *rows*, the
        constraints that cut this polyhedron out of *superset*."""
        if self._witness is not None:
            return
        for point in superset._known_points():
            if all(_holds_at(row, point) for row in rows):
                self._set_witness(point)
                return

    def _derived(
        self,
        variables: Sequence[str],
        constraints: Iterable[Constraint],
        witness: Optional[Dict[str, Fraction]],
    ) -> "Polyhedron":
        """A polyhedron computed from this one by a projection-like
        operation: empty when this one is, else containing *witness*."""
        result = Polyhedron(variables, constraints)
        if self._empty_cache:
            result._set_empty()
        elif witness is not None:
            result._set_witness(witness)
        return result

    def _check_space(self, other: "Polyhedron") -> None:
        if self._variables != other._variables:
            raise ValueError(
                "polyhedra over different variable tuples: %s vs %s"
                % (self._variables, other._variables)
            )


def _holds_at(constraint: Constraint, point: Mapping[str, Fraction]) -> bool:
    value = constraint.expr.evaluate(point)
    if constraint.is_equality():
        return value == 0
    return value < 0 if constraint.is_strict() else value <= 0


def _generated_satisfy(system: GeneratorSystem, constraint: Constraint) -> bool:
    """Whether every point generated by *system* satisfies *constraint*.

    With ``constraint`` as ``a·x + c ⋈ 0``: every vertex must satisfy it,
    ``a·r ≤ 0`` for every ray (``= 0`` for an equality) and ``a·l = 0``
    for every line.
    """
    if not system.vertices:
        return True  # the empty polyhedron entails everything
    position = {name: index for index, name in enumerate(system.variables)}
    terms = []
    for name, coefficient in constraint.expr.terms.items():
        if name not in position:
            return False  # a free coordinate outside the space
        terms.append((position[name], coefficient))
    constant = constraint.expr.constant_term
    equality = constraint.is_equality()
    strict = constraint.is_strict()

    def direction(vector) -> Fraction:
        return sum(coefficient * vector[index] for index, coefficient in terms)

    for line in system.lines:
        if direction(line) != 0:
            return False
    for ray in system.rays:
        value = direction(ray)
        if value > 0 or (equality and value != 0):
            return False
    for vertex in system.vertices:
        value = direction(vertex) + constant
        if value > 0 or (equality and value != 0) or (strict and value == 0):
            return False
    return True
