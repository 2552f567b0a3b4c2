"""Constraint-representation polyhedra and the lattice operations on them.

:class:`Polyhedron` is the abstract value the invariant analyzer
(:mod:`repro.invariants.analyzer`, our Aspic/Pagai substitute)
propagates.  It is a *closed convex rational* polyhedron as in
Definition 1 of the paper, described by a conjunction of non-strict
inequalities and equalities over a fixed tuple of variables.

Like PPL and NewPolka, a polyhedron also keeps what it learns about its
other representation, lazily and exactly:

* the *generator system* (vertices, rays, lines), either the one it was
  built from by :meth:`Polyhedron.from_generators` or the memoised result
  of the double-description conversion; inclusion, entailment and
  emptiness are then decided on the generators instead of by LPs;
* an *emptiness flag* (unknown, empty or nonempty), which settles
  :meth:`Polyhedron.is_empty` without an LP.  Generators set it, and so
  does the one feasibility LP; a transfer, renaming or embedding
  inherits it from its operand; a widening contains its nonempty new
  iterate; an intersection is nonempty when one operand, nonempty by
  its cached generators, is included in the other.

When the generators are cached, the transfer functions (:meth:`assign`,
:meth:`havoc`, :meth:`project`) map them through the affine operation
instead of running Fourier–Motzkin on the constraints.  A
full-dimensional image has a unique irredundant normalised constraint
system, its facets, so its constraints are converted back from the
generators -- only when a caller first reads them -- and read exactly as
the Fourier–Motzkin result would.  A lower-dimensional image keeps the
Fourier–Motzkin path (its equalities could otherwise be written
differently, and :meth:`widen` is syntactic), run when the constraints
are first read.  The ``polyhedra.polyhedron.*`` counters record which
path each transfer took and how each emptiness test was settled.

Caches are private and never mutated once set; a polyhedron is
immutable as far as its callers can tell.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Iterable,
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
from repro.metrics import count
from repro.polyhedra.dd import (
    constraints_to_generators,
    generators_to_constraints,
)
from repro.polyhedra.generators import GeneratorSystem, Output
from repro.polyhedra.projection import (
    entails,
    project_constraints,
    remove_redundant,
)

#: ``1 ≤ 0``, the one row of the canonical empty polyhedron.
_FALSE = Constraint(LinExpr.constant(1), Relation.LE).normalized()

#: Computes the constraints of a transfer's result from its input's
#: constraints and, when known, the generators of the result.
_Fallback = Callable[[List[Constraint], Optional[GeneratorSystem]], List[Constraint]]


class Polyhedron:
    """A closed convex polyhedron ``{x | constraints}`` over named variables."""

    def __init__(
        self,
        variables: Sequence[str],
        constraints: Iterable[Constraint] = (),
    ):
        self._variables: Tuple[str, ...] = tuple(variables)
        cleaned = _closed_rows(self._variables, constraints)
        #: ``None`` until :attr:`_pending` has computed them.
        self._constraints: Optional[List[Constraint]] = cleaned
        self._pending: Optional[Callable[[], List[Constraint]]] = None
        #: The emptiness flag: ``None`` while unknown.
        self._empty_cache: Optional[bool] = None
        self._generators: Optional[GeneratorSystem] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def universe(cls, variables: Sequence[str]) -> "Polyhedron":
        """The whole space (no constraints)."""
        result = cls(variables, [])
        result._empty_cache = False
        return result

    @classmethod
    def empty(cls, variables: Sequence[str]) -> "Polyhedron":
        """The canonical empty polyhedron."""
        result = cls._of_rows(tuple(variables), [_FALSE])
        result._empty_cache = True
        return result

    @classmethod
    def from_generators(cls, system: GeneratorSystem) -> "Polyhedron":
        """The polyhedron generated by *system*, which it keeps as its
        generator system; the constraints are converted when first read
        (a widened join never reads them)."""
        return cls._lazy(
            system.variables, lambda: generators_to_constraints(system), system
        )

    # -- accessors -----------------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._variables

    @property
    def constraints(self) -> List[Constraint]:
        """The defining constraints (Definition 5's ``Constraints(I)``)."""
        return list(self._rows())

    def __repr__(self) -> str:
        rows = self._rows()
        if not rows:
            return "Polyhedron(universe over %s)" % (list(self._variables),)
        return "Polyhedron(%s)" % " ∧ ".join(str(constraint) for constraint in rows)

    # -- predicates ----------------------------------------------------------

    def is_empty(self) -> bool:
        """Exact emptiness test: the emptiness flag when it is known,
        otherwise an LP feasibility check (whose verdict sets the flag)."""
        if self._empty_cache is not None:
            count("polyhedra.polyhedron.emptiness_without_lp")
            return self._empty_cache
        count("polyhedra.polyhedron.emptiness_by_lp")
        outcome = check_feasibility(self._rows(), variables=self._variables)
        self._empty_cache = outcome.is_infeasible
        return self._empty_cache

    def is_universe(self) -> bool:
        return all(c.is_trivially_true() for c in self._rows())

    def contains_point(self, point: Mapping[str, Fraction]) -> bool:
        return all(c.satisfied_by(point) for c in self._rows())

    def entails_constraint(self, candidate: Constraint) -> bool:
        """Whether every point of the polyhedron satisfies *candidate*.

        Decided on the generators when they are known, else by an LP.
        """
        if self._generators is not None:
            return _satisfaction_test(self._generators)(candidate)
        return entails(self._rows(), candidate)

    def includes(self, other: "Polyhedron") -> bool:
        """Whether *other* ⊆ *self*: every generator of *other* obeys
        every constraint of *self*.

        With *self*'s generators cached, they try to decide first.  While
        its constraints are pending behind them, a generator of *other*
        outside their bounding box refutes the inclusion
        (``polyhedra.polyhedron.inclusion_refuted_on_generators``), which
        saves converting them; and *other*'s generators all among them
        prove it (``polyhedra.polyhedron.inclusion_by_generator_rows``),
        with no row read.  Otherwise the rows decide
        (``polyhedra.polyhedron.inclusion_by_rows``).
        """
        system = other.generators()
        mine = self._generators
        if mine is not None:
            if self._constraints is None and mine.box_excludes(system):
                count("polyhedra.polyhedron.inclusion_refuted_on_generators")
                return False
            if mine.has_rows_of(system):
                count("polyhedra.polyhedron.inclusion_by_generator_rows")
                return True
        count("polyhedra.polyhedron.inclusion_by_rows")
        satisfied = _satisfaction_test(system)
        return all(satisfied(constraint) for constraint in self._rows())

    def equals(self, other: "Polyhedron") -> bool:
        return self.includes(other) and other.includes(self)

    # -- lattice operations ----------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """The conjunction of both constraint systems.

        When one operand is nonempty with cached generators and the other
        includes it, the intersection is that operand, so it is nonempty
        too.  A full-dimensional such operand also lends it its
        generators, and the joined constraints are only built when read.
        """
        self._check_space(other)
        empty = True if self._empty_cache or other._empty_cache else None
        if empty is None:
            for inner, outer in ((other, self), (self, other)):
                system = inner._generators
                if system is None or system.is_empty() or not outer.includes(inner):
                    continue
                if system.is_full_dimensional():
                    return self._lazy(
                        self._variables,
                        lambda: self._rows() + other._rows(),
                        system,
                    )
                empty = False
        result = self._of_rows(self._variables, self._rows() + other._rows())
        result._empty_cache = empty
        return result

    def intersect_constraints(
        self, constraints: Iterable[Constraint]
    ) -> "Polyhedron":
        added = _closed_rows(self._variables, constraints)
        if not added:
            return self
        result = self._of_rows(self._variables, self._rows() + added)
        if self._empty_cache:
            result._empty_cache = True
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

    def widen(
        self, other: "Polyhedron", thresholds: Sequence[Constraint] = ()
    ) -> "Polyhedron":
        """Standard widening up to *thresholds*: keep the constraints of
        *self* that *other* obeys, then add back the thresholds *other*
        obeys that the widened rows no longer entail (Halbwachs' "widening
        up to", PPL's limited extrapolation).

        ``self`` is the previous iterate, ``other`` the new one; the result
        is an upper bound of both that guarantees termination of the
        ascending iteration sequence.  Past the emptiness tests it
        contains the nonempty *other*, so it is known nonempty.
        """
        self._check_space(other)
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        candidates: List[Constraint] = []
        for constraint in self._rows():
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
        result = Polyhedron(self._variables, stable)
        obeyed = [
            threshold
            for threshold in thresholds
            if other.entails_constraint(threshold)
        ]
        if obeyed:
            # One conversion of the widened rows decides every threshold
            # on generators, instead of one entailment LP per threshold.
            satisfied = _satisfaction_test(
                constraints_to_generators(stable, self._variables)
            )
            kept = [threshold for threshold in obeyed if not satisfied(threshold)]
            if kept:
                result = Polyhedron(self._variables, stable + kept)
        result._empty_cache = False
        return result

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
                    constraints_to_generators(self._rows(), self._variables)
                )
        return self._generators

    def project(self, keep: Sequence[str]) -> "Polyhedron":
        """Orthogonal projection onto the variables in *keep*."""
        keep = tuple(keep)
        position = self._positions()
        outputs: Optional[List[Output]] = None
        if set(keep) <= position.keys():
            outputs = [position[name] for name in keep]
        return self._transfer(
            keep,
            outputs,
            lambda rows, image: project_constraints(rows, keep, generators=image),
        )

    def rename(self, mapping: Mapping[str, str]) -> "Polyhedron":
        new_variables = tuple(mapping.get(v, v) for v in self._variables)
        system = self._generators
        if system is not None:
            system = system.renamed(new_variables)
        return self._reembedded(
            new_variables,
            lambda rows: [constraint.rename(mapping) for constraint in rows],
            system,
        )

    def extend_space(self, variables: Sequence[str]) -> "Polyhedron":
        """Embed into a larger space (new variables unconstrained)."""
        missing = [v for v in self._variables if v not in variables]
        if missing:
            raise ValueError("extended space misses variables %s" % missing)
        variables = tuple(variables)
        system = self._generators
        if system is not None:
            position = self._positions()
            system = system.affine_image(
                variables, [position.get(name) for name in variables]
            )
        return self._reembedded(variables, list, system)

    def assign(self, variable: str, expression: LinExpr) -> "Polyhedron":
        """Strongest postcondition of the assignment ``variable := expression``."""
        if variable not in self._variables:
            raise ValueError("unknown variable %r" % variable)
        position = self._positions()
        outputs: Optional[List[Output]] = None
        if expression.variables() <= position.keys():
            outputs = list(range(len(self._variables)))
            outputs[position[variable]] = (
                [(position[name], value) for name, value in expression.terms.items()],
                expression.constant_term,
            )
        fresh = variable + "!old"
        renaming = {variable: fresh}
        new_value = LinExpr.variable(variable) - expression.rename(renaming)

        def fallback(rows, image):
            renamed = [c.rename(renaming) for c in rows]
            renamed.append(Constraint(new_value, Relation.EQ))
            return project_constraints(renamed, self._variables, generators=image)

        return self._transfer(self._variables, outputs, fallback)

    def havoc(self, variable: str) -> "Polyhedron":
        """Forget everything about *variable* (nondeterministic assignment)."""
        if variable not in self._variables:
            raise ValueError("unknown variable %r" % variable)
        others = [v for v in self._variables if v != variable]
        outputs: List[Output] = [
            None if name == variable else index
            for index, name in enumerate(self._variables)
        ]
        return self._transfer(
            self._variables,
            outputs,
            lambda rows, image: project_constraints(rows, others, generators=image),
        )

    def minimized(self) -> "Polyhedron":
        """An equivalent polyhedron without redundant constraints.

        The generators (converted if need be) settle emptiness and decide
        redundancy by saturation; only the rows they leave open need LPs.
        The result is known nonempty but does not keep the generators:
        minimised polyhedra are the invariants a problem holds on to.
        """
        system = self.generators()
        if system.is_empty():
            return Polyhedron.empty(self._variables)
        result = self._of_rows(
            self._variables, remove_redundant(self._rows(), system)
        )
        result._empty_cache = False
        return result

    def minimized_when_read(self) -> "Polyhedron":
        """:meth:`minimized`, run only when the result's constraints are
        first read.  The result inherits the emptiness flag and keeps no
        generators; until it is read, it keeps this polyhedron alive."""
        result = self._lazy(self._variables, lambda: self.minimized()._rows())
        result._empty_cache = self._empty_cache
        return result

    def bounds(self, expression: LinExpr) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """Exact (min, max) of *expression* over the polyhedron.

        ``None`` means unbounded in that direction; both are ``None`` for an
        empty polyhedron.
        """
        if self.is_empty():
            return (None, None)
        rows = self._rows()
        low = solve_lp(expression, rows, Sense.MINIMIZE, self._variables)
        high = solve_lp(expression, rows, Sense.MAXIMIZE, self._variables)
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
        for constraint in self._rows():
            expr = constraint.expr
            homogeneous = expr - expr.constant_term
            pairs.append((-homogeneous, expr.constant_term))
            if constraint.is_equality():
                pairs.append((homogeneous, -expr.constant_term))
        return pairs

    # -- the cached second representation -------------------------------------

    def _rows(self) -> List[Constraint]:
        """The constraints, computed on first use when they are pending."""
        if self._constraints is None:
            self._constraints = [_closed(constraint) for constraint in self._pending()]
            self._pending = None
        return self._constraints

    def _positions(self) -> Dict[str, int]:
        return {name: index for index, name in enumerate(self._variables)}

    def _transfer(
        self,
        variables: Tuple[str, ...],
        outputs: Optional[Sequence[Output]],
        fallback: _Fallback,
    ) -> "Polyhedron":
        """The image of this polyhedron under the affine map *outputs*.

        With the generators cached (and *outputs* given), they are mapped
        through it.  A full-dimensional image converts back to its facets
        when its constraints are read.  A lower-dimensional one runs
        *fallback* (Fourier–Motzkin) when they are read, with the image's
        generators deciding redundancy, and does not keep them: its
        generators are converted from its constraints, as without them,
        because :meth:`join` writes its equalities from them.  Either way
        the image inherits the emptiness flag.
        """
        system = self._generators
        if outputs is None or system is None or not system.vertices:
            count("polyhedra.polyhedron.transfers_by_fm")
            result = Polyhedron(variables, fallback(self._rows(), None))
            result._empty_cache = self._empty_cache
            return result
        image = system.affine_image(variables, outputs)
        if image.is_full_dimensional():
            count("polyhedra.polyhedron.transfers_on_generators")
            return self._lazy(
                variables,
                lambda: remove_redundant(generators_to_constraints(image), image),
                image,
            )
        count("polyhedra.polyhedron.transfers_by_fm")
        result = self._lazy(variables, lambda: fallback(self._rows(), image))
        result._empty_cache = False
        return result

    @staticmethod
    def _of_rows(
        variables: Tuple[str, ...], rows: List[Constraint]
    ) -> "Polyhedron":
        """A polyhedron over *rows*, closed canonical rows in the space
        (another polyhedron's rows, or ones :func:`_closed_rows` made)."""
        result = Polyhedron(variables)
        result._constraints = rows
        return result

    @staticmethod
    def _lazy(
        variables: Tuple[str, ...],
        pending: Callable[[], List[Constraint]],
        system: Optional[GeneratorSystem] = None,
    ) -> "Polyhedron":
        """A polyhedron whose constraints *pending* computes when first
        read; *system*, when given, generates it."""
        result = Polyhedron(variables)
        result._constraints = None
        result._pending = pending
        if system is not None:
            result._set_generators(system)
        return result

    def _reembedded(
        self,
        variables: Tuple[str, ...],
        convert: Callable[[List[Constraint]], List[Constraint]],
        system: Optional[GeneratorSystem],
    ) -> "Polyhedron":
        """The same polyhedron in another space: *convert* carries its
        constraints over (when they are read), *system* its generators and
        the flag its emptiness."""
        if self._constraints is None:
            result = self._lazy(variables, lambda: convert(self._rows()))
        else:
            result = Polyhedron(variables)
            result._constraints = convert(self._constraints)
        if system is not None:
            result._set_generators(system)
        else:
            result._empty_cache = self._empty_cache
        return result

    def _set_generators(self, system: GeneratorSystem) -> None:
        self._generators = system
        self._empty_cache = system.is_empty()

    def _check_space(self, other: "Polyhedron") -> None:
        if self._variables != other._variables:
            raise ValueError(
                "polyhedra over different variable tuples: %s vs %s"
                % (self._variables, other._variables)
            )


def _closed(constraint: Constraint) -> Constraint:
    """The closed canonical row a polyhedron keeps for *constraint*; an
    interned canonical row is its own."""
    if constraint.is_strict():
        constraint = constraint.weaken()
    return constraint.normalized()


def _closed_rows(
    variables: Tuple[str, ...], constraints: Iterable[Constraint]
) -> List[Constraint]:
    """The closed canonical rows of *constraints*, which must stay inside
    the space of *variables*."""
    space = set(variables)
    rows: List[Constraint] = []
    for constraint in constraints:
        unknown = constraint.variables() - space
        if unknown:
            raise ValueError(
                "constraint %s mentions variables %s outside the space"
                % (constraint, sorted(unknown))
            )
        rows.append(_closed(constraint))
    return rows


def _satisfaction_test(system: GeneratorSystem) -> Callable[[Constraint], bool]:
    """Whether every point generated by *system* satisfies a constraint.

    With the constraint as ``a·x + c ⋈ 0``: every vertex must satisfy it,
    ``a·r ≤ 0`` for every ray (``= 0`` for an equality) and ``a·l = 0``
    for every line.  Decided on the integer generator rows, with
    the constraint scaled to integer coefficients; the positions and rows
    are looked up once, for every constraint the test is asked about.
    """
    if not system.vertices:
        return lambda constraint: True  # the empty polyhedron entails everything
    position = {name: index for index, name in enumerate(system.variables)}
    size = len(position)
    vertices, rays, lines = system.vertices, system.rays, system.lines

    def satisfied(constraint: Constraint) -> bool:
        normal = constraint.normalized()  # integer coefficients, same direction
        terms = []
        for name, coefficient in normal.expr.terms.items():
            if name not in position:
                return False  # a free coordinate outside the space
            terms.append((position[name], int(coefficient)))
        constant = int(normal.expr.constant_term)
        if constant:
            terms.append((size, constant))
        equality = normal.is_equality()
        strict = normal.is_strict()
        for line in lines:
            if sum(coefficient * line[index] for index, coefficient in terms):
                return False
        for ray in rays:
            value = sum(coefficient * ray[index] for index, coefficient in terms)
            if value > 0 or (equality and value != 0):
                return False
        for vertex in vertices:
            value = sum(coefficient * vertex[index] for index, coefficient in terms)
            if value > 0 or (equality and value != 0) or (strict and value == 0):
                return False
        return True

    return satisfied
