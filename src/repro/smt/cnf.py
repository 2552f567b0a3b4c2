"""Propositional abstraction and Tseitin encoding of formulas.

Each distinct (normalised) linear atom gets one propositional variable;
every composite node of the formula DAG gets a Tseitin variable.  The
encoder caches on object identity, so sub-formulas shared by the
large-block encoding are translated once — the CNF stays linear in the
size of the program rather than in its number of paths, which is the
structural property the paper's laziness relies on.

Each new atom also brings its *bound axioms* (Dutertre & de Moura,
CAV 2006): atoms with parallel term vectors bound one linear form from
above, from below or to a point, and two such bounds whose intervals are
disjoint get the binary clause ``¬a ∨ ¬b``.  The SAT core then refutes a
pair such as ``x ≤ 0 ∧ x ≥ 1`` on its own, with no theory check.
Disjointness is decided over the rationals, so every axiom also holds
over the integers.

Given the context's :class:`~repro.smt.theory.AtomTable`, the encoder
has the theory lower each new atom to its simplex rows, once, when the
atom gets its literal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.formula import (
    And,
    Atom,
    FALSE,
    Formula,
    Or,
    TRUE,
)
from repro.metrics import count
from repro.smt.sat import SatSolver
from repro.smt.theory import AtomTable

#: One end of an interval: (value, strict), or None when unbounded.
_End = Optional[Tuple[Fraction, bool]]


def _direction_interval(
    constraint: Constraint,
) -> Optional[Tuple[tuple, Tuple[_End, _End]]]:
    """``(direction, (lower, upper))``: the interval *constraint* allows.

    *constraint* is in normalized form, so its coefficients are integers.
    The direction is the term vector divided by the gcd of its entries,
    signed so that the leading one (first variable by name) is positive;
    on ``d·x`` the constraint is an upper bound, a lower bound or a point.
    ``None`` for constant constraints.
    """
    terms = constraint.expr.terms
    if not terms:
        return None
    names = sorted(terms)
    coefficients = [terms[name].numerator for name in names]
    scale = math.gcd(*coefficients)
    if coefficients[0] < 0:
        scale = -scale
    direction = (tuple(names), tuple(c // scale for c in coefficients))
    end = (-constraint.expr.constant_term / scale, constraint.is_strict())
    if constraint.relation is Relation.EQ:
        return direction, (end, end)
    return direction, ((None, end) if scale > 0 else (end, None))


def _below(upper: _End, lower: _End) -> bool:
    """Whether every point under *upper* lies below every point over *lower*."""
    if upper is None or lower is None:
        return False
    return upper[0] < lower[0] or (
        upper[0] == lower[0] and (upper[1] or lower[1])
    )


def _disjoint(first: Tuple[_End, _End], second: Tuple[_End, _End]) -> bool:
    """Whether two intervals on the same direction share no point."""
    return _below(first[1], second[0]) or _below(second[1], first[0])


class CnfEncoder:
    """Maps formulas to clauses of a :class:`~repro.smt.sat.SatSolver`."""

    def __init__(self, solver: SatSolver, atoms: Optional[AtomTable] = None):
        self._solver = solver
        self._atoms = atoms
        self._atom_literal: Dict[Constraint, int] = {}
        self._literal_atom: Dict[int, Constraint] = {}
        # The cache stores (formula, literal) pairs: keeping a reference to
        # the formula object is essential, otherwise CPython may reuse the
        # id() of a garbage-collected node and alias two distinct formulas.
        self._node_cache: Dict[int, Tuple[Formula, int]] = {}
        self._true_literal: Optional[int] = None
        # direction → [(literal, interval)] of the atoms filed under it.
        self._bounds: Dict[tuple, List[Tuple[int, Tuple[_End, _End]]]] = {}

    # -- atom bookkeeping ------------------------------------------------------

    def atom_literal(self, constraint: Constraint) -> int:
        """The propositional variable standing for *constraint*."""
        key = constraint.normalized()
        literal = self._atom_literal.get(key)
        if literal is None:
            literal = self._solver.new_variable()
            self._atom_literal[key] = literal
            self._literal_atom[literal] = key
            self._add_bound_axioms(key, literal)
            if self._atoms is not None:
                self._atoms.lower(key)
        return literal

    def _add_bound_axioms(self, constraint: Constraint, literal: int) -> None:
        """``¬a ∨ ¬b`` for every earlier parallel atom disjoint from this one."""
        bound = _direction_interval(constraint)
        if bound is None:
            return
        direction, interval = bound
        filed = self._bounds.setdefault(direction, [])
        for other, other_interval in filed:
            if _disjoint(interval, other_interval):
                count("smt.solver.bound_axioms")
                self._solver.add_clause([-literal, -other])
        filed.append((literal, interval))

    def constraint_of(self, variable: int) -> Optional[Constraint]:
        return self._literal_atom.get(variable)

    # -- encoding ----------------------------------------------------------------

    def assert_formula(self, formula: Formula) -> None:
        """Add clauses forcing *formula* to be true."""
        literal = self.encode(formula)
        self._solver.add_clause([literal])

    def _constant(self, value: bool) -> int:
        if self._true_literal is None:
            self._true_literal = self._solver.new_variable()
            self._solver.add_clause([self._true_literal])
        return self._true_literal if value else -self._true_literal

    def encode(self, formula: Formula) -> int:
        """Tseitin-encode *formula* (in negation normal form, as every
        formula is by construction); returns the literal representing it.
        Each node of the DAG is encoded once."""
        if formula is TRUE:
            return self._constant(True)
        if formula is FALSE:
            return self._constant(False)
        cached = self._node_cache.get(id(formula))
        if cached is not None:
            return cached[1]

        if isinstance(formula, Atom):
            constraint = formula.constraint
            if constraint.is_trivially_true():
                literal = self._constant(True)
            elif constraint.is_trivially_false():
                literal = self._constant(False)
            else:
                literal = self.atom_literal(constraint)
        elif isinstance(formula, And):
            children = [self.encode(child) for child in formula.operands]
            literal = self._define_and(children)
        elif isinstance(formula, Or):
            children = [self.encode(child) for child in formula.operands]
            literal = self._define_or(children)
        else:
            raise TypeError("cannot encode formula node %r" % (formula,))

        self._node_cache[id(formula)] = (formula, literal)
        return literal

    def _define_and(self, children: List[int]) -> int:
        if not children:
            return self._constant(True)
        if len(children) == 1:
            return children[0]
        fresh = self._solver.new_variable()
        for child in children:
            self._solver.add_clause([-fresh, child])
        self._solver.add_clause([fresh] + [-child for child in children])
        return fresh

    def _define_or(self, children: List[int]) -> int:
        if not children:
            return self._constant(False)
        if len(children) == 1:
            return children[0]
        fresh = self._solver.new_variable()
        for child in children:
            self._solver.add_clause([-child, fresh])
        self._solver.add_clause([-fresh] + list(children))
        return fresh
