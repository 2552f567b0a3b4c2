"""Branch-and-bound for (mixed) integer linear programs.

The SMT theory layer uses this to produce *integer* models of conjunctions
of linear constraints, which is how the paper handles integer program
variables ("by specifying them as integers in the SMT-solving call") —
no Gomory–Chvátal cut machinery is needed on the synthesis side.

The search is a plain depth-first branch-and-bound on the exact LP
relaxation.  A node branches on the first integer variable with a
fractional relaxation value; pruning uses the incumbent objective when one
exists.  An iteration limit guards against pathological inputs (the
transition systems in the benchmark suites stay far below it).

Before the root branches, the equalities over integer variables only are
put to the gcd test together: ``Σ a_i·x_i = b`` has no integer solution
when ``gcd(a_i)`` does not divide ``b``, and the rows are eliminated over
ℤ so that the test also reads every integer combination of them.  A
refutation ends the search at once (``lp.ilp.gcd_refutations``);
without it, a rationally feasible, unbounded system such as ``2a − 2b =
1``, or ``a − 2b = 0 ∧ a − 2c = 1`` whose rows only conflict together,
would be searched to the node limit.  The refutation carries no Farkas
certificate.  Every node is counted as ``lp.ilp.nodes``.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import gcd
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple, Union

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.problem import LinearRow, LpResult, LpStatus, Sense
from repro.lp.simplex import solve_lp
from repro.metrics import count


class BranchAndBoundLimit(Exception):
    """Raised when the node budget of the search is exhausted."""


def _first_fractional(
    assignment: Dict[str, Fraction], integer_variables: Sequence[str]
) -> Optional[str]:
    for name in integer_variables:
        value = assignment.get(name, Fraction(0))
        if value.denominator != 1:
            return name
    return None


def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator


def _gcd_refutes(
    constraints: Sequence[Union[Constraint, LinearRow]],
    integer_variables: AbstractSet[str],
) -> bool:
    """Whether the equalities over integer variables only have no integer
    solution together.

    Each equality ``Σ n_i·x_i + c = 0`` becomes the integer row ``Σ n_i·x_i
    = −c``, and the rows are eliminated over ℤ, after the equality step
    of Pugh's Omega test.  A row is first divided by the gcd of its
    coefficients, which refutes the system when it does not divide the
    constant.  A coefficient ``±1`` then solves its variable, which is
    substituted into the other rows; otherwise the unimodular change of
    variables ``x_k ← x_k − Σ_i ⌊a_i / a_k⌋·x_i`` on the smallest
    coefficient ``a_k`` reduces the row's other coefficients modulo
    ``a_k``, and the row is read again.  Every row met is an integer
    combination of the equalities under a unimodular change of variables,
    which keeps its coefficient gcd, so each refutation is one such
    combination's gcd test.  The elimination is complete: when no test
    fires, the equalities have an integer solution.
    """
    rows: List[Tuple[Dict[str, int], int]] = []
    for constraint in constraints:
        if constraint.relation is not Relation.EQ:
            continue
        row = constraint if isinstance(constraint, LinearRow) else LinearRow.of(constraint)
        if not row.names or not integer_variables.issuperset(row.names):
            continue
        rows.append((dict(zip(row.names, row.numerators)), -row.constant))
    while rows:
        coefficients, constant = rows.pop()
        coefficients = {name: value for name, value in coefficients.items() if value}
        if not coefficients:
            if constant:
                return True
            continue
        divisor = gcd(*coefficients.values())
        if constant % divisor:
            return True
        coefficients = {name: value // divisor for name, value in coefficients.items()}
        constant //= divisor
        pivot = min(coefficients, key=lambda name: (abs(coefficients[name]), name))
        value = coefficients[pivot]
        if abs(value) == 1:
            # x_pivot = value·(constant − Σ_{i ≠ pivot} a_i·x_i)
            substitution = {
                name: -value * other
                for name, other in coefficients.items()
                if name != pivot
            }
            rows = [
                _substitute(other, pivot, substitution, value * constant)
                for other in rows
            ]
            continue
        shift = {
            name: -(other // value)
            for name, other in coefficients.items()
            if name != pivot
        }
        rows = [
            _substitute(other, pivot, {**shift, pivot: 1}, 0)
            for other in rows + [(coefficients, constant)]
        ]
    return False


def _substitute(
    row: Tuple[Dict[str, int], int],
    name: str,
    terms: Dict[str, int],
    offset: int,
) -> Tuple[Dict[str, int], int]:
    """*row* ``Σ a_i·x_i = b`` with ``x_name ← Σ terms·x + offset``."""
    coefficients, constant = row
    factor = coefficients.get(name, 0)
    if not factor:
        return row
    result = {other: value for other, value in coefficients.items() if other != name}
    for other, value in terms.items():
        result[other] = result.get(other, 0) + factor * value
    return result, constant - factor * offset


def solve_ilp(
    objective: LinExpr,
    constraints: Sequence[Union[Constraint, LinearRow]],
    integer_variables: Sequence[str],
    sense: Sense = Sense.MINIMIZE,
    variables: Optional[Sequence[str]] = None,
    max_nodes: int = 2000,
) -> LpResult:
    """Optimise *objective* with the listed variables restricted to integers.

    The result mirrors :func:`repro.lp.simplex.solve_lp`.  When the LP
    relaxation is unbounded the problem is reported unbounded (for the
    formulas produced by the synthesiser an unbounded relaxation direction
    is also an unbounded integer direction, because all data are rational).
    ``multipliers`` are passed through only when the root relaxation is
    infeasible; every other result carries none, a gcd refutation (see
    the module docstring) included.
    """
    integer_set: List[str] = list(integer_variables)
    nodes_explored = 0

    best: Optional[LpResult] = None

    def better(candidate: Fraction, incumbent: Fraction) -> bool:
        if sense is Sense.MINIMIZE:
            return candidate < incumbent
        return candidate > incumbent

    stack: List[List[Union[Constraint, LinearRow]]] = [list(constraints)]
    unbounded_result: Optional[LpResult] = None

    while stack:
        nodes_explored += 1
        if nodes_explored > max_nodes:
            raise BranchAndBoundLimit(
                "branch-and-bound exceeded %d nodes" % max_nodes
            )
        count("lp.ilp.nodes")
        node_constraints = stack.pop()
        relaxation = solve_lp(objective, node_constraints, sense, variables)
        if relaxation.status is LpStatus.INFEASIBLE:
            if nodes_explored == 1:
                # The root's Farkas multipliers refute the input system.
                return relaxation
            continue
        if relaxation.status is LpStatus.UNBOUNDED:
            # Remember and keep searching: an integer point must also exist
            # along the ray for the overall problem to be unbounded, but the
            # caller (the SMT optimiser) treats "unbounded relaxation" as
            # "unbounded" and extracts the ray, which is sound for the
            # synthesis algorithm (rays are added as generators).
            unbounded_result = relaxation
            break
        assert relaxation.objective is not None
        if best is not None and not better(
            relaxation.objective, best.objective
        ):
            continue
        branch_variable = _first_fractional(relaxation.assignment, integer_set)
        if branch_variable is None:
            if best is None or better(relaxation.objective, best.objective):
                best = relaxation
            continue
        if nodes_explored == 1 and _gcd_refutes(constraints, set(integer_set)):
            count("lp.ilp.gcd_refutations")
            return LpResult(status=LpStatus.INFEASIBLE)
        value = relaxation.assignment[branch_variable]
        floor_value = _floor(value)
        lower_branch = list(node_constraints)
        lower_branch.append(
            LinExpr.variable(branch_variable) <= floor_value
        )
        upper_branch = list(node_constraints)
        upper_branch.append(
            LinExpr.variable(branch_variable) >= floor_value + 1
        )
        stack.append(upper_branch)
        stack.append(lower_branch)

    if unbounded_result is not None:
        return unbounded_result
    if best is None:
        return LpResult(status=LpStatus.INFEASIBLE)
    # A node's duals describe the node's system, not the input's.
    return replace(best, multipliers=None)
