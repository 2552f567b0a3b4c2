"""The pruned Fourier–Motzkin path defines the same polyhedron as the naive one.

``fourier_motzkin(..., simplify=True)`` layers syntactic dominance,
Kohler/Imbert history pruning and LP-based redundancy removal on top of
the naive elimination; all of them may only drop *redundant* rows.  The
equivalence oracle is the independent Farkas engine of
:mod:`repro.checking.farkas` (PR 3): two systems describe the same set
iff each constraint of one is refuted-when-negated under the other.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.checking.farkas import Refutation, decide_system
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr, var
from repro.metrics import recording
from repro.polyhedra import projection

NAMES = ["a", "b", "c", "d"]


def _random_system(rng: random.Random, size: int):
    constraints = []
    for _ in range(size):
        terms = {
            name: Fraction(rng.randint(-3, 3))
            for name in rng.sample(NAMES, rng.randint(1, 3))
        }
        constraints.append(
            Constraint(
                LinExpr(terms, Fraction(rng.randint(-4, 4))), Relation.LE
            )
        )
    return constraints


def _infeasible(system) -> bool:
    return isinstance(decide_system(list(system)), Refutation)


def _entailed_by(system, constraint: Constraint) -> bool:
    """``system ⊨ constraint`` via the independent Farkas engine."""
    negated = Constraint(-constraint.expr, Relation.LT)
    return isinstance(decide_system(list(system) + [negated]), Refutation)


def _equivalent(first, second) -> bool:
    first_empty, second_empty = _infeasible(first), _infeasible(second)
    if first_empty or second_empty:
        return first_empty == second_empty
    return all(_entailed_by(second, c) for c in first) and all(
        _entailed_by(first, c) for c in second
    )


class TestPrunedMatchesNaive:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_projections_agree(self, seed):
        rng = random.Random(seed)
        system = _random_system(rng, rng.randint(2, 6))
        drop = rng.sample(NAMES, rng.randint(1, 2))
        pruned = projection.fourier_motzkin(system, drop, simplify=True)
        naive = projection.fourier_motzkin(system, drop, simplify=False)
        assert _equivalent(pruned, naive)

    def test_projection_with_equalities(self):
        x, y, z = var("x"), var("y"), var("z")
        system = [x.eq(y + 1), x <= 5, z >= y, z <= 10]
        pruned = projection.fourier_motzkin(system, ["x", "z"], simplify=True)
        naive = projection.fourier_motzkin(system, ["x", "z"], simplify=False)
        assert _equivalent(pruned, naive)
        assert _entailed_by(pruned, y <= 4)

    def test_infeasible_system_stays_infeasible(self):
        x, y = var("x"), var("y")
        system = [x >= 1, x <= 0, y <= x]
        pruned = projection.fourier_motzkin(system, ["x"], simplify=True)
        assert _infeasible(pruned)


class TestPruningActuallyPrunes:
    def test_dominated_rows_counted_as_saved_lp_calls(self):
        x, y = var("x"), var("y")
        with recording() as counters:
            result = projection.remove_redundant(
                [x <= 1, x <= 5, x <= 9, y >= 0]
            )
        assert len(result) == 2
        # x ≤ 5 and x ≤ 9 are syntactically dominated by x ≤ 1: two LP
        # solves the previous implementation would have paid.
        assert counters["polyhedra.projection.lp_calls_saved"] == 2

    def test_kohler_prunes_on_dense_eliminations(self):
        with recording() as counters:
            for seed in range(40):
                rng = random.Random(seed)
                system = _random_system(rng, 8)
                projection.fourier_motzkin(system, NAMES[:3], simplify=True)
        assert counters["polyhedra.projection.rows_pruned_kohler"] > 0

    def test_duplicate_constraints_not_counted_as_saved(self):
        # Duplicates were always dropped without an LP (the seen-set
        # existed pre-kernel), so they prune rows without crediting
        # lp_calls_saved.
        x = var("x")
        with recording() as counters:
            result = projection.remove_redundant([x <= 1, 2 * x <= 2])
        assert len(result) == 1
        assert "polyhedra.projection.lp_calls_saved" not in counters
        assert counters["polyhedra.projection.rows_pruned_syntactic"] == 1


class TestStatisticsSchema:
    def test_to_dict_keys(self):
        # Every projection counter is named polyhedra.projection.<event>.
        with recording() as counters:
            for seed in range(40):
                system = _random_system(random.Random(seed), 8)
                projection.fourier_motzkin(system, NAMES[:3], simplify=True)
        assert set(counters) == {
            "polyhedra.projection." + name
            for name in (
                "variables_eliminated",
                "combinations",
                "lp_calls",
                "lp_calls_saved",
                "rows_pruned_syntactic",
                "rows_pruned_kohler",
            )
        }
