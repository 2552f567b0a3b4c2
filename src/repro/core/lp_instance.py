"""The linear-programming instance ``LP(V, Constraints(I))`` (Definition 11).

Given the set ``V`` of counterexample generators collected so far (vertices
and rays of the convex hull of one-step differences, in the stacked
``u``-space of Definition 12) and the lifted invariant constraints
``Constraints(I)`` (Definition 14), the LP

    maximise   Σ_j δ_j
    subject to γ_{k,i} ≥ 0
               0 ≤ δ_j ≤ 1
               Σ_{k,i} γ_{k,i} (v_j · e_k(a_i^k)) ≥ δ_j     for every v_j ∈ V

yields a quasi ranking function of maximal termination power
(Proposition 5): ``λ_k = Σ_i γ_{k,i} a_i^k`` and ``λ0_k = Σ_i γ_{k,i} b_i^k``,
read off the stacked vector ``Σ_{k,i} γ_{k,i} e_k(a_i^k)``.

Each lifted row ``e_k(a_i^k)`` is nonzero only in cut point ``k``'s
block, and :meth:`TerminationProblem.invariant_rows
<repro.core.problem.TerminationProblem.invariant_rows>` keeps it as its
integer nonzeros.  A generator row is built from those alone, in integer
arithmetic over the common denominator of ``v_j``, and a row whose
block of ``v_j`` is zero contributes no term; the ranking is read off
the same nonzeros.

The instance grows by **one row per counterexample** — this is the number
reported as "lines" in Table 1 of the paper, and the reason the lazy
approach beats the eager Farkas constructions by orders of magnitude.

Because the instance only ever *grows*, :class:`RankingLp` keeps one
persistent :class:`~repro.lp.simplex.SimplexState` alive across the
counterexample loop: each new generator appends one row (plus its δ
column) to the already-solved tableau and re-solves with a handful of
dual/primal pivots instead of a cold two-phase solve.  The rows go in as
:class:`~repro.lp.problem.LinearRow` rows, the integer form the
tableau reads without ``Fraction`` arithmetic.
:meth:`RankingLp.textbook_program` rebuilds the same instance from scratch
as a plain :class:`~repro.lp.problem.LinearProgram`; the tests shadow-solve
it to check every warm optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Mapping, Optional

from repro.core.problem import TerminationProblem
from repro.core.ranking import AffineRankingFunction
from repro.linalg.vector import Vector
from repro.linexpr.constraint import Relation
from repro.linexpr.expr import LinExpr
from repro.lp.problem import LinearProgram, LinearRow, LpStatus, Sense
from repro.lp.simplex import SimplexState
from repro.metrics import count


#: Name prefix of the :mod:`repro.metrics` counters of :func:`record_lp`.
_PREFIX = "core.lp_instance."


def record_lp(rows: int, cols: int, pivots: int, warm: bool) -> None:
    """Count one LP instance of *rows* × *cols*, solved warm-started or
    cold with *pivots* pivots (:mod:`repro.metrics`).

    The one recording site of ``LP(V, Constraints(I))`` and of the
    baselines' LPs.
    """
    count(_PREFIX + "instances")
    count(_PREFIX + "rows", rows)
    count(_PREFIX + "cols", cols)
    count(_PREFIX + "rows.max", rows)
    count(_PREFIX + "cols.max", cols)
    count(_PREFIX + "pivots", pivots)
    count(_PREFIX + ("warm_solves" if warm else "cold_solves"))


@dataclass(frozen=True)
class LpStatistics:
    """Sizes and solve costs of the LP instances of one synthesis run.

    A read-only view of :mod:`repro.metrics` counts, built by
    :meth:`from_metrics` (the pipeline does so from the counts of its
    ``synthesis`` stage) or :meth:`from_dict`.
    """

    instances: int = 0
    total_rows: int = 0
    total_cols: int = 0
    max_rows: int = 0
    max_cols: int = 0
    pivots: int = 0
    warm_solves: int = 0
    cold_solves: int = 0
    #: CEGIS-engine counters (see :mod:`repro.synthesis.engine`):
    #: counterexample-oracle queries issued, generator rows added to
    #: ``LP(V, Constraints(I))``, and flat directions absorbed into the
    #: ``AvoidSpace`` basis.
    oracle_queries: int = 0
    cex_rows: int = 0
    flat_directions: int = 0

    @property
    def stacked_pivots(self) -> int:
        """Always 0; kept until the benchmark drops
        ``lp.kernel.stacked_pivots_all``.  Not serialised."""
        return 0

    @property
    def average_rows(self) -> float:
        return self.total_rows / self.instances if self.instances else 0.0

    @property
    def average_cols(self) -> float:
        return self.total_cols / self.instances if self.instances else 0.0

    @classmethod
    def from_metrics(cls, counts: Mapping[str, int]) -> "LpStatistics":
        """The view of the :mod:`repro.metrics` *counts* of a synthesis run."""
        def get(name: str) -> int:
            return counts.get(name, 0)

        return cls(
            instances=get(_PREFIX + "instances"),
            total_rows=get(_PREFIX + "rows"),
            total_cols=get(_PREFIX + "cols"),
            max_rows=get(_PREFIX + "rows.max"),
            max_cols=get(_PREFIX + "cols.max"),
            pivots=get(_PREFIX + "pivots"),
            warm_solves=get(_PREFIX + "warm_solves"),
            cold_solves=get(_PREFIX + "cold_solves"),
            oracle_queries=get("synthesis.engine.oracle_queries"),
            cex_rows=get("synthesis.engine.counterexamples")
            + get("synthesis.engine.rays"),
            flat_directions=get("synthesis.engine.flat_directions"),
        )

    def to_dict(self) -> dict:
        """Plain-JSON view: the raw counters plus derived averages.

        The derived ``average_rows``/``average_cols`` keys are included
        for human readers and dashboards; :meth:`from_dict` ignores them,
        so the raw counters round-trip exactly.
        """
        return {
            "instances": self.instances,
            "total_rows": self.total_rows,
            "total_cols": self.total_cols,
            "max_rows": self.max_rows,
            "max_cols": self.max_cols,
            "pivots": self.pivots,
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "oracle_queries": self.oracle_queries,
            "cex_rows": self.cex_rows,
            "flat_directions": self.flat_directions,
            "average_rows": self.average_rows,
            "average_cols": self.average_cols,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LpStatistics":
        """Inverse of :meth:`to_dict` (derived keys are recomputed).

        Unknown keys are ignored, so payloads that still carry counters
        removed since (the kernel, warm/cold audit and projection-savings
        counters) load unchanged.
        """
        return cls(
            instances=data.get("instances", 0),
            total_rows=data.get("total_rows", 0),
            total_cols=data.get("total_cols", 0),
            max_rows=data.get("max_rows", 0),
            max_cols=data.get("max_cols", 0),
            pivots=data.get("pivots", 0),
            warm_solves=data.get("warm_solves", 0),
            cold_solves=data.get("cold_solves", 0),
            oracle_queries=data.get("oracle_queries", 0),
            cex_rows=data.get("cex_rows", 0),
            flat_directions=data.get("flat_directions", 0),
        )


@dataclass
class RankingLpSolution:
    """Outcome of one ``LP(V, Constraints(I))`` solve."""

    gammas: List[Fraction]
    deltas: List[Fraction]
    ranking: AffineRankingFunction
    all_gamma_zero: bool
    rows: int
    cols: int

    def delta_of(self, index: int) -> Fraction:
        return self.deltas[index]


class RankingLp:
    """Builder/solver for the incremental constraint system of Algorithm 1."""

    def __init__(self, problem: TerminationProblem):
        self.problem = problem
        #: ``e_k(a_i^k)``, the sparse stacked rows of ``Constraints(I)``.
        self.rows = problem.invariant_rows()
        self.counterexamples: List[Vector] = []
        self._state: Optional[SimplexState] = None
        self._synced = 0  # counterexamples already pushed into the state

    # -- construction ----------------------------------------------------------------

    def add_counterexample(self, generator: Vector) -> int:
        """Add a vertex or ray generator ``v_j``; returns its index in ``V``."""
        if len(generator) != self.problem.stacked_dimension:
            raise ValueError("counterexample has the wrong dimension")
        self.counterexamples.append(generator)
        return len(self.counterexamples) - 1

    # -- solving ------------------------------------------------------------------------

    def _gamma_name(self, index: int) -> str:
        return "gamma_%d" % index

    def _delta_name(self, index: int) -> str:
        return "delta_%d" % index

    def _generator_row(self, j: int) -> LinearRow:
        """``Σ_i γ_i (v_j · row_i) − δ_j ≥ 0`` as an integer row.

        ``v_j`` is scaled to integers over the common denominator ``D`` of
        its entries, and each ``v_j · row_i`` is summed in integers over
        the nonzeros of ``row_i``; a row whose cut point's block of
        ``v_j`` is zero is skipped.  The row is ``δ_j − Σ_i γ_i (v_j ·
        row_i) ≤ 0`` over ``D``.
        """
        generator = self.counterexamples[j].entries()
        denominator = 1
        for entry in generator:
            scale = entry.denominator
            if scale != 1:
                denominator = denominator * scale // gcd(denominator, scale)
        scaled = [
            entry.numerator * (denominator // entry.denominator)
            for entry in generator
        ]
        width = len(self.problem.space_variables)
        live = [
            any(scaled[start : start + width])
            for start in range(0, len(scaled), width)
        ]
        terms = {self._delta_name(j): denominator}
        for i, row in enumerate(self.rows):
            if live[row.cutpoint]:
                product = sum(scaled[index] * value for index, value in row.terms)
                if product:
                    terms[self._gamma_name(i)] = -product
        divisor = gcd(denominator, *terms.values())
        names = sorted(terms)
        return LinearRow(
            Relation.LE,
            tuple(names),
            tuple(terms[name] // divisor for name in names),
            0,
            denominator // divisor,
        )

    def _delta_bound(self, j: int) -> LinearRow:
        """``δ_j ≤ 1`` as an integer row."""
        return LinearRow(Relation.LE, (self._delta_name(j),), (1,), -1)

    def solve(self) -> RankingLpSolution:
        """Solve the current instance (it is always feasible, Proposition 5).

        New counterexamples are pushed into the persistent LP, which is
        re-solved from its last optimal basis.  γ's and δ's are declared
        nonnegative (single standard-form columns) so the explicit
        ``γ ≥ 0`` / ``δ ≥ 0`` rows of :meth:`textbook_program` disappear
        into the column bounds; each counterexample contributes its
        ``δ_j ≤ 1`` bound and its generator row, both as
        :class:`~repro.lp.problem.LinearRow`.
        """
        rows = len(self.counterexamples)
        cols = len(self.rows) + len(self.counterexamples)
        fresh = self._state is None or self._synced < len(self.counterexamples)
        if self._state is None:
            self._state = SimplexState(Sense.MAXIMIZE)
            for i in range(len(self.rows)):
                self._state.declare(self._gamma_name(i), nonnegative=True)
        state = self._state
        for j in range(self._synced, len(self.counterexamples)):
            state.declare(self._delta_name(j), nonnegative=True)
            state.add_constraint(self._delta_bound(j))
            state.add_constraint(self._generator_row(j))
        self._synced = len(self.counterexamples)
        state.set_objective(self._objective())
        outcome = state.solve()
        if fresh:
            # Table-1 statistics: one row per counterexample, one column
            # block for the γ's plus one δ per counterexample.  A repeat
            # solve with no new counterexample returns the persistent
            # state's cached result: it is not another instance or solve.
            record_lp(rows, cols, outcome.pivots, warm=state.last_solve_warm)
        if outcome.status is not LpStatus.OPTIMAL:
            raise RuntimeError(
                "LP(V, Constraints(I)) must be feasible and bounded, got %s"
                % outcome.status
            )

        gammas = [
            outcome.assignment.get(self._gamma_name(i), Fraction(0))
            for i in range(len(self.rows))
        ]
        deltas = [
            outcome.assignment.get(self._delta_name(j), Fraction(0))
            for j in range(len(self.counterexamples))
        ]
        ranking = self.problem.ranking(self.problem.combine(gammas))
        all_zero = all(value == 0 for value in gammas)
        return RankingLpSolution(
            gammas=gammas,
            deltas=deltas,
            ranking=ranking,
            all_gamma_zero=all_zero,
            rows=rows,
            cols=cols,
        )

    def _objective(self) -> LinExpr:
        """``Σ_j δ_j``."""
        return LinExpr(
            {self._delta_name(j): 1 for j in range(len(self.counterexamples))}
        )

    def textbook_program(self) -> LinearProgram:
        """The current instance as the textbook LP, built from scratch.

        Explicit ``γ ≥ 0``, ``0 ≤ δ_j ≤ 1`` and generator rows over free
        variables: the reference formulation a cold two-phase solve
        answers, against which the warm optimum of :meth:`solve` is
        checked.  Its :meth:`~repro.lp.problem.LinearProgram.variables`
        are the γ's, then the δ's, in index order.
        """
        program = LinearProgram(Sense.MAXIMIZE, self._objective())
        for i in range(len(self.rows)):
            program.declare(self._gamma_name(i))
            program.add_constraint(LinExpr.variable(self._gamma_name(i)) >= 0)
        for j in range(len(self.counterexamples)):
            program.declare(self._delta_name(j))
            program.add_constraint(LinExpr.variable(self._delta_name(j)) >= 0)
            program.add_constraint(self._delta_bound(j))
        for j in range(len(self.counterexamples)):
            program.add_constraint(self._generator_row(j))
        return program
