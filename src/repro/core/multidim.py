"""Algorithm 2: lexicographic (multidimensional) ranking functions.

This module is now a **thin configuration** of the pluggable CEGIS
engine: the per-dimension loop (restrict the transition relation to the
steps on which every previous component is constant, synthesise the next
component, stop on a strict component or on linear dependence — exactly
as in the paper, Theorem 1) lives in
:meth:`repro.synthesis.engine.CegisEngine.synthesize_lexicographic`,
driven by a :class:`repro.synthesis.templates.LexicographicTemplate`.
:func:`synthesize_multidim` assembles the requested oracle × strategy
pieces and delegates.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.lp_instance import LpStatistics
from repro.core.problem import TerminationProblem
from repro.smt.optimize import SearchMode
from repro.synthesis.engine import CegisEngine, CegisObserver, MultidimResult
from repro.synthesis.engine import MonodimResult  # noqa: F401  (compat re-export)
from repro.synthesis.oracles import make_oracle
from repro.synthesis.strategies import make_strategy
from repro.synthesis.templates import LexicographicTemplate


def synthesize_multidim(
    problem: TerminationProblem,
    smt_mode: str | SearchMode = SearchMode.LOCAL,
    integer_mode: bool = False,
    max_dimension: Optional[int] = None,
    max_iterations: int = 200,
    lp_statistics: Optional[LpStatistics] = None,
    oracle: str = "smt",
    cex_strategy: str = "extremal",
    cex_batch: int = 1,
    oracle_seed: int = 0,
    observers: Sequence[CegisObserver] = (),
    should_stop: Optional[Callable[[], bool]] = None,
) -> MultidimResult:
    """Run Algorithm 2 on *problem*.

    Returns a strict lexicographic linear ranking function iff one exists
    relative to the given invariants (Theorem 1); the returned function has
    minimal dimension.  Each dimension owns one persistent warm-started LP
    (see :mod:`repro.core.lp_instance`) that grows row by row as its
    counterexample loop runs.  ``oracle`` /
    ``cex_strategy`` / ``cex_batch`` / ``oracle_seed`` select the
    counterexample source and refinement policy of every component (see
    :mod:`repro.synthesis`); the defaults replay the paper's loop exactly.
    """
    template = LexicographicTemplate(
        problem,
        integer_mode=integer_mode,
        smt_mode=smt_mode,
        max_dimension=max_dimension,
    )
    engine = CegisEngine(
        make_oracle(oracle, seed=oracle_seed),
        make_strategy(cex_strategy, batch=cex_batch, seed=oracle_seed),
        max_iterations=max_iterations,
        observers=observers,
        should_stop=should_stop,
    )
    return engine.synthesize_lexicographic(
        template, lp_statistics=lp_statistics
    )
