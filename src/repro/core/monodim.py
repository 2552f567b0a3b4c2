"""Algorithm 1 / Algorithm 3: one quasi ranking function of maximal power.

This module is now a **thin configuration** of the pluggable CEGIS
engine in :mod:`repro.synthesis`: the counterexample loop itself lives
in :class:`repro.synthesis.engine.CegisEngine`, the optimising SMT query
construction in :mod:`repro.synthesis.oracles`, and the candidate space
in :class:`repro.synthesis.templates.LinearTemplate`.
:func:`synthesize_monodim` assembles the paper's default pieces (``smt``
oracle, ``extremal`` strategy, one row per counterexample) — or any of
the ablation combinations — and delegates.

The loop alternates between

* an optimising SMT query
  ``Sat(Φ ∧ AvoidSpace(u, B) ∧ λ·u ≤ 0)`` minimising ``λ·u`` — a
  counterexample is a transition on which the current candidate fails to
  decrease strictly, and minimisation makes it *extremal* (a vertex of one
  disjunct of the convex hull of one-step differences, or a ray when the
  objective is unbounded, §4.2), and
* the LP ``LP(V, Constraints(I))`` of Definition 11, which recomputes the
  quasi ranking function of maximal termination power over the generators
  collected so far.

Flat directions (counterexamples whose δ is forced to 0, i.e. every quasi
ranking function is constant along them) are accumulated in the basis ``B``
and excluded from future queries through ``AvoidSpace`` (§4.1), which is
what makes the loop terminate even when no strict ranking function exists.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.lp_instance import LpStatistics
from repro.core.problem import TerminationProblem
from repro.linexpr.constraint import Constraint
from repro.smt.optimize import SearchMode
from repro.synthesis.engine import CegisEngine, CegisObserver, MonodimResult
from repro.synthesis.engine import MaxIterationsExceeded  # noqa: F401  (compat re-export)
from repro.synthesis.engine import MonodimStatistics  # noqa: F401  (compat re-export)
from repro.synthesis.oracles import make_oracle
from repro.synthesis.strategies import make_strategy
from repro.synthesis.templates import LinearTemplate


def synthesize_monodim(
    problem: TerminationProblem,
    extra_constraints: Sequence[Constraint] = (),
    smt_mode: str | SearchMode = SearchMode.LOCAL,
    integer_mode: bool = False,
    max_iterations: int = 200,
    lp_statistics: Optional[LpStatistics] = None,
    oracle: str = "smt",
    cex_strategy: str = "extremal",
    cex_batch: int = 1,
    oracle_seed: int = 0,
    observers: Sequence[CegisObserver] = (),
) -> MonodimResult:
    """Run Algorithm 1 (single cut point) / Algorithm 3 (general case).

    ``extra_constraints`` restricts the transition relation — Algorithm 2
    passes the flatness constraints ``λ_{d'} · u = 0`` of the previous
    lexicographic components here.  With ``integer_mode`` the SMT queries
    treat the program variables as integers (more precise, slower);
    otherwise the rational relaxation is used, which is always sound.
    One warm-started ``LP(V, Constraints(I))`` stays alive for the whole
    loop (see :mod:`repro.core.lp_instance`).

    ``oracle`` / ``cex_strategy`` / ``cex_batch`` / ``oracle_seed`` pick
    the counterexample source and selection policy (see
    :mod:`repro.synthesis.oracles` and :mod:`repro.synthesis.strategies`);
    the defaults replay the paper's extremal-counterexample loop exactly.
    """
    template = LinearTemplate(
        problem, integer_mode=integer_mode, smt_mode=smt_mode
    )
    engine = CegisEngine(
        make_oracle(oracle, seed=oracle_seed),
        make_strategy(cex_strategy, batch=cex_batch, seed=oracle_seed),
        max_iterations=max_iterations,
        observers=observers,
    )
    return engine.synthesize_component(
        template,
        extra_constraints=extra_constraints,
        lp_statistics=lp_statistics,
    )
