"""The pluggable CEGIS synthesis engine.

This package owns the counterexample-guided loop of the paper
(Algorithms 1–3) over a :class:`~repro.core.problem.TerminationProblem`:

* :mod:`repro.synthesis.engine` — the loop itself (budgets, flat-basis
  bookkeeping, lexicographic composition, per-iteration events) plus the
  greedy elimination loop the eager baselines share;
* :mod:`repro.synthesis.oracles` — where counterexamples come from
  (optimising SMT or double-description enumeration, each extremal or
  arbitrary).

The ``cex_oracle`` / ``cex_strategy`` fields of
:class:`repro.api.AnalysisConfig` (and the matching ``repro prove
--oracle/--cex-strategy`` flags) select the pieces end to end.
"""

from repro.synthesis.engine import (
    CegisEngine,
    CegisEvent,
    CegisObserver,
    MaxIterationsExceeded,
    MonodimResult,
    MultidimResult,
    eliminate_lexicographic,
)
from repro.synthesis.oracles import (
    CounterexampleOracle,
    DdEnumerationOracle,
    ORACLE_NAMES,
    SmtOptimizingOracle,
    Witness,
    make_oracle,
)

__all__ = [
    "CegisEngine",
    "CegisEvent",
    "CegisObserver",
    "MaxIterationsExceeded",
    "MonodimResult",
    "MultidimResult",
    "eliminate_lexicographic",
    "CounterexampleOracle",
    "Witness",
    "SmtOptimizingOracle",
    "DdEnumerationOracle",
    "ORACLE_NAMES",
    "make_oracle",
]
