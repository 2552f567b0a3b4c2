"""The paper's contribution: counterexample-guided ranking-function synthesis.

The multidimensional, multi-control-point synthesis algorithm
(Algorithms 1–3 of the paper) over a prepared termination problem; the
end-to-end entry point that computes invariants and the large-block
encoding first is :class:`repro.api.Analysis` (tool ``"termite"``):

* :mod:`repro.core.monodim` — Algorithm 1 / Algorithm 3: one lexicographic
  component of maximal termination power, obtained by lazily enumerating
  extremal counterexamples (vertices and rays) with an optimising SMT
  solver and a small LP over the invariant's constraint cone.
* :mod:`repro.core.multidim` — Algorithm 2: the lexicographic loop.
* :mod:`repro.core.lp_instance` — ``LP(V, Constraints(I))`` and its
  statistics (LP sizes — the numbers reported in Table 1).
* :mod:`repro.core.certificate` — an independent checker that the returned
  ranking function really is one (decrease + nonnegativity), used by the
  test suite.
"""

from repro.core.ranking import AffineRankingFunction, LexicographicRankingFunction
from repro.core.problem import TerminationProblem
from repro.core.lp_instance import RankingLp, LpStatistics
from repro.core.monodim import MonodimResult, synthesize_monodim
from repro.core.multidim import synthesize_multidim
from repro.core.certificate import check_certificate
from repro.core.splitting import split_location

__all__ = [
    "AffineRankingFunction",
    "LexicographicRankingFunction",
    "TerminationProblem",
    "RankingLp",
    "LpStatistics",
    "MonodimResult",
    "synthesize_monodim",
    "synthesize_multidim",
    "check_certificate",
    "split_location",
]
