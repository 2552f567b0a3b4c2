"""The paper's contribution: counterexample-guided ranking-function synthesis.

The data the multidimensional, multi-control-point synthesis algorithm
works on; the loop itself (Algorithms 1–3 of the paper) is
:class:`repro.synthesis.engine.CegisEngine`, and the end-to-end entry
point that computes invariants and the large-block encoding first is
:class:`repro.api.Analysis` (tool ``"termite"``):

* :mod:`repro.core.problem` — the termination problem: cut-set,
  invariants, large blocks and the stacked ``u`` space.
* :mod:`repro.core.lp_instance` — ``LP(V, Constraints(I))`` and its
  statistics (LP sizes — the numbers reported in Table 1).
* :mod:`repro.core.certificate` — the check that the returned ranking
  function really is one (decrease + nonnegativity), which the pipeline's
  ``certificate`` stage runs on every prover's proof.  It delegates to the
  independent Farkas checker :mod:`repro.checking.checker`.
"""

from repro.core.ranking import AffineRankingFunction, LexicographicRankingFunction
from repro.core.problem import TerminationProblem
from repro.core.lp_instance import RankingLp, LpStatistics
from repro.core.certificate import check_certificate

__all__ = [
    "AffineRankingFunction",
    "LexicographicRankingFunction",
    "TerminationProblem",
    "RankingLp",
    "LpStatistics",
    "check_certificate",
]
