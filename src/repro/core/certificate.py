"""The pipeline's ranking-certificate check.

A synthesised lexicographic ranking function is only worth something if it
can be re-checked without trusting the synthesis loop.
:func:`check_certificate` is what the pipeline's one audit rule
(:meth:`repro.api.pipeline.Analysis.certify`) calls for a ranking
function, whichever prover claimed it; it delegates to
the independent Farkas checker :func:`repro.checking.checker.check_ranking`,
which discharges the Definition-6 obligations with its own exact
Gauss/Fourier–Motzkin engine and shares no code with the LP/SMT stack of
the synthesiser.

The function exists only because the benchmark's layer tracer names
``repro.core.certificate.check_certificate`` as its ``certificate`` layer;
it goes once the tracer is retargeted at the checker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.problem import TerminationProblem
from repro.core.ranking import LexicographicRankingFunction

if TYPE_CHECKING:  # pragma: no cover - repro.checking sits above repro.core
    from repro.checking.checker import CertificateVerdict


def check_certificate(
    problem: TerminationProblem,
    ranking: LexicographicRankingFunction,
    integer_mode: bool = False,
) -> "CertificateVerdict":
    """Independently verify *ranking* on *problem* (decrease + nonnegativity)."""
    # Imported lazily: repro.checking imports the api layer, which imports
    # repro.core.
    from repro.checking.checker import check_ranking

    return check_ranking(problem, ranking, integer_mode=integer_mode)
