"""The built-in provers, registered under their stable names.

Importing this module (which :mod:`repro.api` does) populates the
registry with the six tools of the evaluation:

========================  =====================================================
``termite``               the paper's lazy counterexample-guided synthesis
``eager_farkas``          Rank/ADFG-style global eager Farkas synthesis
``eager_generators``      Ben-Amram & Genaim-style generator enumeration
``podelski_rybalchenko``  complete monodimensional synthesis (VMCAI 2004)
``heuristic``             Loopus-style syntactic candidate guessing
``dnf``                   per-disjunct greedy lexicographic elimination
========================  =====================================================

Hyphenated spellings (``eager-farkas``, …) are accepted by every lookup
(:func:`repro.api.canonical_name` normalises them) for backwards
compatibility with the historical Table-1 command lines.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.api.config import AnalysisConfig
from repro.api.registry import Prover, register_prover
from repro.api.result import AnalysisResult, AnalysisStatus
from repro.baselines import (
    dnf_prover,
    eager_farkas_lexicographic,
    eager_generator_synthesis,
    heuristic_prover,
    podelski_rybalchenko,
)
from repro.baselines.result import BaselineResult
from repro.core.problem import TerminationProblem
from repro.core.ranking import LexicographicRankingFunction
from repro.metrics import recording
from repro.smt.solver import TheoryRoundLimit
from repro.synthesis.engine import CegisEngine, MaxIterationsExceeded
from repro.synthesis.oracles import make_oracle


class TermiteProver(Prover):
    """The paper's contribution: lazy, counterexample-guided synthesis.

    The counterexample source and the extremal/arbitrary choice are
    swappable through ``config.cex_oracle`` / ``cex_strategy`` (see
    :mod:`repro.synthesis`); *observer*, when
    given, receives the engine's per-iteration
    :class:`~repro.synthesis.engine.CegisEvent` stream.
    """

    name = "termite"
    extra_capabilities = frozenset(
        {
            "cex-oracles",
            "cex-strategies",
            "max-dimension",
            "events",
            "nontermination",
        }
    )
    summary = (
        "lazy multidimensional synthesis from extremal counterexamples "
        "(Gonnord, Monniaux & Radanne, PLDI 2015)"
    )

    def prove(
        self,
        problem: TerminationProblem,
        config: AnalysisConfig,
        observer=None,
        automaton=None,
    ) -> AnalysisResult:
        start = time.perf_counter()
        if not problem.blocks:
            return AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.TERMINATING,
                ranking=LexicographicRankingFunction(),
                time_seconds=time.perf_counter() - start,
                dimension=0,
                message="no cycle through the cut-set",
            )
        mode = config.nonterm if automaton is not None else "off"
        if mode == "only":
            return self._prove_nontermination(config, automaton, observer, start)
        term = self._synthesize_ranking(problem, config, observer, start)
        if mode == "off" or term.proved:
            return term
        # nonterm="auto": termination first, nontermination only when it
        # is not proved, so a terminating result equals the "off" one.
        nonterm = self._prove_nontermination(config, automaton, observer, start)
        if nonterm.disproved:
            return nonterm
        term.time_seconds = nonterm.time_seconds
        term.message = "; ".join(
            message for message in (term.message, nonterm.message) if message
        )
        return term

    def _synthesize_ranking(
        self,
        problem: TerminationProblem,
        config: AnalysisConfig,
        observer,
        start: float,
    ) -> AnalysisResult:
        engine = CegisEngine(
            make_oracle(config.cex_oracle),
            extremal=config.cex_strategy == "extremal",
            max_iterations=config.max_iterations,
            observers=(observer,) if observer is not None else (),
        )
        with recording() as counters:
            try:
                outcome = engine.synthesize_lexicographic(
                    problem, max_dimension=config.max_dimension
                )
            except (MaxIterationsExceeded, TheoryRoundLimit) as error:
                # A cap ends the search without a verdict.  One oracle
                # query per iteration: the queries are the iterations of
                # every component, the aborted one included.
                return AnalysisResult(
                    tool=self.name,
                    status=AnalysisStatus.UNKNOWN,
                    time_seconds=time.perf_counter() - start,
                    iterations=counters.get("synthesis.engine.oracle_queries", 0),
                    message=str(error),
                )
        elapsed = time.perf_counter() - start
        iterations = sum(component.iterations for component in outcome.components)
        if not outcome.success:
            return AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.UNKNOWN,
                time_seconds=elapsed,
                iterations=iterations,
                message="no lexicographic linear ranking function "
                "relative to the computed invariant",
            )
        return AnalysisResult(
            tool=self.name,
            status=AnalysisStatus.TERMINATING,
            ranking=outcome.ranking,
            time_seconds=elapsed,
            iterations=iterations,
            dimension=outcome.dimension,
        )

    def _prove_nontermination(
        self,
        config: AnalysisConfig,
        automaton,
        observer,
        start: float,
    ) -> AnalysisResult:
        # Imported lazily so the prover table stays importable even if
        # the nontermination package is stripped from a deployment.
        from repro.nontermination import synthesize_recurrence

        outcome = synthesize_recurrence(
            automaton, observers=(observer,) if observer is not None else ()
        )
        elapsed = time.perf_counter() - start
        if outcome.success:
            return AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.NONTERMINATING,
                lasso=outcome.lasso,
                time_seconds=elapsed,
                iterations=outcome.iterations,
                message=outcome.lasso.describe(),
            )
        return AnalysisResult(
            tool=self.name,
            status=AnalysisStatus.UNKNOWN,
            time_seconds=elapsed,
            iterations=outcome.iterations,
            message="no recurrence set found (%s)" % outcome.message,
        )


class BaselineProver(Prover):
    """Adapter putting one baseline function behind the prover interface.

    The baselines are fixed published methods reproduced as-is; the only
    config knob they honour is ``max_dimension`` (where the method is
    lexicographic at all — Podelski–Rybalchenko is inherently
    monodimensional).  Their rankings are audited like every prover's,
    by the pipeline's independent Farkas checker
    (:meth:`repro.api.pipeline.Analysis.certify`), whose
    per-transition Definition-6 obligations accept every sound
    lexicographic style, not just Termite's globally nonnegative
    components.
    """

    def __init__(
        self,
        name: str,
        summary: str,
        function: Callable[..., BaselineResult],
        accepts_max_dimension: bool = True,
    ):
        self.name = name
        self.summary = summary
        self._function = function
        self._accepts_max_dimension = accepts_max_dimension
        self.extra_capabilities = (
            frozenset({"max-dimension"}) if accepts_max_dimension else frozenset()
        )

    def prove(
        self, problem: TerminationProblem, config: AnalysisConfig
    ) -> AnalysisResult:
        kwargs = {}
        if self._accepts_max_dimension and config.max_dimension is not None:
            kwargs["max_dimension"] = config.max_dimension
        outcome = self._function(problem, **kwargs)
        return AnalysisResult(
            tool=self.name,
            status=AnalysisStatus.TERMINATING
            if outcome.proved
            else AnalysisStatus.UNKNOWN,
            ranking=outcome.ranking,
            time_seconds=outcome.time_seconds,
            dimension=outcome.ranking.dimension if outcome.ranking else 0,
            details=dict(outcome.details),
        )


register_prover(TermiteProver())
register_prover(
    BaselineProver(
        "eager_farkas",
        "eager global Farkas synthesis over the DNF expansion "
        "(Rank / Alias-Darte-Feautrier-Gonnord style)",
        eager_farkas_lexicographic,
    )
)
register_prover(
    BaselineProver(
        "eager_generators",
        "eager vertex/ray enumeration via double description "
        "(Ben-Amram & Genaim style)",
        eager_generator_synthesis,
    )
)
register_prover(
    BaselineProver(
        "podelski_rybalchenko",
        "complete monodimensional linear ranking synthesis (VMCAI 2004)",
        podelski_rybalchenko,
        accepts_max_dimension=False,
    )
)
register_prover(
    BaselineProver(
        "heuristic",
        "Loopus-style syntactic candidate guessing over loop guards",
        heuristic_prover,
    )
)
register_prover(
    BaselineProver(
        "dnf",
        "greedy per-disjunct lexicographic elimination over the eager DNF",
        dnf_prover,
    )
)
