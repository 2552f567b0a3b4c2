"""Recurrence-set synthesis: proving *non*-termination with a witness.

The subsystem mirrors the termination side of the house.  The engine
(:mod:`repro.nontermination.engine`) runs a CEGIS-style refinement loop
searching for a **recurrence set** — a polyhedron ``S`` over the program
variables at a cutpoint that is non-empty, reachable from the initial
states, and closed under one concrete pass around a cycle (escaping
states are the counterexamples; they refine the candidate).  Success is
packaged as a :class:`~repro.nontermination.witness.Lasso` — a concrete
stem plus a symbolic cycle — which the *independent*
:func:`repro.checking.recurrence.check_recurrence` re-proves with the
Farkas engine and replays step-by-step against the automaton semantics.

Layering: this package sits beside :mod:`repro.synthesis` and imports
only ``linexpr``/``program``/``smt`` plus the synthesis-event seam
(:class:`~repro.synthesis.engine.CegisEvent`).  It never imports
``repro.api`` or ``repro.checking``.
"""

from repro.nontermination.engine import (
    NontermResult,
    RecurrenceSynthesizer,
    synthesize_recurrence,
)
from repro.nontermination.witness import CycleStep, Lasso, StemStep

__all__ = [
    "CycleStep",
    "Lasso",
    "NontermResult",
    "RecurrenceSynthesizer",
    "StemStep",
    "synthesize_recurrence",
]
