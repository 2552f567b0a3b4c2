"""The prover registry: every termination tool behind one interface.

A :class:`Prover` turns a prepared
:class:`~repro.core.problem.TerminationProblem` plus an
:class:`~repro.api.config.AnalysisConfig` into an
:class:`~repro.api.result.AnalysisResult`.  Tools register under stable
names (``termite``, ``eager_farkas``, ``eager_generators``,
``podelski_rybalchenko``, ``heuristic``, ``dnf``) and are looked up with
:func:`get_prover`; hyphenated spellings (``eager-farkas``) are accepted
as aliases so historical command lines keep working.

The registry is what lets the batch runner, the Table-1 harness and the
``repro`` CLI schedule heterogeneous solvers uniformly — no tool-specific
invocation glue anywhere above this module.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.config import AnalysisConfig
    from repro.api.result import AnalysisResult
    from repro.core.problem import TerminationProblem


#: The capability flags a prover may advertise:
#:
#: ``certificates``    — every prover: the pipeline's ``certificate`` stage
#:                       audits its claims (``Analysis.certify``);
#: ``cex-oracles``     — honours :attr:`AnalysisConfig.cex_oracle`;
#: ``cex-strategies``  — honours ``cex_strategy`` (extremal or arbitrary
#:                       counterexamples);
#: ``max-dimension``   — honours ``max_dimension``;
#: ``events``          — :meth:`Prover.prove` accepts an ``observer``
#:                       keyword receiving per-iteration engine events;
#: ``nontermination``  — honours ``nonterm`` / ``nonterm_budget`` and can
#:                       return NONTERMINATING with a lasso witness
#:                       (:meth:`Prover.prove` accepts an ``automaton``
#:                       keyword).
CAPABILITIES = (
    "certificates",
    "cex-oracles",
    "cex-strategies",
    "max-dimension",
    "events",
    "nontermination",
)


class Prover(abc.ABC):
    """One termination prover behind the uniform analysis interface.

    A prover only proves; it never audits its own claims.  The pipeline's
    ``certificate`` stage does that, with the same independent checkers
    for every prover (:meth:`repro.api.pipeline.Analysis.certify`).
    """

    #: Stable registry name (also the ``tool`` field of results).
    name: str = ""
    #: One-line description shown by ``repro list-provers``.
    summary: str = ""
    #: Which optional config knobs / hooks this prover honours beyond
    #: certification (a subset of :data:`CAPABILITIES`); everything else
    #: is silently ignored, and the flags let
    #: ``available_provers(capability=...)`` and the CLI tell callers so
    #: up front.
    extra_capabilities: frozenset = frozenset()

    @property
    def capabilities(self) -> frozenset:
        """All capability flags of this prover.

        ``"certificates"`` is always present: the pipeline audits every
        prover's claims the same way
        (:meth:`~repro.api.pipeline.Analysis.certify`).
        """
        return frozenset(self.extra_capabilities) | {"certificates"}

    @abc.abstractmethod
    def prove(
        self, problem: "TerminationProblem", config: "AnalysisConfig"
    ) -> "AnalysisResult":
        """Attempt a termination proof of *problem* under *config*."""

    def __repr__(self) -> str:
        return "<Prover %s>" % (self.name or type(self).__name__)


_REGISTRY: Dict[str, Prover] = {}


def register_prover(prover: Prover) -> Prover:
    """Register *prover* under its :attr:`~Prover.name`.

    Re-registering a name replaces the previous prover (kept simple so
    tests can install stubs).
    """
    if not prover.name:
        raise ValueError("prover %r has no name" % (prover,))
    _REGISTRY[prover.name] = prover
    return prover


def canonical_name(name: str) -> str:
    """Resolve *name* to the registry key.

    Hyphenated spellings (``eager-farkas``) normalise onto the canonical
    underscore names, so historical Table-1 command lines keep working.
    Raises :class:`KeyError` with the list of available provers when the
    name is unknown.
    """
    if name in _REGISTRY:
        return name
    normalised = name.replace("-", "_")
    if normalised in _REGISTRY:
        return normalised
    raise KeyError(
        "unknown tool %r (available: %s)" % (name, ", ".join(available_provers()))
    )


def get_prover(name: str) -> Prover:
    """Look up a registered prover by name or alias."""
    return _REGISTRY[canonical_name(name)]


def available_provers(capability: Optional[str] = None) -> List[str]:
    """Canonical prover names, in registration order.

    With *capability* (one of :data:`CAPABILITIES`) only the provers
    advertising that flag are listed — e.g.
    ``available_provers("cex-oracles")`` names the tools whose
    counterexample source is swappable.
    """
    if capability is None:
        return list(_REGISTRY)
    if capability not in CAPABILITIES:
        raise KeyError(
            "unknown capability %r (available: %s)"
            % (capability, ", ".join(CAPABILITIES))
        )
    return [
        name
        for name, prover in _REGISTRY.items()
        if capability in prover.capabilities
    ]


def prover_summaries() -> Dict[str, str]:
    """``{name: one-line summary}`` for every registered prover."""
    return {name: prover.summary for name, prover in _REGISTRY.items()}


def prover_capabilities() -> Dict[str, List[str]]:
    """``{name: sorted capability flags}`` for every registered prover."""
    return {
        name: sorted(prover.capabilities)
        for name, prover in _REGISTRY.items()
    }
