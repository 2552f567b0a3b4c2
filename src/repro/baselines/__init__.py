"""Baseline termination provers used by the evaluation.

The paper's Table 1 compares Termite with external tools (Loopus, AProVE,
Ultimate Büchi Automizer, Rank/iRankFinder).  Those tools cannot be run in
this offline reproduction; instead the package implements the *methods*
they are built on, so the evaluation can compare the lazy
counterexample-guided construction against its eager and heuristic
competitors on identical inputs:

* :mod:`repro.baselines.podelski_rybalchenko` — the complete synthesis of
  (monodimensional) linear ranking functions of Podelski & Rybalchenko
  (VMCAI 2004), applied per transition polyhedron.
* :mod:`repro.baselines.eager_farkas` — eager lexicographic synthesis à la
  Alias–Darte–Feautrier–Gonnord (Rank): the transition relation is expanded
  into disjunctive normal form and one big Farkas constraint system is
  solved per lexicographic component.  Its LP sizes are the ones the paper
  contrasts with Termite's.
* :mod:`repro.baselines.eager_generators` — the generator-enumeration
  approach of Ben-Amram & Genaim (JACM 2014): every disjunct's vertices and
  rays are computed eagerly with the double-description method and a single
  ``LP(V, Constraints(I))`` instance is solved.
* :mod:`repro.baselines.heuristic` — a Loopus-style syntactic prover that
  guesses candidate ranking expressions from the guards and checks them.
* :mod:`repro.baselines.dnf_prover` — greedy per-disjunct lexicographic
  elimination over the eager DNF expansion (Bradley–Manna–Sipma-style
  one-by-one synthesis): many small Farkas LPs instead of one global one.

All five consume the same :class:`~repro.core.problem.TerminationProblem`
and its path polyhedra, expanded by each run
(:meth:`~repro.core.problem.TerminationProblem.disjuncts`), report results
in the same shape as the main prover, and count the sizes of their LPs
with :func:`~repro.core.lp_instance.record_lp`, as the main prover does.
"""

from repro.baselines.result import BaselineResult
from repro.baselines.podelski_rybalchenko import podelski_rybalchenko
from repro.baselines.eager_farkas import eager_farkas_lexicographic
from repro.baselines.eager_generators import eager_generator_synthesis
from repro.baselines.heuristic import heuristic_prover
from repro.baselines.dnf_prover import dnf_prover

__all__ = [
    "BaselineResult",
    "podelski_rybalchenko",
    "eager_farkas_lexicographic",
    "eager_generator_synthesis",
    "heuristic_prover",
    "dnf_prover",
]
