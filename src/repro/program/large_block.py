"""Large-block encoding of a control-flow automaton.

Given a cut-set ``W``, every pair ``(k, k')`` of cut points connected by a
path that stays outside ``W`` gives rise to one :class:`BlockTransition`
whose formula relates the variables at ``k`` (unprimed) with the variables
at ``k'`` (primed) and existentially quantifies (by simply leaving free)
one set of copies per intermediate location.

The construction is the one described in §2.2 of the paper: because the
region between cut points is acyclic, a formula *linear in the size of the
program* can describe the union of all (possibly exponentially many) paths
— disjunctions appear at control-flow joins and are never expanded.  The
formula objects are shared (a DAG), and the Tseitin encoder of the SMT
layer caches on identity, so laziness is preserved end-to-end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import FALSE, Formula, conjunction, disjunction
from repro.linexpr.transform import prime_suffix
from repro.program.automaton import ControlFlowAutomaton
from repro.program.cutset import compute_cutset
from repro.program.transition import Transition

_block_counter = itertools.count()


@dataclass
class BlockTransition:
    """All paths from cut point *source* to cut point *target*.

    ``formula`` is over the program variables ``x`` (values at *source*)
    and their primed versions ``x'`` (values at *target*); every other
    variable occurring in it is an implicitly existentially quantified
    intermediate copy or havoc input.
    """

    source: str
    target: str
    formula: Formula
    path_count: int

    def __repr__(self) -> str:
        return "BlockTransition(%s -> %s, %d paths)" % (
            self.source,
            self.target,
            self.path_count,
        )


def large_block_encoding(
    automaton: ControlFlowAutomaton,
    cutset: Optional[Sequence[str]] = None,
) -> List[BlockTransition]:
    """Summarise the automaton onto its cut-set.

    Returns one :class:`BlockTransition` per pair of cut points that is
    connected by at least one path avoiding other cut points internally.
    """
    if cutset is None:
        cutset = compute_cutset(automaton)
    cut = set(cutset)
    blocks: List[BlockTransition] = []
    for source in cutset:
        blocks.extend(_blocks_from(automaton, source, cut))
    return blocks


def _blocks_from(
    automaton: ControlFlowAutomaton, source: str, cut: set
) -> List[BlockTransition]:
    """Block transitions starting at the cut point *source*."""
    variables = automaton.variables
    batch = next(_block_counter)

    def copy_name(location: str, variable: str) -> str:
        return "%s@%s!b%d" % (variable, location, batch)

    # reach[ℓ] = (formula, path count) describing paths source → ℓ staying
    # outside the cut-set after the first step; the values at ℓ are held in
    # the per-location copies copy_name(ℓ, v).  Memoised over the acyclic
    # region, so shared prefixes are encoded once.
    reach: Dict[str, Tuple[Formula, int]] = {}

    def reach_location(location: str) -> Tuple[Formula, int]:
        if location == source:
            equalities = [
                LinExpr.variable(copy_name(source, name)).eq(
                    LinExpr.variable(name)
                )
                for name in variables
            ]
            return conjunction(equalities), 1
        cached = reach.get(location)
        if cached is not None:
            return cached
        disjuncts: List[Formula] = []
        paths = 0
        for transition in automaton.incoming(location):
            predecessor = transition.source
            if predecessor in cut and predecessor != source:
                continue
            previous, previous_paths = reach_location(predecessor)
            if previous is FALSE:
                continue
            step = _step_formula(transition, variables, copy_name)
            disjuncts.append(conjunction([previous, step]))
            paths += previous_paths
        result = (disjunction(disjuncts), paths)
        reach[location] = result
        return result

    blocks: List[BlockTransition] = []
    for target in sorted(cut):
        disjuncts: List[Formula] = []
        paths = 0
        for transition in automaton.incoming(target):
            predecessor = transition.source
            if predecessor in cut and predecessor != source:
                continue
            previous, previous_paths = reach_location(predecessor)
            if previous is FALSE:
                continue
            prime = {name: prime_suffix(name) for name in variables}
            step = transition.relation(
                variables,
                prime=prime,
                source_renaming={
                    name: copy_name(predecessor, name) for name in variables
                },
            )
            disjuncts.append(conjunction([previous, step]))
            paths += previous_paths
        formula = disjunction(disjuncts)
        if formula is not FALSE:
            blocks.append(BlockTransition(source, target, formula, paths))
    return blocks


def _step_formula(
    transition: Transition,
    variables: Sequence[str],
    copy_name,
) -> Formula:
    """The relation of one intermediate edge, between per-location copies."""
    prime = {
        name: copy_name(transition.target, name) for name in variables
    }
    source_renaming = {
        name: copy_name(transition.source, name) for name in variables
    }
    return transition.relation(
        variables, prime=prime, source_renaming=source_renaming
    )
