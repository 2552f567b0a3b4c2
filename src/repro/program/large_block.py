"""Large-block encoding of a control-flow automaton.

Given a cut-set ``W``, every pair ``(k, k')`` of cut points connected by a
path that stays outside ``W`` gives rise to one :class:`BlockTransition`
whose formula relates the variables at ``k`` (unprimed) with the variables
at ``k'`` (primed).

The construction is the one described in §2.2 of the paper, over SSA
values as in Termite (see also Beyer et al., "Software model checking via
large-block encoding", FMCAD 2009).  The region between cut points is
acyclic, so the encoder executes it symbolically in topological order:
every location keeps the affine *version* of each variable
(:meth:`~repro.program.transition.Transition.post`).  A variable gets a
new name only where it changes beyond an affine update: a havoc or an
auxiliary input gets a fresh ``name!n``, and a control-flow join whose
incoming branches disagree on a variable gets the join copy ``x@ℓ!bN``,
with one equality per branch.  A variable no step changes needs no frame
equality, and the edge into the target cut point adds ``x' = version(x)``.

A formula *linear in the size of the program* thus describes the union of
all (possibly exponentially many) paths: disjunctions appear at joins and
are never expanded.  The formula objects are shared (a DAG), and the
Tseitin encoder of the SMT layer caches on identity, so laziness is
preserved end-to-end.  Fresh and join names are left free, i.e. implicitly
existentially quantified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import FALSE, TRUE, Formula, conjunction, disjunction
from repro.linexpr.transform import formula_atoms, prime_suffix
from repro.metrics import count
from repro.program.automaton import ControlFlowAutomaton
from repro.program.cutset import compute_cutset
from repro.program.transition import Transition

_block_counter = itertools.count()

#: The paths from the block's source to one location: their formula, the
#: version of every variable at the location, and how many paths they are.
_Reach = Tuple[Formula, Dict[str, LinExpr], int]


@dataclass
class BlockTransition:
    """All paths from cut point *source* to cut point *target*.

    ``formula`` is over the program variables ``x`` (values at *source*)
    and their primed versions ``x'`` (values at *target*); every other
    variable occurring in it is an implicitly existentially quantified
    join copy or havoc input.
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
    join_copies = 0
    for source in cutset:
        found, copies = _blocks_from(automaton, source, cut)
        blocks.extend(found)
        join_copies += copies
    count(
        "program.large_block.atoms",
        sum(len(formula_atoms(block.formula)) for block in blocks),
    )
    count("program.large_block.join_copies", join_copies)
    return blocks


def _blocks_from(
    automaton: ControlFlowAutomaton, source: str, cut: set
) -> Tuple[List[BlockTransition], int]:
    """Block transitions starting at the cut point *source*, and the
    number of join copies they introduce."""
    variables = automaton.variables
    batch = next(_block_counter)
    join_copies = 0

    # reach[ℓ] describes the paths source → ℓ staying outside the cut-set
    # after the first step (no entry: no such path); computed once per
    # location, so shared prefixes are encoded once.
    reach: Dict[str, _Reach] = {
        source: (TRUE, {name: LinExpr.variable(name) for name in variables}, 1)
    }

    def arms(location: str) -> Iterator[Tuple[Transition, _Reach]]:
        """The paths into *location*, one entry per incoming edge."""
        for transition in automaton.incoming(location):
            previous = reach.get(transition.source)
            if previous is None:
                continue
            formula, versions, paths = previous
            guard, after = transition.post(versions)
            step = conjunction([formula, guard])
            if step is not FALSE:
                yield transition, (step, after, paths)

    def join(location: str, incoming: List[_Reach]) -> _Reach:
        nonlocal join_copies
        if len(incoming) == 1:
            return incoming[0]
        versions: Dict[str, LinExpr] = {}
        equalities: List[List[Formula]] = [[] for _ in incoming]
        for name in variables:
            values = [after[name] for _, after, _ in incoming]
            if all(value == values[0] for value in values[1:]):
                versions[name] = values[0]
                continue
            copy = LinExpr.variable("%s@%s!b%d" % (name, location, batch))
            versions[name] = copy
            join_copies += 1
            for branch, value in zip(equalities, values):
                branch.append(copy.eq(value))
        formula = disjunction(
            conjunction([branch[0]] + extra)
            for branch, extra in zip(incoming, equalities)
        )
        return formula, versions, sum(paths for _, _, paths in incoming)

    for location in _region(automaton, source, cut):
        incoming = [arm for _, arm in arms(location)]
        if incoming:
            reach[location] = join(location, incoming)

    blocks: List[BlockTransition] = []
    for target in sorted(cut):
        disjuncts: List[Formula] = []
        paths = 0
        for transition, (formula, after, arm_paths) in arms(target):
            disjuncts.append(
                conjunction(
                    [formula]
                    + [
                        LinExpr.variable(prime_suffix(name)).eq(after[name])
                        for name in variables
                        if not transition.havocs(name)
                    ]
                )
            )
            paths += arm_paths
        if disjuncts:
            blocks.append(
                BlockTransition(source, target, disjunction(disjuncts), paths)
            )
    return blocks, join_copies


def _region(
    automaton: ControlFlowAutomaton, source: str, cut: set
) -> List[str]:
    """The locations reachable from *source* without entering a cut
    point, each after all of its predecessors among them.

    The region is acyclic (every cycle passes a cut point), so a reverse
    depth-first postorder is a topological order.
    """
    postorder: List[str] = []
    visited = {source}
    stack = [(source, iter(automaton.successors(source)))]
    while stack:
        location, successors = stack[-1]
        for successor in successors:
            if successor not in cut and successor not in visited:
                visited.add(successor)
                stack.append((successor, iter(automaton.successors(successor))))
                break
        else:
            stack.pop()
            postorder.append(location)
    return postorder[-2::-1]
