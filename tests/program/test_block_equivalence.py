"""The large-block encoding against an explicit-path reference.

The reference composes the one-step :meth:`Transition.relation` along
every explicit CFA path of a block, with fresh copies of all variables at
every location and no sharing.  On every corpus program and on 200
generated programs, each block of :func:`large_block_encoding` must have
the reference's path count, the reference's path relations projected
onto ``(x, x')`` (as a multiset: polyhedron equality plus the same number
of strict atoms), and no more atoms than the reference.
"""

import itertools
from typing import Dict, List, Tuple

from repro.benchsuite import get_suite, suite_names
from repro.checking.generator import ProgramGenerator
from repro.frontend.lowering import compile_program
from repro.linexpr.formula import FALSE, And, Atom, Formula, Or, TRUE, conjunction
from repro.linexpr.transform import formula_atoms, prime_suffix, rename_formula
from repro.metrics import recording
from repro.polyhedra.polyhedron import Polyhedron
from repro.program.cutset import compute_cutset
from repro.program.large_block import large_block_encoding

_copies = itertools.count()


def _reference_blocks(automaton, cutset) -> Dict[Tuple[str, str], List[Formula]]:
    """One relation per explicit path, keyed by (source, target)."""
    variables = automaton.variables
    cut = set(cutset)
    paths: Dict[Tuple[str, str], List[Formula]] = {}

    def walk(source, location, names, steps):
        for transition in automaton.outgoing(location):
            if transition.target in cut:
                after = {name: prime_suffix(name) for name in variables}
            else:
                index = next(_copies)
                after = {name: "%s@ref%d" % (name, index) for name in variables}
            renaming = dict(names)
            renaming.update(
                {prime_suffix(name): after[name] for name in variables}
            )
            step = rename_formula(transition.relation(variables), renaming)
            formula = conjunction(steps + [step])
            if formula is FALSE:
                continue
            if transition.target in cut:
                paths.setdefault((source, transition.target), []).append(formula)
            else:
                walk(source, transition.target, after, steps + [step])

    for source in cutset:
        walk(source, source, {name: name for name in variables}, [])
    return paths


def _expand(formula: Formula) -> List[list]:
    """DNF of a block formula.

    Unlike ``dnf_conjunctions`` it keeps constant atoms: a guard whose
    versions fold to a constant is still one (strict or not) atom of its
    path, as it is in the reference.
    """
    if formula is TRUE:
        return [[]]
    if isinstance(formula, Atom):
        return [[formula.constraint]]
    if isinstance(formula, Or):
        return [c for operand in formula.operands for c in _expand(operand)]
    assert isinstance(formula, And), formula
    product: List[list] = [[]]
    for operand in formula.operands:
        product = [left + right for left in product for right in _expand(operand)]
    return product


def _projections(formula: Formula, variables) -> List[Tuple[int, Polyhedron]]:
    keep = list(variables) + [prime_suffix(name) for name in variables]
    result = []
    for conjunct in _expand(formula):
        space = sorted(set(keep).union(*(c.variables() for c in conjunct)))
        polyhedron = Polyhedron(space, conjunct).project(keep)
        result.append((sum(c.is_strict() for c in conjunct), polyhedron))
    return result


def _same_multiset(left, right) -> bool:
    unmatched = list(right)
    for strict, polyhedron in left:
        for index, (other_strict, other) in enumerate(unmatched):
            if strict == other_strict and polyhedron.equals(other):
                del unmatched[index]
                break
        else:
            return False
    return not unmatched


def _programs():
    for suite in suite_names():
        for program in get_suite(suite):
            yield "%s/%s" % (suite, program.name), program.build
    for program in ProgramGenerator(0).programs(200):
        yield program.name, (
            lambda program=program: compile_program(program.source, program.name)
        )


def test_blocks_match_the_explicit_path_reference():
    checked = 0
    with recording() as counters:
        for name, build in _programs():
            checked += _check_program(name, build())
    assert checked > 0
    assert counters["program.large_block.join_copies"] > 0


def _check_program(name, automaton) -> int:
    """Compare every block of *automaton*; the number of paths compared."""
    checked = 0
    cutset = compute_cutset(automaton) or [automaton.initial_location]
    reference = _reference_blocks(automaton, cutset)
    blocks = large_block_encoding(automaton, cutset)
    assert {(b.source, b.target) for b in blocks} == set(reference), name
    for block in blocks:
        paths = reference[(block.source, block.target)]
        where = "%s: %s -> %s" % (name, block.source, block.target)
        assert block.path_count == len(paths), where
        expected = [
            item
            for path in paths
            for item in _projections(path, automaton.variables)
        ]
        assert _same_multiset(
            _projections(block.formula, automaton.variables), expected
        ), where
        atoms = len(formula_atoms(conjunction(paths)))
        assert len(formula_atoms(block.formula)) <= atoms, where
        checked += block.path_count
    return checked
