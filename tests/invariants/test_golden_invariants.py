"""Golden invariants: the polyhedral invariants of the built-in corpus.

``data/golden_invariants.json`` maps ``suite/program`` to, per location,
the normalised constraint strings of its invariant, in the invariant's
row order: at a cut point the one ``Analysis(...).problem()`` hands to
synthesis, elsewhere the one ``compute_invariants`` minimises when it is
read (the problem holds the cut points only).  That order is the row
order of the ranking LP and of the SMT oracle's formula, so it can move
rankings.  The test recomputes the
strings and requires exact equality, order included, so a change inside
the polyhedra domain or the analyzer is shown to keep every invariant of
the corpus.  The same
runs show that the polyhedra's emptiness flag settles every emptiness
test of the invariant stage: none needs a feasibility LP.

Regenerate the file (only when a change is meant to move invariants)::

    PYTHONPATH=src python tests/invariants/test_golden_invariants.py --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.api import Analysis
from repro.benchsuite.registry import get_suite
from repro.invariants.analyzer import compute_invariants
from repro.metrics import recording

GOLDEN = Path(__file__).parent / "data" / "golden_invariants.json"

#: One polybench program per distinct loop-nest shape (the ones the corpus
#: benchmark runs); the other polybench programs repeat these shapes.
POLYBENCH_SHAPES = ("gemm", "jacobi_1d", "cholesky", "mvt", "durbin")


def corpus():
    """The ``suite/program`` keys and sources the golden file covers."""
    for suite in ("wtc", "termcomp", "sorts", "polybench"):
        for program in get_suite(suite):
            if suite == "polybench" and program.name not in POLYBENCH_SHAPES:
                continue
            yield "%s/%s" % (suite, program.name), program.source


def analyse(source: str, name: str) -> Tuple[Dict[str, List[str]], Dict[str, int]]:
    """The invariant strings of every location, and the work counters of
    building the problem, running the analyzer and reading them."""
    with recording() as counters:
        analysis = Analysis(source, name=name)
        invariants = dict(analysis.problem().invariants.items())
        for location, polyhedron in compute_invariants(analysis.automaton()).items():
            invariants.setdefault(location, polyhedron)
        strings = {
            location: [
                str(constraint.normalized()) for constraint in polyhedron.constraints
            ]
            for location, polyhedron in sorted(invariants.items())
        }
    return strings, counters


def invariant_strings(source: str, name: str) -> Dict[str, List[str]]:
    return analyse(source, name)[0]


def compute_golden() -> Dict[str, Dict[str, List[str]]]:
    return {key: invariant_strings(source, key) for key, source in corpus()}


SOURCES = dict(corpus())


@functools.lru_cache(maxsize=None)
def analysed(key: str) -> Tuple[Dict[str, List[str]], Dict[str, int]]:
    return analyse(SOURCES[key], key)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_corpus(golden):
    assert sorted(golden) == sorted(SOURCES)


@pytest.mark.parametrize("key", list(SOURCES))
def test_invariants_match_golden(key, golden):
    assert analysed(key)[0] == golden[key]


def test_emptiness_is_decided_without_lp():
    by_lp = {
        key: analysed(key)[1].get("polyhedra.polyhedron.emptiness_by_lp", 0)
        for key in SOURCES
    }
    assert {key: n for key, n in by_lp.items() if n} == {}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_invariants.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
