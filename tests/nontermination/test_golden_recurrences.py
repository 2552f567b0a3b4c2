"""Golden recurrence sets: the nontermination engine on corpus and fuzz.

``data/golden_recurrences.json`` maps each program to what
:func:`~repro.nontermination.synthesize_recurrence` returns on it when
called directly: ``success``, ``message``, the lasso's ``to_dict()``
(``None`` without one), the ``nontermination.engine.*`` and
``lp.ilp.nodes`` counters of the call, and the sequence of ``nonterm_*``
event kinds its observer receives.  The programs are the 223 of the
built-in corpus (``suite/program``) and the first 200 of
``ProgramGenerator(0)`` (their ``fuzz-0-...`` names).  The test requires
exact equality, so a refactor of the engine is shown to try the same
candidates in the same order and to find the same lassos.

Regenerate the file (only when a change is meant to move the search)::

    PYTHONPATH=src python tests/nontermination/test_golden_recurrences.py --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.benchsuite.registry import get_suite, suite_names
from repro.checking.generator import ProgramGenerator
from repro.frontend.lowering import compile_program
from repro.metrics import recording
from repro.nontermination import synthesize_recurrence

GOLDEN = Path(__file__).parent / "data" / "golden_recurrences.json"

#: Generated programs covered, as in ``repro fuzz --seed 0 --count 200``.
FUZZ_SEED = 0
FUZZ_COUNT = 200


def programs():
    """The keys and automaton builders the golden file covers."""
    for suite in suite_names():
        for program in get_suite(suite):
            yield "%s/%s" % (suite, program.name), program.build
    for program in ProgramGenerator(FUZZ_SEED).programs(FUZZ_COUNT):
        yield program.name, functools.partial(
            compile_program, program.source, program.name
        )


BUILDERS = dict(programs())


def search(key: str) -> Dict[str, object]:
    """The engine's outcome, counters and event kinds on one program."""
    automaton = BUILDERS[key]()
    kinds = []
    with recording() as counters:
        outcome = synthesize_recurrence(
            automaton, observers=(lambda event: kinds.append(event.kind),)
        )
    return {
        "success": outcome.success,
        "message": outcome.message,
        "lasso": outcome.lasso.to_dict() if outcome.lasso is not None else None,
        "counters": {
            name: value
            for name, value in sorted(counters.items())
            if name.startswith("nontermination.engine.") or name == "lp.ilp.nodes"
        },
        "events": kinds,
    }


def compute_golden() -> Dict[str, Dict[str, object]]:
    return {key: search(key) for key in BUILDERS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_programs(golden):
    assert sorted(golden) == sorted(BUILDERS)


@pytest.mark.parametrize("key", list(BUILDERS))
def test_recurrence_search_matches_golden(key, golden):
    # A JSON round trip turns the lasso's tuples into lists.
    assert json.loads(json.dumps(search(key))) == golden[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_recurrences.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
