"""The benchmark's workloads: which programs, in which order, under which config.

Every workload is a single-process closed loop over a fixed list of
programs, and ``--seed`` shuffles its order, so the same seed always
gives the same inputs.  The programs of ``generated`` come from
``ProgramGenerator(gen_seed)``; ``gen_seed`` is a separate argument
because some generator seeds produce programs on which ``termite`` does
not finish (seed 1 index 61 runs for minutes), and a run must never hang
on the seed it is given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: One polybench program per distinct loop-nest shape; the other polybench
#: programs repeat these shapes with identical iteration and pivot counts.
#: ``jacobi_2d`` is left out, like the sorts below: each takes 4-8 s on its
#: own, and with them a pass would take 26 s, too long to fit the two
#: passes a steady run needs.
POLYBENCH_SHAPES = ("gemm", "jacobi_1d", "cholesky", "mvt", "durbin")
SORTS_LEFT_OUT = ("cocktail_sort", "shell_sort")

#: Programs per ``generated`` pass unless ``--count`` says otherwise.
GENERATED_COUNT = 100

WORKLOADS = ("nested_loops", "breadth", "generated")


@dataclass(frozen=True)
class Item:
    """One input program with its ground truth.

    ``terminating`` is ``True``/``False`` when the truth is known and
    ``None`` when it is not (generated programs of unknown status).
    """

    name: str
    source: str
    terminating: Optional[bool]


def materialise(
    workload: str, seed: int, count: int = GENERATED_COUNT, gen_seed: int = 0
) -> Tuple[dict, List[Item]]:
    """The ``AnalysisConfig`` keyword arguments and the ordered inputs."""
    if workload == "generated":
        from repro.checking import ProgramGenerator

        truth = {"terminating": True, "nonterminating": False}
        items = [
            Item(program.name, program.source, truth.get(program.expected))
            for program in ProgramGenerator(gen_seed).programs(count)
        ]
        random.Random(seed).shuffle(items)
        return {"nonterm": "auto"}, items
    from repro.benchsuite.registry import get_suite

    if workload == "nested_loops":
        programs = [
            program
            for program in get_suite("sorts")
            if program.name not in SORTS_LEFT_OUT
        ] + [
            program
            for program in get_suite("polybench")
            if program.name in POLYBENCH_SHAPES
        ]
    elif workload == "breadth":
        programs = get_suite("wtc") + get_suite("termcomp")
    else:
        raise ValueError(
            "unknown workload %r (available: %s)" % (workload, ", ".join(WORKLOADS))
        )
    items = [
        Item("%s/%s" % (program.suite, program.name), program.source, program.terminating)
        for program in programs
    ]
    random.Random(seed).shuffle(items)
    return {}, items
