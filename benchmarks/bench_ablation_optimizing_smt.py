"""Ablation: local vs global optimisation in the SMT queries (§4 / §9).

The paper argues for *optimisation modulo theory*: minimising ``λ·u`` so
counterexamples are extremal.  The reproduction's OMT layer offers a
"local" mode (minimise inside the first satisfiable disjunct — the
default) and a "global" mode (search every disjunct for the overall
minimum).  Both are sound; the ablation compares their cost and the
number of refinement iterations they need.
"""

import pytest

from repro.api import Analysis, AnalysisConfig
from repro.benchsuite import get_suite

PROGRAMS = [p for p in get_suite("wtc") if p.terminating][:3]


def _run(mode: str):
    proved = 0
    iterations = 0
    for program in PROGRAMS:
        config = AnalysisConfig(smt_mode=mode, check_certificates=False)
        result = Analysis(program.build(), config=config).run("termite")
        proved += int(result.proved)
        iterations += result.iterations
    return proved, iterations


@pytest.mark.parametrize("mode", ["local", "global"])
def test_optimizing_smt_mode(benchmark, mode):
    proved, iterations = benchmark.pedantic(_run, args=(mode,), rounds=1, iterations=1)
    print(
        "\nmode=%s: proved %d/%d with %d refinement iterations"
        % (mode, proved, len(PROGRAMS), iterations)
    )
    assert proved >= 1
