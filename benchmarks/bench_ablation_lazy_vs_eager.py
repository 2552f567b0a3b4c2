"""Ablation: lazy counterexample enumeration vs eager generator enumeration.

Both are complete for lexicographic linear ranking functions relative to
the same invariants (Ben-Amram & Genaim eagerly compute every vertex/ray;
Termite discovers only the extremal counterexamples it needs), so the
comparison isolates the cost of eagerness: number of generators
materialised and end-to-end time.

Within the lazy loop, one warm-started simplex tableau per dimension
re-solves each new generator row from the previous optimal basis; the
pivot counters of :class:`~repro.core.lp_instance.LpStatistics` report
what that costs.  ``tests/core/test_incremental_lp.py`` checks it against
a cold solve of the textbook LP.
"""


from repro.api import Analysis, AnalysisConfig
from repro.baselines import eager_generator_synthesis
from repro.benchsuite import get_suite

PROGRAMS = [p for p in get_suite("termcomp") if p.terminating][:4]

CONFIG = AnalysisConfig(check_certificates=False)


def _run_lazy():
    proved = 0
    pivots = 0
    warm = 0
    cold = 0
    for program in PROGRAMS:
        result = Analysis(program.build(), config=CONFIG).run("termite")
        proved += int(result.proved)
        pivots += result.lp_statistics.pivots
        warm += result.lp_statistics.warm_solves
        cold += result.lp_statistics.cold_solves
    return proved, pivots, warm, cold


def _run_eager():
    proved = 0
    generators = 0
    for program in PROGRAMS:
        problem = Analysis(program.build(), config=CONFIG).problem()
        result = eager_generator_synthesis(problem)
        proved += int(result.proved)
        generators += int(result.details.get("generators", 0))
    return proved, generators


def test_lazy_enumeration(benchmark):
    proved, pivots, warm, cold = benchmark.pedantic(
        _run_lazy, rounds=1, iterations=1
    )
    print(
        "\nlazy (Termite, warm-started LP): proved %d/%d, "
        "%d pivots (%d warm / %d cold solves)"
        % (proved, len(PROGRAMS), pivots, warm, cold)
    )
    assert proved >= 1
    assert warm >= 1


def test_eager_enumeration(benchmark):
    proved, generators = benchmark.pedantic(_run_eager, rounds=1, iterations=1)
    print(
        "\neager (BG14-style): proved %d/%d using %d generators"
        % (proved, len(PROGRAMS), generators)
    )
    assert proved >= 1
