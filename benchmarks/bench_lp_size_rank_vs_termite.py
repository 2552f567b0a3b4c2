"""The §9 LP-size comparison: Termite's lazy instances vs Rank's eager ones.

The paper reports that Rank's average LP is (584, 229) rows×columns on the
WTC suite while Termite's is (5, 2): the lazy construction is 1–2 orders
of magnitude smaller.  The benchmark measures both constructions on the
same problems and asserts the ordering (eager ≫ lazy).
"""


from repro.api import Analysis, AnalysisConfig
from repro.benchsuite import get_suite

PROGRAMS = [p for p in get_suite("wtc") if p.terminating][:4]

CONFIG = AnalysisConfig(check_certificates=False)


def _average_sizes(tool):
    rows = cols = count = 0
    for program in PROGRAMS:
        result = Analysis(program.build(), config=CONFIG).run(tool)
        if result.lp_statistics.instances:
            rows += result.lp_statistics.average_rows
            cols += result.lp_statistics.average_cols
            count += 1
    return (rows / count, cols / count) if count else (0.0, 0.0)


def _lazy_sizes():
    return _average_sizes("termite")


def _eager_sizes():
    return _average_sizes("eager_farkas")


def test_lazy_lp_sizes(benchmark):
    rows, cols = benchmark.pedantic(_lazy_sizes, rounds=1, iterations=1)
    print("\nTermite (lazy) average LP size: (%.1f, %.1f)" % (rows, cols))
    assert rows < 50


def test_eager_lp_sizes(benchmark):
    rows, cols = benchmark.pedantic(_eager_sizes, rounds=1, iterations=1)
    print("\nRank-style (eager Farkas) average LP size: (%.1f, %.1f)" % (rows, cols))
    lazy_rows, lazy_cols = _lazy_sizes()
    assert rows > lazy_rows, "eager construction should need more constraint rows"
