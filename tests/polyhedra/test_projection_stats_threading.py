"""Thread isolation of the FM projection counters.

:mod:`repro.metrics` recordings are thread-local: concurrent projections
(service request threads run analyses side by side in one process) must never
interleave counter increments or fold each other's ``lp_calls_saved``
into their results.  These tests run identical projection workloads
concurrently and assert every thread recorded exactly the counters of
its *own* work — identical to a solo run of the same workload.
"""

import threading
from fractions import Fraction

from repro.api import AnalysisConfig, AnalysisRequest, analyze
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.metrics import recording
from repro.polyhedra.projection import fourier_motzkin

NESTED = """
var i, j, n;
assume(n >= 0 and n <= 1000);
i = 0;
while (i < n) {
    j = 0;
    while (j < n) { j = j + 1; }
    i = i + 1;
}
"""


def _workload():
    """A projection with redundancy: exercises every counter."""
    names = ["a", "b", "c", "d", "e"]
    constraints = []
    for lo, hi, name in [(0, 10, n) for n in names]:
        constraints.append(
            Constraint(LinExpr({name: Fraction(-1)}, Fraction(lo)), Relation.LE)
        )
        constraints.append(
            Constraint(LinExpr({name: Fraction(1)}, Fraction(-hi)), Relation.LE)
        )
    constraints.append(
        Constraint(
            LinExpr({"a": Fraction(1), "b": Fraction(1)}, Fraction(-15)),
            Relation.LE,
        )
    )
    constraints.append(
        Constraint(
            LinExpr({"a": Fraction(1), "b": Fraction(1)}, Fraction(-40)),
            Relation.LE,  # dominated: counts one saved LP call
        )
    )
    fourier_motzkin(constraints, ["a", "b", "c"])


class TestCounterIsolation:
    def test_concurrent_projections_see_only_their_own_work(self):
        repeats = 5
        barrier = threading.Barrier(2)
        observed = {}

        def run(label):
            with recording() as counters:
                barrier.wait()
                for _ in range(repeats):
                    _workload()
            observed[label] = counters

        threads = [
            threading.Thread(target=run, args=(name,))
            for name in ("first", "second")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Solo baseline on this (third) thread.
        with recording() as solo:
            for _ in range(repeats):
                _workload()

        assert observed["first"] == solo
        assert observed["second"] == solo
        # The workload is non-trivial (the counters actually moved).
        assert solo["polyhedra.projection.lp_calls_saved"] >= repeats
        assert solo["polyhedra.projection.variables_eliminated"] > 0

    def test_other_threads_do_not_disturb_a_snapshot(self):
        with recording() as counters:
            worker = threading.Thread(target=_workload)
            worker.start()
            worker.join()
        assert counters == {}


class TestConcurrentProvers:
    def test_two_provers_fold_identical_lp_savings(self):
        """Two concurrent analyses must report the same savings as one."""
        config = AnalysisConfig()
        request = AnalysisRequest(program=NESTED, tool="termite", config=config)
        solo = analyze(request).metrics

        results = {}
        barrier = threading.Barrier(2)

        def run(label):
            barrier.wait()
            results[label] = analyze(
                AnalysisRequest(program=NESTED, tool="termite", config=config)
            ).metrics

        threads = [
            threading.Thread(target=run, args=(name,))
            for name in ("first", "second")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert solo["polyhedra.projection.lp_calls_saved"] > 0
        assert results["first"] == solo
        assert results["second"] == solo
