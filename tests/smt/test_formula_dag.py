"""The solver encodes a large-block formula as the DAG it is built as.

A loop body of *k* branches sequenced one after the other has ``2**k``
paths, but its large-block formula Φ shares the sub-formula of each
suffix, so it grows linearly in *k*.  The solver must keep it that way:
every node of the DAG gets one Tseitin variable, and every walk over it
(free variables, justification, evaluation) visits each node once.
"""

from repro.api import Analysis, AnalysisConfig
from repro.api.pipeline import analyze
from repro.api.request import AnalysisRequest
from repro.api.result import AnalysisStatus
from repro.linexpr.transform import formula_size
from repro.reporting.parallel import run_tasks
from repro.smt.solver import SmtSolver


def branches(k: int) -> str:
    """``while (n > 0)`` around *k* sequenced two-way branches."""
    body = "\n".join(
        "    if (x > i) { y = y + i + 1; } else { y = y - 1; }" for _ in range(k)
    )
    return "var n, x, y, i;\nwhile (n > 0) {\n%s\n    n = n - 1;\n}\n" % body


def test_encoder_caches_each_node_of_the_block_formula_once():
    formula = Analysis(branches(12), name="branches-12").problem().transition_formula()
    solver = SmtSolver()
    solver.assert_formula(formula)
    assert len(solver._encoder._node_cache) <= formula_size(formula)


def test_termite_proves_a_block_of_many_branches():
    # Its formula has 2**24 paths; unfolding the DAG into a tree once took
    # seconds at 14 branches, growing four times with every two more.
    request = AnalysisRequest(
        program=branches(24),
        name="branches-24",
        config=AnalysisConfig(check_certificates=False),
    )
    [task] = run_tasks([lambda: analyze(request).status], jobs=1, timeout=30)
    assert task.ok, (task.kind, task.message)
    assert task.value is AnalysisStatus.TERMINATING
