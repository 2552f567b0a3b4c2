"""The solver and the checker take a large-block formula as the DAG it is.

A loop body of *k* branches sequenced one after the other has ``2**k``
paths, but its large-block formula Φ shares the sub-formula of each
suffix, so it grows linearly in *k*.  The solver must keep it that way:
every node of the DAG gets one Tseitin variable, and every walk over it
(free variables, justification, evaluation) visits each node once.  The
certificate checker searches the DAG path prefix by path prefix and
never expands it into its paths either.
"""

import copy
import time

from repro.api import Analysis, AnalysisConfig
from repro.api.pipeline import analyze
from repro.api.request import AnalysisRequest
from repro.api.result import AnalysisStatus
from repro.checking.checker import CertificateVerdict, check_ranking
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


def _status_and_verdict(request):
    result = analyze(request)
    return result.status, result.details.get("certificate_verdict"), result.metrics


def test_termite_proves_a_block_of_many_branches():
    # Its formula has 2**24 paths; unfolding the DAG into a tree once took
    # seconds at 14 branches, growing four times with every two more.  The
    # certificate stage runs too: the checker must not expand the DAG either.
    request = AnalysisRequest(program=branches(24), name="branches-24")
    start = time.perf_counter()
    [task] = run_tasks([lambda: _status_and_verdict(request)], jobs=1, timeout=30)
    elapsed = time.perf_counter() - start
    assert task.ok, (task.kind, task.message)
    status, verdict, metrics = task.value
    assert status is AnalysisStatus.TERMINATING
    assert verdict["status"] == CertificateVerdict.VALID
    assert metrics["checking.checker.search_nodes"] > 0
    assert "checking.checker.search_cap_hits" not in metrics
    assert elapsed < 1.0, elapsed


def test_tampered_certificate_on_13_branches_is_invalid_with_a_witness():
    analysis = Analysis(
        branches(13),
        name="branches-13",
        config=AnalysisConfig(check_certificates=False),
    )
    result = analysis.run("termite")
    assert result.proved
    tampered = copy.deepcopy(result.ranking)
    component = tampered.components[0]
    for location in component.coefficients:
        component.coefficients[location] = -component.coefficients[location]
    verdict = check_ranking(analysis.problem(), tampered)
    assert verdict.status == CertificateVerdict.INVALID
    assert verdict.failures[0].witness
