"""Synthesis runs over the rationals whatever ``integer_mode`` says.

The knob governs only the certificate check's integer tightening.
Every SMT context of the CEGIS loop is rational, so no synthesis query
reaches branch and bound, and termite's result is the same document with
and without the knob.
"""

from pathlib import Path

import pytest

from repro.api import AnalysisConfig
from repro.api.pipeline import analyze
from repro.api.request import AnalysisRequest
from repro.api.result import AnalysisStatus
from repro.benchsuite.registry import get_program
from repro.checking.generator import ProgramGenerator
from repro.reporting.parallel import run_tasks

LISTING1 = Path(__file__).resolve().parents[2] / "examples" / "listing1.imp"


def _run(source, name, integer_mode):
    return analyze(
        AnalysisRequest(
            program=source,
            name=name,
            config=AnalysisConfig(integer_mode=integer_mode),
        )
    )


def _without_times(result):
    document = result.to_dict()
    del document["time_seconds"], document["time_ms"]
    document["stages"] = [stage["name"] for stage in document["stages"]]
    return document


def test_integer_mode_does_not_reach_branch_and_bound():
    # Integer optimising queries on this program run branch and bound
    # down an unbounded tree for minutes; the rational ones take 0.02 s.
    program = ProgramGenerator(0).generate(159)
    assert program.name == "fuzz-0-159-random"
    [task] = run_tasks(
        [lambda: _run(program.source, program.name, True).status],
        jobs=1,
        timeout=30,
    )
    assert task.ok, (task.kind, task.message)
    assert task.value is AnalysisStatus.UNKNOWN


def _listing1():
    return LISTING1.read_text(), "listing1"


def _gemm():
    return get_program("polybench", "gemm").source, "gemm"


def _nested():
    program = ProgramGenerator(0).generate(8)
    assert program.name == "fuzz-0-8-nested"
    return program.source, program.name


@pytest.mark.parametrize(
    "program", [_listing1, _gemm, _nested], ids=["listing1", "gemm", "nested"]
)
def test_termite_result_ignores_integer_mode(program):
    source, name = program()
    rational = _without_times(_run(source, name, False))
    assert rational["status"] == "terminating"
    assert _without_times(_run(source, name, True)) == rational
