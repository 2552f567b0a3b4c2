#!/usr/bin/env python3
"""Quickstart: prove termination of a small program and print the witness.

Uses the unified analysis API: one :func:`repro.analyze` call runs the
staged pipeline (frontend → invariants → cutset → large_block →
synthesis → certificate) and returns a JSON-serializable
:class:`~repro.api.result.AnalysisResult`.

Run with ``python examples/quickstart.py``.
"""

from repro import AnalysisConfig, AnalysisResult, analyze

PROGRAM = """
var x, y;
assume(y >= 1);
while (x > 0) {
    if (nondet()) { x = x - y; } else { x = x - 2 * y; }
}
"""


def main() -> None:
    result = analyze(
        PROGRAM,
        tool="termite",
        config=AnalysisConfig(),
        name="quickstart",
    )
    print("status            :", result.status.value)
    print("dimension         :", result.dimension)
    print("certificate valid :", result.certificate_checked)
    print("analysis time     : %.1f ms" % (result.time_seconds * 1000.0))
    print(
        "LP size (avg rows, cols) : (%.1f, %.1f)"
        % (result.lp_statistics.average_rows, result.lp_statistics.average_cols)
    )
    if result.ranking is not None:
        print("ranking function  :", result.ranking.pretty())

    # Every result serialises to JSON and back *exactly* — rankings included.
    assert AnalysisResult.from_json(result.to_json()) == result
    print("JSON round-trip   : exact (%d bytes)" % len(result.to_json()))


if __name__ == "__main__":
    main()
