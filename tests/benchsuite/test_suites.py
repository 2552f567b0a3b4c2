"""Tests for the benchmark suites and the reporting harness."""

import pytest

from repro.api import Analysis, AnalysisConfig, AnalysisStatus
from repro.benchsuite import get_suite, suite_names
from repro.benchsuite.registry import get_program
from repro.program.cutset import compute_cutset
from repro.reporting import format_table, run_suite
from repro.reporting.table import TABLE1_HEADERS, format_table1_row


class TestSuiteShapes:
    def test_suite_sizes_match_paper(self):
        assert len(get_suite("polybench")) == 30
        assert len(get_suite("sorts")) == 6
        assert len(get_suite("termcomp")) == 129
        assert len(get_suite("wtc")) == 58

    def test_names_unique_within_suite(self):
        for suite in suite_names():
            names = [program.name for program in get_suite(suite)]
            assert len(names) == len(set(names))

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            get_suite("nope")

    def test_lookup_single_program(self):
        program = get_program("wtc", "easy1")
        assert program.terminating

    def test_every_suite_contains_nonterminating_controls(self):
        for suite in ("termcomp", "wtc"):
            assert any(not p.terminating for p in get_suite(suite))

    def test_gnome_sort_does_not_terminate(self):
        # pos = 0 -> (pos == 0) pos = 1 -> (nondet() else-branch) pos = 0.
        program = get_program("sorts", "gnome_sort")
        assert program.terminating is False
        assert "pos = 1" in program.description
        assert [p.name for p in get_suite("sorts") if not p.terminating] == [
            "gnome_sort"
        ]

    @pytest.mark.parametrize("nonterm", ["off", "auto"])
    def test_termite_never_proves_gnome_sort(self, nonterm):
        program = get_program("sorts", "gnome_sort")
        result = Analysis(
            program.source, name=program.name, config=AnalysisConfig(nonterm=nonterm)
        ).run("termite")
        assert result.status is not AnalysisStatus.TERMINATING

    @pytest.mark.parametrize("suite", suite_names())
    def test_all_programs_compile(self, suite):
        for program in get_suite(suite):
            automaton = program.build()
            assert automaton.variables
            assert automaton.transitions

    def test_loopy_programs_have_cutsets(self):
        for program in get_suite("sorts"):
            automaton = program.build()
            assert compute_cutset(automaton)


class TestReporting:
    def test_run_suite_quick(self):
        programs = get_suite("termcomp")[10:13]  # three tiny countdown loops
        report = run_suite("termcomp", programs, tool="termite")
        assert report.total == 3
        assert report.successes >= 2
        assert not report.unsound

    def test_heuristic_tool(self):
        programs = get_suite("termcomp")[10:12]
        report = run_suite("termcomp", programs, tool="heuristic")
        assert report.total == 2

    def test_unknown_tool(self):
        with pytest.raises(KeyError):
            run_suite("termcomp", [], tool="does-not-exist")

    def test_table_rendering(self):
        programs = get_suite("termcomp")[10:12]
        report = run_suite("termcomp", programs, tool="termite")
        row = format_table1_row(report)
        text = format_table(TABLE1_HEADERS, [row])
        assert "termcomp" in text
        assert "termite" in text
