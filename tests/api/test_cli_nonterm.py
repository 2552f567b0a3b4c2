"""The nontermination surface of the ``repro`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.api import AnalysisResult

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

NONTERM = "var x; while (x >= 0) { x = x + 1; }"
TERM = "var x; while (x > 0) { x = x - 1; }"

#: Every trace line is exactly this CegisEvent shape.
TRACE_KEYS = {"kind", "component", "iteration", "payload"}


def run_cli(*args, stdin=None):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(SRC) + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=environment,
        cwd=str(REPO_ROOT),
        timeout=300,
    )


class TestProve:
    def test_nonterminating_exits_5_with_lasso(self):
        process = run_cli("prove", "-", "--nonterm", "auto", stdin=NONTERM)
        assert process.returncode == 5, process.stderr
        assert "nonterminating" in process.stdout
        assert "lasso witness" in process.stdout

    def test_json_result_round_trips_with_lasso(self):
        process = run_cli(
            "prove", "-", "--nonterm", "only", "--json", stdin=NONTERM
        )
        assert process.returncode == 5, process.stderr
        result = AnalysisResult.from_json(process.stdout)
        assert result.disproved
        assert result.lasso is not None
        assert AnalysisResult.from_json(result.to_json()) == result

    def test_terminating_still_exits_0_under_auto(self):
        process = run_cli("prove", "-", "--nonterm", "auto", stdin=TERM)
        assert process.returncode == 0, process.stderr

    def test_off_is_the_default(self):
        process = run_cli("prove", "-", stdin=NONTERM)
        assert process.returncode == 2

    def test_invalid_mode_is_a_usage_error(self):
        process = run_cli("prove", "-", "--nonterm", "race", stdin=NONTERM)
        assert process.returncode == 2
        assert "--nonterm" in process.stderr


class TestTrace:
    def test_trace_schema(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        process = run_cli(
            "prove",
            "-",
            "--nonterm",
            "auto",
            "--trace",
            str(trace),
            stdin=NONTERM,
        )
        assert process.returncode == 5, process.stderr
        lines = trace.read_text().splitlines()
        assert lines, "trace file is empty"
        events = [json.loads(line) for line in lines]
        for event in events:
            assert set(event) == TRACE_KEYS
            assert isinstance(event["kind"], str)
            assert isinstance(event["component"], int)
            assert isinstance(event["iteration"], int)
            assert isinstance(event["payload"], dict)
        assert any(event["kind"].startswith("nonterm_") for event in events)
        # auto runs termination first, then nontermination: every
        # termination event precedes the first nonterm_* event.
        kinds = [event["kind"] for event in events]
        first = next(
            i for i, kind in enumerate(kinds) if kind.startswith("nonterm_")
        )
        assert first > 0
        assert all(kind.startswith("nonterm_") for kind in kinds[first:])
        assert kinds[-1] == "nonterm_end"

    def test_trace_on_termination_run_too(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        process = run_cli(
            "prove", "-", "--trace", str(trace), stdin=TERM
        )
        assert process.returncode == 0, process.stderr
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events
        assert all(set(event) == TRACE_KEYS for event in events)


class TestTraceStreaming:
    """The trace stream survives an engine that dies mid-iteration.

    Events are written and flushed one at a time inside a context
    manager, so a crash still leaves a closed
    file of complete, individually parseable JSON lines — the buffered
    implementation used to leak the handle and truncate the final line.
    """

    def test_race_killed_early_leaves_complete_lines(self, tmp_path):
        # Termination synthesis stops at its one-iteration budget, then
        # nontermination succeeds; every line on disk must parse.
        trace = tmp_path / "trace.jsonl"
        process = run_cli(
            "prove",
            "-",
            "--nonterm",
            "auto",
            "--max-iterations",
            "1",
            "--trace",
            str(trace),
            stdin=NONTERM,
        )
        assert process.returncode == 5, process.stderr
        text = trace.read_text()
        assert text.endswith("\n"), "final trace line is truncated"
        for line in text.splitlines():
            event = json.loads(line)  # every line parses individually
            assert set(event) == TRACE_KEYS

    def test_engine_crash_still_closes_and_flushes_the_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        trace = tmp_path / "trace.jsonl"

        class _Event:
            kind = "candidate"
            component = 0
            iteration = 1
            payload = {"objective": "1"}

        def exploding_analyze(request, engine_observers=()):
            for observer in engine_observers:
                observer(_Event())
                observer(_Event())
            raise RuntimeError("engine died mid-iteration")

        monkeypatch.setattr(cli, "analyze", exploding_analyze)
        parser = cli.build_parser()
        arguments = parser.parse_args(
            ["prove", str(tmp_path / "prog.imp"), "--trace", str(trace)]
        )
        (tmp_path / "prog.imp").write_text(TERM)
        code = cli.command_prove(arguments)
        captured = capsys.readouterr()
        assert code == 1
        assert "engine died mid-iteration" in captured.err
        text = trace.read_text()
        lines = text.splitlines()
        assert len(lines) == 2  # both events hit the disk before the crash
        assert text.endswith("\n")
        for line in lines:
            assert set(json.loads(line)) == TRACE_KEYS

    def test_unwritable_trace_path_fails_before_analysis(self, tmp_path):
        trace = tmp_path / "missing" / "trace.jsonl"
        process = run_cli("prove", "-", "--trace", str(trace), stdin=TERM)
        assert process.returncode == 1
        assert "cannot write" in process.stderr


class TestCheck:
    def test_check_validates_a_nontermination_claim(self):
        process = run_cli("check", "-", "--nonterm", "only", stdin=NONTERM)
        assert process.returncode == 0, process.stdout + process.stderr
        assert "nonterminating" in process.stdout
        assert "1 disproved" in process.stdout

    def test_check_unknown_still_exits_2(self):
        process = run_cli("check", "-", stdin=NONTERM)
        assert process.returncode == 2
