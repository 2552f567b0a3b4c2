"""Smoke tests of the ``python -m repro`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import AnalysisResult

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
LISTING1 = REPO_ROOT / "examples" / "listing1.imp"

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"
DIVERGING = "var x; assume(x >= 1); while (x > 0) { x = x + 1; }"


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


class TestListProvers:
    def test_lists_all_six_tools(self):
        process = run_cli("list-provers")
        assert process.returncode == 0
        for name in [
            "termite",
            "eager_farkas",
            "eager_generators",
            "podelski_rybalchenko",
            "heuristic",
            "dnf",
        ]:
            assert name in process.stdout

    def test_json_output(self):
        process = run_cli("list-provers", "--json")
        assert process.returncode == 0
        document = json.loads(process.stdout)
        assert len(document["provers"]) == 6


class TestProve:
    def test_proves_the_paper_example_file(self):
        process = run_cli("prove", str(LISTING1))
        assert process.returncode == 0, process.stderr
        assert "terminating" in process.stdout
        assert "synthesis" in process.stdout  # stage breakdown printed

    def test_json_result_parses_and_round_trips(self):
        process = run_cli("prove", str(LISTING1), "--json", "--name", "listing1")
        assert process.returncode == 0, process.stderr
        result = AnalysisResult.from_json(process.stdout)
        assert result.proved and result.program == "listing1"
        assert AnalysisResult.from_json(result.to_json()) == result

    def test_reads_stdin(self):
        process = run_cli("prove", "-", "--tool", "dnf", stdin=COUNTDOWN)
        assert process.returncode == 0, process.stderr

    def test_unproved_program_exits_2(self):
        process = run_cli("prove", "-", stdin=DIVERGING)
        assert process.returncode == 2

    def test_unknown_tool_exits_1(self):
        process = run_cli("prove", "-", "--tool", "nope", stdin=COUNTDOWN)
        assert process.returncode == 1
        assert "unknown tool" in process.stderr

    def test_bad_config_value_rejected(self):
        process = run_cli(
            "prove", "-", "--max-iterations", "0", stdin=COUNTDOWN
        )
        assert process.returncode == 1
        assert "max_iterations" in process.stderr

    def test_missing_file_exits_1(self):
        process = run_cli("prove", "does-not-exist.imp")
        assert process.returncode == 1

    def test_config_file_baseline_with_flag_override(self, tmp_path):
        # The file carries a legacy ``lp_mode`` key: configs written before
        # the field was removed still load (the key is dropped).
        config_path = tmp_path / "config.json"
        config_path.write_text(
            '{"lp_mode": "cold", "nonterm": "off", "check_certificates": false}'
        )
        process = run_cli(
            "prove", "-", "--json",
            "--config", str(config_path), "--nonterm", "auto",
            stdin=DIVERGING,
        )
        assert process.returncode == 5, process.stderr  # proved diverging
        result = json.loads(process.stdout)
        assert result["status"] == "nonterminating"  # the flag wins
        assert result["certificate_checked"] is False  # the file's baseline

    @pytest.mark.parametrize(
        "flags", [["--domain", "polyhedra"], ["--no-guard-restriction"]]
    )
    def test_removed_invariant_flags_are_usage_errors(self, flags):
        process = run_cli("prove", "-", *flags, stdin=COUNTDOWN)
        assert process.returncode == 2
        assert "unrecognized arguments" in process.stderr


@pytest.mark.slow
class TestTable1Subcommand:
    def test_tiny_slice_runs(self, tmp_path):
        json_path = tmp_path / "table1.json"
        process = run_cli(
            "table1",
            "--suite", "sorts",
            "--tool", "heuristic", "--tool", "dnf",
            "--limit", "1",
            "--json", str(json_path),
        )
        assert process.returncode == 0, process.stderr
        document = json.loads(json_path.read_text())
        assert document["schema_version"] == 2
        assert document["totals"]["programs"] == 2
        assert document["totals"]["problem_sharing"]["rebuilds_avoided"] == 1
