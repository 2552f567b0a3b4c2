"""The ``repro check`` and ``repro fuzz`` subcommands (in-process)."""

import functools
import json

import pytest

from repro.cli import main

COUNTDOWN = "var x;\nwhile (x > 0) { x = x - 1; }\n"


@pytest.fixture
def countdown_file(tmp_path):
    path = tmp_path / "countdown.imp"
    path.write_text(COUNTDOWN)
    return str(path)


class TestCheckCommand:
    def test_file_mode_validates(self, countdown_file, capsys):
        assert main(["check", countdown_file]) == 0
        out = capsys.readouterr().out
        assert "certificate valid" in out

    def test_file_mode_json(self, countdown_file, capsys):
        assert main(["check", countdown_file, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["totals"]["certificates_valid"] == 1
        assert document["totals"]["certificates_rejected"] == 0
        assert document["programs"][0]["verdict"]["status"] == "valid"

    def test_unproved_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spin.imp"
        path.write_text("var x;\nwhile (x > 0) { skip; }\n")
        assert main(["check", str(path)]) == 2

    def test_unknown_tool_exits_1(self, countdown_file, capsys):
        assert main(["check", countdown_file, "--tool", "nope"]) == 1

    def test_missing_operands_exits_1(self, capsys):
        assert main(["check"]) == 1

    def test_file_and_suite_together_exit_1(self, countdown_file, capsys):
        assert main(["check", countdown_file, "--suite", "wtc"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_error_rows_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.imp"
        path.write_text("var x;\nwhile (x > 0) {\n")
        assert main(["check", str(path)]) == 1
        assert "ParseError" in capsys.readouterr().out

    def test_inconclusive_exits_4(self, countdown_file, capsys, monkeypatch):
        # A zero node cap stops every block's search before its root.
        from repro.checking import checker

        monkeypatch.setattr(
            checker,
            "check_ranking",
            functools.partial(checker.check_ranking, node_cap=0),
        )
        code = main(["check", countdown_file])
        assert code == 4
        assert "inconclusive" in capsys.readouterr().out

    def test_unknown_suite_exits_1(self, capsys):
        assert main(["check", "--suite", "nope"]) == 1

    def test_terminating_claim_without_ranking_exits_3(
        self, countdown_file, capsys
    ):
        from repro.api.registry import Prover, _REGISTRY, register_prover
        from repro.api.result import AnalysisResult, AnalysisStatus

        class Rankingless(Prover):
            name = "rankingless_test_prover"
            summary = "test stub: TERMINATING with no certificate"

            def prove(self, problem, config):
                return AnalysisResult(
                    tool=self.name, status=AnalysisStatus.TERMINATING
                )

        register_prover(Rankingless())
        try:
            code = main(["check", countdown_file, "--tool", Rankingless.name])
        finally:
            _REGISTRY.pop(Rankingless.name, None)
        assert code == 3
        assert "without a ranking function" in capsys.readouterr().out


class TestFuzzCommand:
    def test_tiny_campaign(self, tmp_path, capsys):
        report_path = tmp_path / "fuzz.json"
        code = main(
            [
                "fuzz",
                "--seed", "1",
                "--count", "2",
                "--tool", "heuristic",
                "--json", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "soundness violations: 0" in out
        document = json.loads(report_path.read_text())
        assert document["ok"] is True
        assert document["programs"] == 2

    def test_unknown_tool_exits_1(self, capsys):
        assert main(["fuzz", "--count", "1", "--tool", "nope"]) == 1
