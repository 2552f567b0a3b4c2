"""AnalysisRequest: validation, canonicalisation, keys, front doors."""

import json

import pytest

from repro.api import (
    AnalysisConfig,
    AnalysisRequest,
    RequestError,
    analyze,
    analyze_many,
    canonical_program_text,
)

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"
PAIR = "var x, y; assume(y >= 1); while (x > 0) { x = x - y; }"


class TestCanonicalProgramText:
    def test_crlf_and_trailing_space_collapse(self):
        messy = "var x;\r\nwhile (x > 0) { x = x - 1; }   \r\n\r\n"
        assert canonical_program_text(messy) == (
            "var x;\nwhile (x > 0) { x = x - 1; }"
        )

    def test_leading_blank_lines_trimmed(self):
        assert canonical_program_text("\n\n" + COUNTDOWN) == COUNTDOWN

    def test_interior_structure_preserved(self):
        body = "var x;\n\n\nwhile (x > 0) { x = x - 1; }"
        assert canonical_program_text(body) == body


class TestConstruction:
    def test_defaults(self):
        request = AnalysisRequest(program=COUNTDOWN)
        assert request.tool == "termite"
        assert request.name == "program"
        assert request.request_id is None
        assert request.config == AnalysisConfig()

    def test_tool_name_canonicalised(self):
        assert AnalysisRequest(program=COUNTDOWN, tool="Termite").tool == (
            "termite"
        )

    def test_unknown_tool_rejected(self):
        with pytest.raises(RequestError):
            AnalysisRequest(program=COUNTDOWN, tool="no-such-prover")

    def test_non_string_program_rejected(self):
        with pytest.raises(RequestError):
            AnalysisRequest(program=42)

    def test_empty_program_rejected(self):
        with pytest.raises(RequestError):
            AnalysisRequest(program="   \n  ")

    def test_frozen(self):
        request = AnalysisRequest(program=COUNTDOWN)
        with pytest.raises(Exception):
            request.program = "other"

    def test_replace(self):
        request = AnalysisRequest(program=COUNTDOWN, name="a")
        other = request.replace(name="b")
        assert other.name == "b"
        assert other.program == request.program
        assert request.name == "a"


class TestJsonRoundTrip:
    def test_exact_round_trip(self):
        request = AnalysisRequest(
            program=PAIR,
            tool="termite",
            config=AnalysisConfig(integer_mode=True, max_iterations=7),
            name="pair",
            request_id="req-1",
        )
        rebuilt = AnalysisRequest.from_json(request.to_json())
        assert rebuilt == request
        through = AnalysisRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert through == request

    def test_unknown_keys_rejected(self):
        with pytest.raises(RequestError):
            AnalysisRequest.from_dict({"program": COUNTDOWN, "bogus": 1})

    def test_missing_program_rejected(self):
        with pytest.raises(RequestError):
            AnalysisRequest.from_dict({"name": "x"})

    def test_config_document_accepted(self):
        request = AnalysisRequest.from_dict(
            {"program": COUNTDOWN, "config": {"integer_mode": True}}
        )
        assert request.config.integer_mode is True

    def test_null_config_and_name_default(self):
        request = AnalysisRequest.from_dict(
            {"program": COUNTDOWN, "config": None, "name": None}
        )
        assert request.config == AnalysisConfig()
        assert request.name == "program"


class TestCacheKey:
    def test_key_is_stable_hex(self):
        key = AnalysisRequest(program=COUNTDOWN).cache_key()
        assert len(key) == 64
        assert key == AnalysisRequest(program=COUNTDOWN).cache_key()

    def test_whitespace_variants_share_a_key(self):
        a = AnalysisRequest(program=COUNTDOWN)
        b = AnalysisRequest(program=COUNTDOWN + "   \r\n")
        assert a.cache_key() == b.cache_key()

    def test_name_and_request_id_excluded(self):
        a = AnalysisRequest(program=COUNTDOWN, name="a", request_id="1")
        b = AnalysisRequest(program=COUNTDOWN, name="b", request_id="2")
        assert a.cache_key() == b.cache_key()

    def test_config_changes_the_key(self):
        a = AnalysisRequest(program=COUNTDOWN)
        b = AnalysisRequest(
            program=COUNTDOWN, config=AnalysisConfig(max_iterations=3)
        )
        assert a.cache_key() != b.cache_key()

    def test_program_changes_the_key(self):
        a = AnalysisRequest(program=COUNTDOWN)
        b = AnalysisRequest(program=PAIR)
        assert a.cache_key() != b.cache_key()


class TestAnalyzeFrontDoor:
    def test_analyze_accepts_a_request(self):
        result = analyze(AnalysisRequest(program=COUNTDOWN, name="countdown"))
        assert result.proved
        assert result.program == "countdown"
        assert result.provenance is None  # direct library call: no cache

    def test_analyze_rejects_conflicting_arguments(self):
        request = AnalysisRequest(program=COUNTDOWN)
        with pytest.raises(TypeError):
            analyze(request, config=AnalysisConfig())

    def test_analyze_many_accepts_requests(self):
        requests = [
            AnalysisRequest(program=COUNTDOWN, name="countdown"),
            AnalysisRequest(program=PAIR, name="pair"),
        ]
        results = analyze_many(requests)
        assert [r.program for r in results] == ["countdown", "pair"]
        assert all(r.proved for r in results)

    def test_analyze_many_rejects_mixed_lists(self):
        with pytest.raises(TypeError):
            analyze_many([AnalysisRequest(program=COUNTDOWN), COUNTDOWN])
