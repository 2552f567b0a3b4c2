"""The JSON-RPC layer: every failure mode yields an error *response*."""

import json

import pytest

from repro.service import (
    ANALYSIS_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    PROGRAM_TOO_LARGE,
    SHUTTING_DOWN,
    InlineExecutor,
    ResultCache,
    ServiceProtocol,
)

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"


@pytest.fixture
def protocol() -> ServiceProtocol:
    return ServiceProtocol(InlineExecutor(cache=ResultCache()))


def rpc(method, params=None, request_id=1):
    message = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params is not None:
        message["params"] = params
    return json.dumps(message)


def ask(protocol, line):
    response = protocol.handle_line(line)
    return None if response is None else json.loads(response)


class TestEnvelopeErrors:
    def test_malformed_json_is_a_parse_error(self, protocol):
        response = ask(protocol, '{"jsonrpc": "2.0", "id": 1,')
        assert response["error"]["code"] == PARSE_ERROR
        assert response["id"] is None

    def test_invalid_utf8_is_a_parse_error(self, protocol):
        response = ask(protocol, b'\xff\xfe{"jsonrpc": "2.0"}')
        assert response["error"]["code"] == PARSE_ERROR

    def test_non_object_request(self, protocol):
        response = ask(protocol, "[1, 2, 3]")
        assert response["error"]["code"] == INVALID_REQUEST

    def test_wrong_jsonrpc_version(self, protocol):
        response = ask(protocol, json.dumps({"id": 1, "method": "analyze"}))
        assert response["error"]["code"] == INVALID_REQUEST

    def test_unknown_method(self, protocol):
        response = ask(protocol, rpc("frobnicate"))
        assert response["error"]["code"] == METHOD_NOT_FOUND
        assert "analyze" in response["error"]["message"]

    def test_non_string_method(self, protocol):
        response = ask(
            protocol, json.dumps({"jsonrpc": "2.0", "id": 1, "method": 7})
        )
        assert response["error"]["code"] == INVALID_REQUEST

    def test_positional_params_rejected(self, protocol):
        response = ask(protocol, rpc("analyze", params_list(COUNTDOWN)))
        assert response["error"]["code"] == INVALID_PARAMS

    def test_blank_line_ignored(self, protocol):
        assert protocol.handle_line("   \n") is None

    def test_notification_gets_no_response(self, protocol):
        line = json.dumps({"jsonrpc": "2.0", "method": "cache_stats"})
        assert protocol.handle_line(line) is None


def params_list(program):
    # JSON-RPC by-position params: this service only speaks by-name.
    return [program]


class TestAnalyze:
    def test_analyze_round_trip(self, protocol):
        response = ask(
            protocol, rpc("analyze", {"program": COUNTDOWN, "name": "c"})
        )
        result = response["result"]
        assert result["status"] == "terminating"
        assert result["provenance"]["cache"] == "miss"

    def test_second_call_is_a_revalidated_hit(self, protocol):
        ask(protocol, rpc("analyze", {"program": COUNTDOWN}))
        response = ask(protocol, rpc("analyze", {"program": COUNTDOWN}))
        provenance = response["result"]["provenance"]
        assert provenance["cache"] == "hit"
        assert provenance["revalidated"] is True

    def test_invalid_request_document(self, protocol):
        response = ask(protocol, rpc("analyze", {"program": COUNTDOWN, "x": 1}))
        assert response["error"]["code"] == INVALID_PARAMS

    def test_unparsable_program_is_an_analysis_error(self, protocol):
        response = ask(
            protocol, rpc("analyze", {"program": "while (x > 0) { }"})
        )
        assert response["error"]["code"] == ANALYSIS_ERROR

    def test_oversized_program_rejected(self):
        protocol = ServiceProtocol(InlineExecutor(), max_program_bytes=64)
        big = COUNTDOWN + " " * 100
        response = ask(protocol, rpc("analyze", {"program": big}))
        assert response["error"]["code"] == PROGRAM_TOO_LARGE
        assert response["error"]["data"]["limit"] == 64

    def test_responses_carry_the_request_id(self, protocol):
        response = ask(
            protocol,
            rpc("analyze", {"program": COUNTDOWN}, request_id="alpha-7"),
        )
        assert response["id"] == "alpha-7"


class TestBatch:
    def test_batch_stays_rectangular(self, protocol):
        params = {
            "requests": [
                {"program": COUNTDOWN, "name": "good"},
                {"program": "while (x) { }", "name": "bad"},
            ]
        }
        response = ask(protocol, rpc("analyze_batch", params))
        results = response["result"]["results"]
        assert len(results) == 2
        assert results[0]["status"] == "terminating"
        assert results[1]["status"] == "error"

    def test_batch_member_validation_is_batch_level(self, protocol):
        params = {"requests": [{"program": COUNTDOWN}, {"bogus": True}]}
        response = ask(protocol, rpc("analyze_batch", params))
        assert response["error"]["code"] == INVALID_PARAMS

    def test_batch_requires_the_requests_key(self, protocol):
        response = ask(protocol, rpc("analyze_batch", {}))
        assert response["error"]["code"] == INVALID_PARAMS


class TestIntrospection:
    def test_list_provers(self, protocol):
        response = ask(protocol, rpc("list_provers"))
        assert "termite" in response["result"]["provers"]
        assert "termite" in response["result"]["capabilities"]

    def test_cache_stats_shape(self, protocol):
        ask(protocol, rpc("analyze", {"program": COUNTDOWN}))
        ask(protocol, rpc("analyze", {"program": COUNTDOWN}))
        response = ask(protocol, rpc("cache_stats"))
        stats = response["result"]["stats"]
        assert response["result"]["enabled"] is True
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["revalidations"] == 1
        assert stats["revalidation_failures"] == 0

    def test_cache_stats_without_a_cache(self):
        protocol = ServiceProtocol(InlineExecutor(cache=None))
        response = ask(protocol, rpc("cache_stats"))
        assert response["result"] == {"enabled": False, "stats": None}

    def test_bypass_provenance_without_a_cache(self):
        protocol = ServiceProtocol(InlineExecutor(cache=None))
        response = ask(protocol, rpc("analyze", {"program": COUNTDOWN}))
        assert response["result"]["provenance"]["cache"] == "bypass"


class TestShutdown:
    def test_shutdown_acknowledges_then_gates(self, protocol):
        response = ask(protocol, rpc("shutdown"))
        assert response["result"] == {"stopping": True}
        assert protocol.shutdown_requested
        late = ask(protocol, rpc("analyze", {"program": COUNTDOWN}))
        assert late["error"]["code"] == SHUTTING_DOWN
        again = ask(protocol, rpc("shutdown"))
        assert again["result"] == {"stopping": True}
