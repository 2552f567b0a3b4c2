"""The JSON-RPC 2.0 protocol layer of the analysis service.

Transport-agnostic: :class:`ServiceProtocol` turns one newline-delimited
request line into (at most) one response line, and both front doors —
the stdio loop and the asyncio socket server of
:mod:`repro.service.server` — drive exactly this object.  The payload
schema is the existing JSON round-trip of the analysis API, verbatim:
``analyze`` params are an :class:`~repro.api.request.AnalysisRequest`
document, results are :class:`~repro.api.result.AnalysisResult`
documents.

Methods
-------

``analyze``
    params: one ``AnalysisRequest`` document.  Result: one
    ``AnalysisResult`` document (with ``provenance`` stamped).
``analyze_batch``
    params: ``{"requests": [AnalysisRequest, ...]}``.  Result:
    ``{"results": [AnalysisResult, ...]}``, positionally aligned.  A
    member that times out or crashes its worker comes back as a
    ``timeout``/``error`` *result* so the batch stays rectangular.
``list_provers``
    The prover registry: ``{"provers": {...}, "capabilities": {...}}``.
``cache_stats``
    The result cache's counters (hits, misses, revalidations,
    revalidation failures, entries) plus whether caching is enabled.
``shutdown``
    Acknowledges with ``{"stopping": true}`` and flags the transport to
    drain and exit.

Error taxonomy
--------------

The four JSON-RPC standard codes, plus implementation-defined codes in
the reserved ``-32000…-32099`` band:

=====================  ======  ==============================================
name                   code    raised when
=====================  ======  ==============================================
``PARSE_ERROR``        -32700  the line is not valid JSON
``INVALID_REQUEST``    -32600  the envelope is not a JSON-RPC 2.0 request
``METHOD_NOT_FOUND``   -32601  unknown method name
``INVALID_PARAMS``     -32602  params fail ``AnalysisRequest`` validation
``INTERNAL_ERROR``     -32603  a bug in the service itself
``ANALYSIS_ERROR``     -32000  the analysis raised (parse error, bad program)
``REQUEST_TIMEOUT``    -32001  the per-request budget elapsed (worker killed)
``WORKER_CRASH``       -32002  the worker died mid-request (and was respawned)
``PROGRAM_TOO_LARGE``  -32003  the program exceeds ``max_program_bytes``
``SHUTTING_DOWN``      -32004  request arrived after ``shutdown``
``OVERLOADED``         -32005  load was shed: the admission gate's
                               in-flight and queue bounds are both
                               saturated, or the worker pool spent its
                               respawn budget.
                               ``data.retry_after_seconds`` tells the
                               caller when to retry (see
                               :func:`repro.service.client.call_with_retry`)
=====================  ======  ==============================================

Every failure mode yields a *response* — a connection is never silently
dropped, and (via the pool's respawn) a crash never poisons a worker.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from repro.api.request import AnalysisRequest, RequestError

JSONRPC_VERSION = "2.0"

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
ANALYSIS_ERROR = -32000
REQUEST_TIMEOUT = -32001
WORKER_CRASH = -32002
PROGRAM_TOO_LARGE = -32003
SHUTTING_DOWN = -32004
OVERLOADED = -32005

#: Default cap on one program's UTF-8 size (1 MiB), way beyond any real
#: mini-language program; the gate exists to bound a request's memory.
DEFAULT_MAX_PROGRAM_BYTES = 1 << 20

#: The methods the service speaks, in documentation order.
SERVICE_METHODS = (
    "analyze",
    "analyze_batch",
    "list_provers",
    "cache_stats",
    "shutdown",
)


class ProtocolError(Exception):
    """A request failed; carries the JSON-RPC error code and data."""

    def __init__(self, code: int, message: str, data: Optional[dict] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data


def result_response(request_id: Any, result: Any) -> dict:
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "result": result}


def error_response(
    request_id: Any, code: int, message: str, data: Optional[dict] = None
) -> dict:
    error: Dict[str, Any] = {"code": code, "message": message}
    if data is not None:
        error["data"] = data
    return {"jsonrpc": JSONRPC_VERSION, "id": request_id, "error": error}


class ServiceProtocol:
    """One JSON-RPC endpoint over an executor.

    *executor* computes one :class:`AnalysisRequest` into an
    :class:`~repro.api.result.AnalysisResult` (stamping provenance); it
    raises :class:`ProtocolError` for timeouts and worker crashes.  The
    protocol object is shared by every connection of a server, so it
    must only hold thread-safe state (it does: a shutdown flag and the
    executor, which is itself thread-safe).
    """

    def __init__(
        self,
        executor,
        max_program_bytes: int = DEFAULT_MAX_PROGRAM_BYTES,
    ):
        self.executor = executor
        self.max_program_bytes = int(max_program_bytes)
        self.shutdown_requested = False
        self._methods: Dict[str, Callable[[Any], Any]] = {
            "analyze": self._method_analyze,
            "analyze_batch": self._method_analyze_batch,
            "list_provers": self._method_list_provers,
            "cache_stats": self._method_cache_stats,
            "shutdown": self._method_shutdown,
        }

    # -- the line loop -----------------------------------------------------------

    def handle_line(self, line: str) -> Optional[str]:
        """One request line in, one response line (or ``None``) out.

        Never raises: every failure becomes a JSON-RPC error response.
        ``None`` is returned only for notifications (requests without an
        ``id``) and blank lines.
        """
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as error:
                return json.dumps(
                    error_response(None, PARSE_ERROR, "invalid UTF-8: %s" % error)
                )
        if not line.strip():
            return None
        response = self.handle_message_text(line)
        if response is None:
            return None
        return json.dumps(response, sort_keys=True)

    def handle_message_text(self, text: str) -> Optional[dict]:
        try:
            message = json.loads(text)
        except json.JSONDecodeError as error:
            return error_response(None, PARSE_ERROR, "parse error: %s" % error)
        return self.handle_message(message)

    def handle_message(self, message: Any) -> Optional[dict]:
        """Dispatch one decoded request object; ``None`` for notifications."""
        if not isinstance(message, dict):
            return error_response(
                None, INVALID_REQUEST, "request must be a JSON object"
            )
        request_id = message.get("id")
        is_notification = "id" not in message
        if not (request_id is None or isinstance(request_id, (str, int))):
            return error_response(
                None, INVALID_REQUEST, "id must be a string, an integer or null"
            )

        def respond(response: Optional[dict]) -> Optional[dict]:
            return None if is_notification else response

        if message.get("jsonrpc") != JSONRPC_VERSION:
            return respond(
                error_response(
                    request_id, INVALID_REQUEST, 'jsonrpc must be "2.0"'
                )
            )
        method = message.get("method")
        if not isinstance(method, str):
            return respond(
                error_response(
                    request_id, INVALID_REQUEST, "method must be a string"
                )
            )
        handler = self._methods.get(method)
        if handler is None:
            return respond(
                error_response(
                    request_id,
                    METHOD_NOT_FOUND,
                    "unknown method %r (have: %s)"
                    % (method, ", ".join(SERVICE_METHODS)),
                )
            )
        if self.shutdown_requested and method != "shutdown":
            return respond(
                error_response(
                    request_id, SHUTTING_DOWN, "service is shutting down"
                )
            )
        params = message.get("params", {})
        if not isinstance(params, dict):
            return respond(
                error_response(
                    request_id,
                    INVALID_PARAMS,
                    "params must be an object (by-name), got %s"
                    % type(params).__name__,
                )
            )
        try:
            result = handler(params)
        except ProtocolError as error:
            return respond(
                error_response(request_id, error.code, error.message, error.data)
            )
        except Exception as error:  # a service bug must still answer
            return respond(
                error_response(
                    request_id,
                    INTERNAL_ERROR,
                    "internal error: %s: %s" % (type(error).__name__, error),
                )
            )
        return respond(result_response(request_id, result))

    # -- request construction ----------------------------------------------------

    def parse_request(self, params: Any) -> AnalysisRequest:
        """Validate one ``AnalysisRequest`` document (size gate first)."""
        if not isinstance(params, dict):
            raise ProtocolError(
                INVALID_PARAMS,
                "request must be an object, got %s" % type(params).__name__,
            )
        program = params.get("program")
        if isinstance(program, str):
            size = len(program.encode("utf-8"))
            if size > self.max_program_bytes:
                raise ProtocolError(
                    PROGRAM_TOO_LARGE,
                    "program is %d bytes; the limit is %d"
                    % (size, self.max_program_bytes),
                    data={"bytes": size, "limit": self.max_program_bytes},
                )
        try:
            return AnalysisRequest.from_dict(params)
        except RequestError as error:
            raise ProtocolError(
                INVALID_PARAMS, "invalid request: %s" % error
            ) from None

    # -- methods -----------------------------------------------------------------

    def _method_analyze(self, params: Any) -> dict:
        request = self.parse_request(params)
        result = self.executor.run(request)
        return result.to_dict()

    def _method_analyze_batch(self, params: Any) -> dict:
        requests = params.get("requests")
        if not isinstance(requests, list):
            raise ProtocolError(
                INVALID_PARAMS, 'params must carry a "requests" array'
            )
        parsed = [self.parse_request(entry) for entry in requests]
        # Fan the members out across the worker pool (bounded by the
        # executor's fan-out width, itself bounded by the admission
        # gate); slot order is the request order regardless of
        # completion order.
        fanout = max(1, int(getattr(self.executor, "fanout", 1)))
        if fanout <= 1 or len(parsed) <= 1:
            results = [self._run_batch_member(request) for request in parsed]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(
                max_workers=min(fanout, len(parsed)),
                thread_name_prefix="repro-batch",
            ) as threads:
                results = list(threads.map(self._run_batch_member, parsed))
        return {"results": results}

    def _run_batch_member(self, request: AnalysisRequest) -> dict:
        try:
            result = self.executor.run(request)
        except ProtocolError as error:
            # Keep the batch rectangular: a member-level failure is
            # an error result in its slot, not a batch-level error.
            from repro.api.result import AnalysisResult, AnalysisStatus

            status = (
                AnalysisStatus.TIMEOUT
                if error.code == REQUEST_TIMEOUT
                else AnalysisStatus.ERROR
            )
            result = AnalysisResult(
                tool=request.tool,
                program=request.name,
                status=status,
                error=error.message,
                timed_out=error.code == REQUEST_TIMEOUT,
            )
        return result.to_dict()

    def _method_list_provers(self, params: Any) -> dict:
        from repro.api.registry import prover_capabilities, prover_summaries

        return {
            "provers": prover_summaries(),
            "capabilities": prover_capabilities(),
        }

    def _method_cache_stats(self, params: Any) -> dict:
        return self.executor.cache_stats()

    def _method_shutdown(self, params: Any) -> dict:
        self.shutdown_requested = True
        return {"stopping": True}
