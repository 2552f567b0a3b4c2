"""Analysis-as-a-service: the resident front door.

The batch tools (``repro prove`` / ``repro table1``) pay interpreter
start-up, registry population and constraint interning on every
invocation.  This package keeps all of that **resident** and serves
analyses over a tiny wire protocol instead:

* :mod:`repro.service.protocol` — a JSON-RPC 2.0 layer speaking
  newline-delimited requests, with methods ``analyze``,
  ``analyze_batch``, ``list_provers``, ``cache_stats`` and ``shutdown``.
  The payload schema is exactly the JSON round-trip of
  :class:`~repro.api.request.AnalysisRequest` and
  :class:`~repro.api.result.AnalysisResult` — there is no second wire
  format.
* :mod:`repro.service.cache` — a content-addressed result cache keyed on
  (canonical program text, tool, canonical config JSON).  A **hit is
  never served unverified**: proved results are re-validated by the
  independent certificate checker of :mod:`repro.checking` first, and a
  failing revalidation demotes the hit to a miss.
* :mod:`repro.service.server` — the two front doors: ``repro serve
  --stdio`` (inline, single-process) and ``repro serve --port N`` (an
  asyncio socket server dispatching onto the pre-forked crash-isolated
  :class:`~repro.reporting.parallel.WorkerPool`, with per-request
  timeouts and graceful drain on SIGTERM).
* :mod:`repro.service.admission` — overload hardening: the bounded
  in-flight/queue :class:`AdmissionGate`, which sheds with
  ``OVERLOADED`` and never changes what an admitted request computes.
* :mod:`repro.service.faults` — the deterministic fault-injection
  harness (``repro serve --fault-plan``) behind the ``service_chaos``
  bench suite.
* :mod:`repro.service.client` — a minimal line client plus
  :func:`~repro.service.client.call_with_retry`, the jittered
  exponential-backoff helper every well-behaved caller should use.

See ``docs/SERVICE.md`` for the protocol reference and deployment notes.
"""

from repro.service.admission import (
    AdmissionGate,
    Overloaded,
    ShuttingDown,
)
from repro.service.cache import CacheStats, ResultCache
from repro.service.client import ServiceClient, call_with_retry
from repro.service.faults import FaultInjector, FaultPlan, FaultPlanError
from repro.service.protocol import (
    ANALYSIS_ERROR,
    INTERNAL_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    JSONRPC_VERSION,
    METHOD_NOT_FOUND,
    OVERLOADED,
    PARSE_ERROR,
    PROGRAM_TOO_LARGE,
    ProtocolError,
    REQUEST_TIMEOUT,
    SERVICE_METHODS,
    SHUTTING_DOWN,
    ServiceProtocol,
    WORKER_CRASH,
    error_response,
    result_response,
)
from repro.service.server import (
    AnalysisService,
    InlineExecutor,
    PoolExecutor,
    RunningServer,
    ServiceServer,
    run_server_in_thread,
    serve_stdio,
)

__all__ = [
    "ResultCache",
    "CacheStats",
    "ProtocolError",
    "ServiceProtocol",
    "SERVICE_METHODS",
    "JSONRPC_VERSION",
    "error_response",
    "result_response",
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "INTERNAL_ERROR",
    "ANALYSIS_ERROR",
    "REQUEST_TIMEOUT",
    "WORKER_CRASH",
    "PROGRAM_TOO_LARGE",
    "SHUTTING_DOWN",
    "OVERLOADED",
    "AdmissionGate",
    "Overloaded",
    "ShuttingDown",
    "FaultPlan",
    "FaultPlanError",
    "FaultInjector",
    "ServiceClient",
    "call_with_retry",
    "AnalysisService",
    "InlineExecutor",
    "PoolExecutor",
    "RunningServer",
    "ServiceServer",
    "serve_stdio",
    "run_server_in_thread",
]
