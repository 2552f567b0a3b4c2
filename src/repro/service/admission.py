"""Admission control: the overload gate and the per-tool circuit breaker.

The service answers millions-of-users-style traffic only as long as the
worker pool is never asked to do more than it can: without a gate, a
burst of slow requests exhausts the pool and every later caller just
queues behind it, turning an overload into unbounded latency for
everyone.  :class:`AdmissionGate` bounds the damage with two numbers:

* ``max_inflight`` — how many requests may *compute* concurrently
  (normally the worker-pool size: more than that cannot make progress
  anyway);
* ``max_queue`` — how many requests may *wait* for a compute slot.

A request beyond both bounds is **shed immediately** with the
``OVERLOADED`` (-32005) JSON-RPC error carrying ``retry_after_seconds``
— an estimate of when a slot will free up, derived from an exponential
moving average of recent service times — so a well-behaved client backs
off instead of piling on (see :func:`repro.service.client.call_with_retry`).

**Degradation tiers.**  Between "healthy" and "shedding" the gate
reports a pressure tier, and the executor trades precision for
throughput before it starts refusing work:

=====  ===========  ====================================================
tier   name         behaviour
=====  ===========  ====================================================
0      ``normal``   free compute slots; requests run exactly as asked
1      ``elevated`` all compute slots busy (requests are queueing);
                    ``nonterm="auto"`` races are dropped to
                    termination-only — every shed feature is stamped
                    into ``provenance.degraded``
2      ``shedding`` the queue is full too; new work is refused with
                    ``OVERLOADED``
=====  ===========  ====================================================

:class:`CircuitBreaker` protects the pool from the *other* overload
mode: a request class (keyed per tool) that crashes its worker every
time would otherwise burn the pool's respawn budget doing nothing but
forking.  After ``failure_threshold`` consecutive crashes the circuit
opens and requests for that tool fail fast with ``OVERLOADED`` until a
cooldown elapses; then one probe request is let through (half-open) and
either closes the circuit or re-opens it with a doubled cooldown.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

#: Default service-time guess (seconds) before any request completed.
_DEFAULT_SERVICE_SECONDS = 0.5

#: Pressure tier names, indexed by tier number.
PRESSURE_TIERS = ("normal", "elevated", "shedding")


class Overloaded(Exception):
    """The gate (or a breaker) refused the request; retry later.

    Carries ``retry_after_seconds`` so the transport layer can build the
    ``OVERLOADED`` JSON-RPC error without knowing gate internals.
    """

    def __init__(self, message: str, retry_after_seconds: float):
        super().__init__(message)
        self.retry_after_seconds = max(0.05, float(retry_after_seconds))


class ShuttingDown(Exception):
    """The gate was closed (drain) while the request waited for a slot."""


class AdmissionGate:
    """A bounded in-flight/queue gate with load-shedding.

    Thread-safe; every transport thread calls :meth:`admit` before
    computing and releases the returned ticket in a ``finally``.
    """

    def __init__(
        self,
        max_inflight: int = 2,
        max_queue: int = 8,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.max_inflight = max(1, int(max_inflight))
        self.max_queue = max(0, int(max_queue))
        self._clock = clock
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._inflight = 0
        self._queued = 0
        self._closed = False
        # EWMA of service times, feeding the retry_after estimate.
        self._avg_service_seconds = _DEFAULT_SERVICE_SECONDS
        self._admitted = 0
        self._shed = 0
        self._degraded = 0

    # -- introspection -----------------------------------------------------------

    def pressure_tier(self) -> int:
        """0 = normal, 1 = elevated (queueing), 2 = shedding (queue full).

        Callers check this *after* admitting themselves, so saturated
        in-flight slots alone are not pressure — a lone request on a
        one-worker server is "normal".  Pressure means someone is
        actually waiting behind the in-flight line.
        """
        with self._lock:
            return self._tier_locked()

    def _tier_locked(self) -> int:
        if self._inflight >= self.max_inflight and self._queued > 0:
            return 2 if self._queued >= self.max_queue else 1
        return 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "queued": self._queued,
                "admitted": self._admitted,
                "shed": self._shed,
                "degraded": self._degraded,
                "pressure": PRESSURE_TIERS[self._tier_locked()],
                "avg_service_seconds": round(self._avg_service_seconds, 4),
            }

    def retry_after_seconds(self) -> float:
        """When the caller should retry: the time to drain the line.

        The queue ahead of a shed request is ``max_queue`` deep and
        drains ``max_inflight`` wide, so one EWMA service time per
        ``ceil((queued + 1) / max_inflight)`` waves.
        """
        with self._lock:
            waves = 1 + (self._queued + self.max_inflight) // self.max_inflight
            return max(0.05, round(self._avg_service_seconds * waves, 3))

    def note_degraded(self) -> None:
        with self._lock:
            self._degraded += 1

    # -- admission ---------------------------------------------------------------

    def admit(self, timeout: Optional[float] = None) -> "AdmissionTicket":
        """Take a compute slot, waiting in the bounded queue if needed.

        Raises :class:`Overloaded` when both the in-flight bound and the
        queue bound are saturated (or *timeout* elapses while queued),
        and :class:`ShuttingDown` when the gate closes mid-wait.
        """
        deadline = None if timeout is None else self._clock() + timeout
        waited = False
        with self._lock:
            if self._closed:
                raise ShuttingDown("service is shutting down")
            if self._inflight >= self.max_inflight:
                if self._queued >= self.max_queue:
                    self._shed += 1
                    raise Overloaded(
                        "service is overloaded (%d in flight, %d queued)"
                        % (self._inflight, self._queued),
                        self._retry_after_locked(),
                    )
                self._queued += 1
                waited = True
                try:
                    while self._inflight >= self.max_inflight:
                        if self._closed:
                            raise ShuttingDown("service is shutting down")
                        budget = None
                        if deadline is not None:
                            budget = deadline - self._clock()
                            if budget <= 0:
                                self._shed += 1
                                # We may have swallowed a _release wakeup
                                # racing this timeout; pass it on so a
                                # sibling waiter is not left asleep with a
                                # slot free.
                                self._slot_freed.notify()
                                raise Overloaded(
                                    "queued past its admission budget",
                                    self._retry_after_locked(),
                                )
                        self._slot_freed.wait(budget)
                finally:
                    self._queued -= 1
            self._inflight += 1
            self._admitted += 1
        return AdmissionTicket(self, waited=waited)

    def _retry_after_locked(self) -> float:
        waves = 1 + (self._queued + self.max_inflight) // self.max_inflight
        return max(0.05, round(self._avg_service_seconds * waves, 3))

    def _release(self, elapsed: float) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            if elapsed >= 0:
                # EWMA with alpha 0.2: stable under bursts, still tracks
                # a workload shift within a handful of requests.
                self._avg_service_seconds += 0.2 * (
                    elapsed - self._avg_service_seconds
                )
            self._slot_freed.notify()

    def close(self) -> None:
        """Begin drain: refuse new admissions, wake every queued waiter
        (they raise :class:`ShuttingDown`); in-flight work is untouched."""
        with self._lock:
            self._closed = True
            self._slot_freed.notify_all()


class AdmissionTicket:
    """One admitted request; release exactly once (context manager).

    ``waited`` records whether the admission queued behind the in-flight
    line — the executor re-checks the cache for such requests, since a
    duplicate may have completed during the wait.
    """

    def __init__(self, gate: AdmissionGate, waited: bool = False):
        self._gate = gate
        self._started = gate._clock()
        self._released = False
        self.waited = waited

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._gate._release(self._gate._clock() - self._started)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class CircuitBreaker:
    """Fail fast on request classes that keep crashing their worker.

    One breaker instance covers every tool (state is keyed per tool
    name); thread-safe.  ``record_success``/``record_crash`` are called
    by the executor after each computed request, ``check`` before one.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 5.0,
        max_cooldown_seconds: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown_seconds = float(cooldown_seconds)
        self.max_cooldown_seconds = float(max_cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive: Dict[str, int] = {}
        self._open_until: Dict[str, float] = {}
        self._cooldown: Dict[str, float] = {}
        self._probing: Dict[str, bool] = {}
        self._fast_failures = 0

    def stats(self) -> dict:
        now = self._clock()
        with self._lock:
            return {
                "failure_threshold": self.failure_threshold,
                "open_tools": sorted(
                    tool
                    for tool, until in self._open_until.items()
                    if until > now
                ),
                "fast_failures": self._fast_failures,
            }

    def check(self, tool: str) -> None:
        """Raise :class:`Overloaded` when *tool*'s circuit is open.

        When the cooldown has elapsed the first caller through becomes
        the half-open probe; concurrent callers keep failing fast until
        the probe reports back.
        """
        now = self._clock()
        with self._lock:
            until = self._open_until.get(tool)
            if until is None:
                return
            if now < until:
                self._fast_failures += 1
                raise Overloaded(
                    "tool %r is circuit-broken after %d consecutive worker "
                    "crashes" % (tool, self._consecutive.get(tool, 0)),
                    until - now,
                )
            if self._probing.get(tool):
                self._fast_failures += 1
                raise Overloaded(
                    "tool %r is half-open; a probe is already in flight"
                    % tool,
                    self._cooldown.get(tool, self.cooldown_seconds),
                )
            self._probing[tool] = True

    def record_success(self, tool: str) -> None:
        with self._lock:
            self._consecutive.pop(tool, None)
            self._open_until.pop(tool, None)
            self._cooldown.pop(tool, None)
            self._probing.pop(tool, None)

    def record_neutral(self, tool: str) -> None:
        """The request neither crashed nor proved the worker healthy
        (timeout, analysis-level error): release a half-open probe
        without touching the crash counters."""
        with self._lock:
            self._probing.pop(tool, None)

    def record_crash(self, tool: str) -> None:
        now = self._clock()
        with self._lock:
            count = self._consecutive.get(tool, 0) + 1
            self._consecutive[tool] = count
            was_probe = self._probing.pop(tool, False)
            if count >= self.failure_threshold or was_probe:
                cooldown = self._cooldown.get(tool, 0.0)
                cooldown = (
                    self.cooldown_seconds
                    if cooldown == 0.0
                    else min(self.max_cooldown_seconds, cooldown * 2)
                )
                self._cooldown[tool] = cooldown
                self._open_until[tool] = now + cooldown
