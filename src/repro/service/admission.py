"""Admission control: a bounded queue in front of the worker pool.

Without a bound, a burst of slow requests exhausts the pool and every
later caller queues behind it, turning an overload into unbounded
latency for everyone.  :class:`AdmissionGate` bounds the damage with two
numbers:

* ``max_inflight`` — how many requests may *compute* concurrently
  (normally the worker-pool size: more than that cannot make progress
  anyway);
* ``max_queue`` — how many requests may *wait* for a compute slot.

A request beyond both bounds is **shed immediately** with the
``OVERLOADED`` (-32005) JSON-RPC error carrying ``retry_after_seconds``
— an estimate of when a slot will free up, derived from an exponential
moving average of recent service times — so a well-behaved client backs
off instead of piling on (see :func:`repro.service.client.call_with_retry`).

An admitted request computes exactly as asked: load decides only
whether a request runs, never what it computes, so its verdict is the
same on an idle server and on a busy one.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: Default service-time guess (seconds) before any request completed.
_DEFAULT_SERVICE_SECONDS = 0.5


class Overloaded(Exception):
    """The gate refused the request; retry later.

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

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "queued": self._queued,
                "admitted": self._admitted,
                "shed": self._shed,
                "avg_service_seconds": round(self._avg_service_seconds, 4),
            }

    def retry_after_seconds(self) -> float:
        """When the caller should retry: the time to drain the line.

        The queue ahead of a shed request is ``max_queue`` deep and
        drains ``max_inflight`` wide, so one EWMA service time per
        ``ceil((queued + 1) / max_inflight)`` waves.
        """
        with self._lock:
            return self._retry_after_locked()

    # -- admission ---------------------------------------------------------------

    def admit(self) -> "AdmissionTicket":
        """Take a compute slot, waiting in the bounded queue if needed.

        Raises :class:`Overloaded` when both the in-flight bound and the
        queue bound are saturated, and :class:`ShuttingDown` when the
        gate closes mid-wait.
        """
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
                        self._slot_freed.wait()
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
