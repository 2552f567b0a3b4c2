"""The admission gate (no sockets involved).

Contract under test: load beyond both bounds is shed immediately with a
retry hint, queued waiters make progress as slots free, and a drain
wakes and refuses every waiter.
"""

import threading
import time

import pytest

from repro.service.admission import AdmissionGate, Overloaded, ShuttingDown


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestAdmissionGate:
    def test_admit_and_release_tracks_inflight(self):
        gate = AdmissionGate(max_inflight=2, max_queue=1)
        first = gate.admit()
        second = gate.admit()
        assert gate.stats()["inflight"] == 2
        first.release()
        second.release()
        assert gate.stats()["inflight"] == 0
        assert gate.stats()["admitted"] == 2

    def test_release_is_idempotent(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0)
        ticket = gate.admit()
        ticket.release()
        ticket.release()
        assert gate.stats()["inflight"] == 0
        # The slot really is free again.
        gate.admit().release()

    def test_sheds_when_both_bounds_are_saturated(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0)
        ticket = gate.admit()
        with pytest.raises(Overloaded) as caught:
            gate.admit()
        assert caught.value.retry_after_seconds > 0
        assert gate.stats()["shed"] == 1
        ticket.release()

    def test_queued_waiter_gets_the_freed_slot(self):
        gate = AdmissionGate(max_inflight=1, max_queue=1)
        ticket = gate.admit()
        admitted = []

        def waiter():
            inner = gate.admit()
            admitted.append(inner.waited)
            inner.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        for _ in range(100):
            if gate.stats()["queued"] == 1:
                break
            time.sleep(0.01)
        assert gate.stats()["queued"] == 1
        ticket.release()
        thread.join(5.0)
        assert admitted == [True]

    def test_unqueued_admission_did_not_wait(self):
        gate = AdmissionGate(max_inflight=1, max_queue=1)
        assert gate.admit().waited is False

    def test_close_refuses_new_and_wakes_queued(self):
        gate = AdmissionGate(max_inflight=1, max_queue=2)
        ticket = gate.admit()
        outcomes = []

        def waiter():
            try:
                gate.admit()
                outcomes.append("admitted")
            except ShuttingDown:
                outcomes.append("refused")

        thread = threading.Thread(target=waiter)
        thread.start()
        for _ in range(100):
            if gate.stats()["queued"] == 1:
                break
            time.sleep(0.01)
        gate.close()
        thread.join(5.0)
        assert outcomes == ["refused"]
        with pytest.raises(ShuttingDown):
            gate.admit()
        # In-flight work is untouched by the drain.
        ticket.release()

    def test_retry_after_tracks_service_time_ewma(self):
        clock = FakeClock()
        gate = AdmissionGate(max_inflight=1, max_queue=4, clock=clock)
        for _ in range(20):
            ticket = gate.admit()
            clock.advance(2.0)
            ticket.release()
        # EWMA has converged near 2s; an empty line retries in ~2 waves.
        assert 2.0 <= gate.retry_after_seconds() <= 8.0
        assert abs(gate.stats()["avg_service_seconds"] - 2.0) < 0.1
