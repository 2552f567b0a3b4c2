"""The socket front door, the worker pool and the stdio loop.

The error-path contract under test: a timeout, a worker crash or an
oversized line always comes back as a JSON-RPC *error response* — never a
dropped connection — and the follow-up request on the same server
succeeds, i.e. no failure mode poisons a worker.
"""

import functools
import io
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.pipeline import analyze
from repro.api.request import AnalysisRequest
from repro.reporting.parallel import WorkerPool
from repro.service import (
    OVERLOADED,
    PARSE_ERROR,
    REQUEST_TIMEOUT,
    SHUTTING_DOWN,
    WORKER_CRASH,
    ServiceClient,
    call_with_retry,
    run_server_in_thread,
    serve_stdio,
)

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"
PAIR = "var x, y; assume(y >= 1); while (x > 0) { x = x - y; }"


def rpc_line(method, params=None, request_id=1) -> bytes:
    message = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params is not None:
        message["params"] = params
    return json.dumps(message).encode("utf-8") + b"\n"


class Client:
    """One newline-delimited JSON-RPC connection."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=120)
        self.stream = self.sock.makefile("rwb")

    def call(self, method, params=None, request_id=1) -> dict:
        self.stream.write(rpc_line(method, params, request_id))
        self.stream.flush()
        line = self.stream.readline()
        assert line, "connection dropped instead of answering"
        return json.loads(line)

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------


SRC = str(Path(__file__).resolve().parents[2] / "src")


def _echo_handler(message):
    if message == "sleep":
        time.sleep(60)
    if message == "die":
        os._exit(13)
    if message == "raise":
        raise RuntimeError("handler failure")
    return {"echo": message, "pid": os.getpid()}


class TestWorkerPool:
    def test_round_trip_and_residency(self):
        with WorkerPool(_echo_handler, jobs=2) as pool:
            first = pool.submit("a")
            second = pool.submit("b")
            assert first.ok and first.value["echo"] == "a"
            assert second.ok
            assert first.value["pid"] in pool.pids()

    def test_handler_exception_is_an_error_not_a_crash(self):
        with WorkerPool(_echo_handler, jobs=1) as pool:
            result = pool.submit("raise")
            assert result.kind == "error"
            assert "handler failure" in result.message
            assert pool.submit("after").ok  # same worker still alive

    def test_timeout_kills_and_respawns(self):
        with WorkerPool(_echo_handler, jobs=1) as pool:
            before = pool.pids()
            result = pool.submit("sleep", timeout=0.2)
            assert result.kind == "timeout"
            follow_up = pool.submit("after", timeout=30)
            assert follow_up.ok
            assert follow_up.value["pid"] not in before

    def test_crash_is_detected_and_the_pool_recovers(self):
        with WorkerPool(_echo_handler, jobs=1) as pool:
            result = pool.submit("die")
            assert result.kind == "crash"
            assert pool.submit("after").ok

    def test_externally_killed_worker_is_replaced(self):
        with WorkerPool(_echo_handler, jobs=1) as pool:
            victim = pool.pids()[0]
            os.kill(victim, signal.SIGKILL)
            result = pool.submit("anything")
            assert result.kind == "crash"
            revived = pool.submit("after")
            assert revived.ok and revived.value["pid"] != victim

    def test_workers_die_with_a_killed_parent(self):
        """A SIGKILLed parent leaves its workers EOF on their pipes.

        No worker may hold a copy of a parent end of the pool's pipes
        (its own, or an earlier sibling's), or its ``recv`` never sees the
        parent go.  An orphan that exited but was not reaped yet counts
        as gone.
        """
        script = (
            "import sys, time\n"
            "from repro.reporting.parallel import WorkerPool\n"
            "pool = WorkerPool(abs, jobs=2)\n"
            "print(*pool.pids(), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (SRC, env.get("PYTHONPATH")) if part
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            parent.kill()
            parent.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=30)
            parent.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


def _running(pid):
    """Whether *pid* is a live process (not gone, not a zombie)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


# ---------------------------------------------------------------------------
# the socket server
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def server():
    running = run_server_in_thread(port=0, jobs=2)
    yield running
    running.stop()


@pytest.mark.usefixtures("server")
class TestSocketServer:
    def test_miss_then_revalidated_hit(self, server):
        client = Client(server.host, server.port)
        try:
            first = client.call("analyze", {"program": COUNTDOWN, "name": "c"})
            assert first["result"]["status"] == "terminating"
            assert first["result"]["provenance"]["cache"] == "miss"
            # The miss was computed in a pool worker, not the server.
            assert first["result"]["provenance"]["worker_pid"] != os.getpid()
            second = client.call("analyze", {"program": COUNTDOWN})
            provenance = second["result"]["provenance"]
            assert provenance["cache"] == "hit"
            assert provenance["revalidated"] is True
        finally:
            client.close()

    def test_concurrent_duplicates_all_answered(self, server):
        responses = []
        lock = threading.Lock()

        def one_client(index):
            client = Client(server.host, server.port)
            try:
                reply = client.call(
                    "analyze", {"program": PAIR, "name": "p%d" % index}, index
                )
                with lock:
                    responses.append(reply)
            finally:
                client.close()

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(responses) == 8
        assert all(r["result"]["status"] == "terminating" for r in responses)
        assert any(
            r["result"]["provenance"]["cache"] == "hit" for r in responses
        )
        stats = server.cache_stats()["stats"]
        assert stats["revalidation_failures"] == 0
        assert stats["hits"] >= 1

    def test_nonterminating_verdict_served_and_revalidated(self, server):
        params = {
            "program": "var x; while (x >= 0) { x = x + 1; }",
            "config": {"nonterm": "only"},
            "name": "nt-smoke",
        }
        client = Client(server.host, server.port)
        try:
            first = client.call("analyze", params)
            assert first["result"]["status"] == "nonterminating"
            assert first["result"]["lasso"] is not None
            assert first["result"]["provenance"]["cache"] == "miss"
            second = client.call("analyze", params)
            assert second["result"]["status"] == "nonterminating"
            provenance = second["result"]["provenance"]
            assert provenance["cache"] == "hit"
            assert provenance["revalidated"] is True
        finally:
            client.close()

    def test_malformed_json_answers_and_keeps_the_connection(self, server):
        client = Client(server.host, server.port)
        try:
            client.stream.write(b'{"jsonrpc": "2.0", "id":\n')
            client.stream.flush()
            reply = json.loads(client.stream.readline())
            assert reply["error"]["code"] == PARSE_ERROR
            # Same connection still serves real requests.
            good = client.call("list_provers")
            assert "termite" in good["result"]["provers"]
        finally:
            client.close()


class TestFailureIsolation:
    def test_timeout_then_recovery(self):
        running = run_server_in_thread(port=0, jobs=1, timeout=0.005)
        try:
            client = Client(running.host, running.port)
            try:
                slow = client.call("analyze", {"program": PAIR})
                assert slow["error"]["code"] == REQUEST_TIMEOUT
            finally:
                client.close()
            # The worker was killed and respawned; a cheap request must
            # succeed on a fresh connection within the same budget...
            running.server.executor.timeout = None
            client = Client(running.host, running.port)
            try:
                good = client.call("analyze", {"program": COUNTDOWN})
                assert good["result"]["status"] == "terminating"
            finally:
                client.close()
        finally:
            running.stop()

    def test_worker_crash_mid_request_then_recovery(self):
        running = run_server_in_thread(port=0, jobs=1)
        try:
            victim = running.server.executor.pool.pids()[0]
            os.kill(victim, signal.SIGKILL)
            client = Client(running.host, running.port)
            try:
                crashed = client.call("analyze", {"program": COUNTDOWN})
                assert crashed["error"]["code"] == WORKER_CRASH
                good = client.call("analyze", {"program": COUNTDOWN})
                assert good["result"]["status"] == "terminating"
                assert good["result"]["provenance"]["worker_pid"] != victim
            finally:
                client.close()
        finally:
            running.stop()

    def test_shutdown_method_stops_the_server(self):
        running = run_server_in_thread(port=0, jobs=1)
        client = Client(running.host, running.port)
        try:
            reply = client.call("shutdown")
            assert reply["result"] == {"stopping": True}
        finally:
            client.close()
        running.thread.join(timeout=30)
        assert not running.thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection((running.host, running.port), timeout=2)


# ---------------------------------------------------------------------------
# the stdio front door
# ---------------------------------------------------------------------------


class TestStdio:
    def run_lines(self, *messages) -> list:
        source = "".join(json.dumps(m) + "\n" for m in messages)
        output = io.StringIO()
        code = serve_stdio(io.StringIO(source), output)
        assert code == 0
        return [json.loads(line) for line in output.getvalue().splitlines()]

    def test_miss_hit_shutdown(self):
        replies = self.run_lines(
            {
                "jsonrpc": "2.0",
                "id": 1,
                "method": "analyze",
                "params": {"program": COUNTDOWN},
            },
            {
                "jsonrpc": "2.0",
                "id": 2,
                "method": "analyze",
                "params": {"program": COUNTDOWN},
            },
            {"jsonrpc": "2.0", "id": 3, "method": "shutdown"},
            {"jsonrpc": "2.0", "id": 4, "method": "cache_stats"},
        )
        assert [r["id"] for r in replies] == [1, 2, 3]  # post-shutdown: EOF
        assert replies[0]["result"]["provenance"]["cache"] == "miss"
        assert replies[1]["result"]["provenance"]["revalidated"] is True

    def test_cache_disabled_serves_bypass(self):
        replies = self.run_lines(
            {
                "jsonrpc": "2.0",
                "id": 1,
                "method": "analyze",
                "params": {"program": COUNTDOWN},
            },
        )
        # (cache on by default; this exercises the off switch)
        output = io.StringIO()
        source = io.StringIO(
            json.dumps(
                {
                    "jsonrpc": "2.0",
                    "id": 9,
                    "method": "analyze",
                    "params": {"program": COUNTDOWN},
                }
            )
            + "\n"
        )
        serve_stdio(source, output, cache=False)
        reply = json.loads(output.getvalue())
        assert reply["result"]["provenance"]["cache"] == "bypass"
        assert replies[0]["result"]["provenance"]["cache"] == "miss"


# ---------------------------------------------------------------------------
# worker supervision (respawn budgets, backoff, hung-worker watchdog)
# ---------------------------------------------------------------------------


class TestSupervision:
    def test_respawn_budget_exhaustion_fails_fast(self):
        with WorkerPool(
            _echo_handler, jobs=1, respawn_budget=2, respawn_backoff=0.01
        ) as pool:
            for _ in range(3):
                assert pool.submit("die").kind == "crash"
            final = pool.submit("after")
            assert final.kind == "crash"
            assert "respawn budget" in final.message
            assert pool.capacity() == 0
            stats = pool.stats()
            assert stats["slots_lost"] == 1
            assert stats["respawns"] == 2

    def test_backoff_respawn_still_recovers(self):
        with WorkerPool(
            _echo_handler, jobs=1, respawn_budget=8, respawn_backoff=0.05
        ) as pool:
            assert pool.submit("die").kind == "crash"
            follow_up = pool.submit("after")  # waits through the backoff
            assert follow_up.ok

    def test_hung_worker_watchdog_fires_without_a_timeout(self):
        with WorkerPool(_echo_handler, jobs=1, hung_deadline=0.3) as pool:
            result = pool.submit("sleep")  # no per-request timeout at all
            assert result.kind == "timeout"
            assert "watchdog" in result.message
            assert pool.stats()["hung_kills"] == 1
            assert pool.submit("after").ok  # the slot was reclaimed

    def test_explicit_timeout_beats_the_watchdog(self):
        with WorkerPool(_echo_handler, jobs=1, hung_deadline=60.0) as pool:
            started = time.monotonic()
            result = pool.submit("sleep", timeout=0.2)
            assert result.kind == "timeout"
            assert time.monotonic() - started < 10.0
            assert pool.stats()["hung_kills"] == 0


# ---------------------------------------------------------------------------
# admission control on the wire
# ---------------------------------------------------------------------------


#: Every pool request sleeps this long: compute takes a known while.
_SLOW_PLAN = "seed0:delay=1,delay_seconds=0.8"


class TestOverloadControl:
    def test_load_beyond_both_bounds_is_shed_with_retry_after(self):
        running = run_server_in_thread(
            port=0, jobs=1, max_inflight=1, max_queue=0,
            fault_plan=_SLOW_PLAN,
        )
        try:
            slow_replies = []

            def slow_caller():
                client = Client(running.host, running.port)
                try:
                    slow_replies.append(
                        client.call("analyze", {"program": COUNTDOWN})
                    )
                finally:
                    client.close()

            thread = threading.Thread(target=slow_caller)
            thread.start()
            time.sleep(0.3)  # let the slow request occupy the only slot
            client = Client(running.host, running.port)
            try:
                shed = client.call("analyze", {"program": PAIR})
            finally:
                client.close()
            thread.join(30.0)
            assert shed["error"]["code"] == OVERLOADED
            assert shed["error"]["data"]["retry_after_seconds"] > 0
            # The in-flight request was untouched by the shedding.
            assert slow_replies[0]["result"]["status"] == "terminating"
        finally:
            running.stop()

    def test_queued_auto_request_keeps_its_idle_verdict(self):
        # Load decides whether a request runs, never what it computes: a
        # nonterm="auto" request queued behind a busy slot answers with
        # the same status and lasso as on an idle server.
        programs = (
            "var x; while (x >= 0) { x = x + 1; }",
            "var y; while (y >= 5) { y = y + 2; }",
        )
        idle = {
            program: analyze(
                AnalysisRequest.from_dict(
                    {"program": program, "config": {"nonterm": "auto"}}
                )
            ).to_dict()
            for program in programs
        }
        running = run_server_in_thread(
            port=0, jobs=1, max_inflight=1, max_queue=2,
            fault_plan=_SLOW_PLAN,
        )
        try:
            replies = {}
            lock = threading.Lock()

            def caller(program, config):
                client = Client(running.host, running.port)
                try:
                    params = {"program": program}
                    if config:
                        params["config"] = config
                    reply = client.call("analyze", params)
                    with lock:
                        replies[program] = reply
                finally:
                    client.close()

            threads = [
                threading.Thread(target=caller, args=(COUNTDOWN, None))
            ]
            threads[0].start()
            time.sleep(0.3)  # in flight; the next two will queue
            for program in programs:
                thread = threading.Thread(
                    target=caller, args=(program, {"nonterm": "auto"})
                )
                threads.append(thread)
                thread.start()
                time.sleep(0.1)
            for thread in threads:
                thread.join(60.0)
            assert replies[COUNTDOWN]["result"]["status"] == "terminating"
            for program in programs:
                served = replies[program]["result"]
                assert idle[program]["status"] == "nonterminating"
                assert served["status"] == "nonterminating"
                assert served["lasso"] is not None
                assert served["lasso"] == idle[program]["lasso"]
                assert served["provenance"]["cache"] == "miss"
                assert "degraded" not in served["provenance"]
        finally:
            running.stop()

    def test_respawn_budget_exhaustion_answers_overloaded(self):
        running = run_server_in_thread(
            port=0, jobs=1, respawn_budget=1, fault_plan="seed0:kill=1"
        )
        try:
            client = Client(running.host, running.port)
            try:
                codes = [
                    client.call("analyze", {"program": p})["error"]["code"]
                    for p in (COUNTDOWN, PAIR, COUNTDOWN)
                ]
            finally:
                client.close()
            # The first kill still had a respawn in the budget: a plain
            # crash.  The second kill exhausts the last slot, so the very
            # crash that emptied the pool — and everything after it — is
            # answered as OVERLOADED rather than a retryable crash.
            assert codes[0] == WORKER_CRASH
            assert codes[1:] == [OVERLOADED] * 2
        finally:
            running.stop()

    def test_cache_hits_are_served_even_while_shedding(self):
        running = run_server_in_thread(
            port=0, jobs=1, max_inflight=1, max_queue=0,
            fault_plan=_SLOW_PLAN,
        )
        try:
            client = Client(running.host, running.port)
            try:
                warm = client.call("analyze", {"program": PAIR})
                assert warm["result"]["provenance"]["cache"] == "miss"
            finally:
                client.close()

            def slow_caller():
                inner = Client(running.host, running.port)
                try:
                    inner.call("analyze", {"program": COUNTDOWN})
                finally:
                    inner.close()

            thread = threading.Thread(target=slow_caller)
            thread.start()
            time.sleep(0.3)
            client = Client(running.host, running.port)
            try:
                # The compute line is full — but a hit needs no compute.
                hit = client.call("analyze", {"program": PAIR})
                assert hit["result"]["provenance"]["cache"] == "hit"
            finally:
                client.close()
            thread.join(30.0)
        finally:
            running.stop()


# ---------------------------------------------------------------------------
# per-request deadlines (both doors)
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_deadline_on_the_socket_door(self):
        running = run_server_in_thread(port=0, jobs=1)
        try:
            client = Client(running.host, running.port)
            try:
                bounded = client.call(
                    "analyze",
                    {"program": PAIR, "deadline_seconds": 0.005},
                )
                assert bounded["error"]["code"] == REQUEST_TIMEOUT
                # Same request without the deadline: computes fine.
                free = client.call("analyze", {"program": PAIR})
                assert free["result"]["status"] == "terminating"
            finally:
                client.close()
        finally:
            running.stop()

    def test_deadline_is_capped_by_the_server_budget(self):
        running = run_server_in_thread(port=0, jobs=1, timeout=0.005)
        try:
            client = Client(running.host, running.port)
            try:
                reply = client.call(
                    "analyze",
                    {"program": PAIR, "deadline_seconds": 120.0},
                )
                assert reply["error"]["code"] == REQUEST_TIMEOUT
            finally:
                client.close()
        finally:
            running.stop()

    def test_deadline_on_the_stdio_door(self):
        source = io.StringIO(
            json.dumps(
                {
                    "jsonrpc": "2.0",
                    "id": 1,
                    "method": "analyze",
                    "params": {
                        "program": PAIR,
                        "deadline_seconds": 0.002,
                    },
                }
            )
            + "\n"
            + json.dumps(
                {
                    "jsonrpc": "2.0",
                    "id": 2,
                    "method": "analyze",
                    "params": {"program": COUNTDOWN},
                }
            )
            + "\n"
        )
        output = io.StringIO()
        assert serve_stdio(source, output) == 0
        replies = [json.loads(line) for line in output.getvalue().splitlines()]
        assert replies[0]["error"]["code"] == REQUEST_TIMEOUT
        assert replies[1]["result"]["status"] == "terminating"

    def test_invalid_deadline_is_rejected(self):
        running = run_server_in_thread(port=0, jobs=1)
        try:
            client = Client(running.host, running.port)
            try:
                reply = client.call(
                    "analyze",
                    {"program": COUNTDOWN, "deadline_seconds": -1},
                )
                assert reply["error"]["code"] == -32602  # INVALID_PARAMS
            finally:
                client.close()
        finally:
            running.stop()


# ---------------------------------------------------------------------------
# graceful drain under load
# ---------------------------------------------------------------------------


class TestDrainUnderLoad:
    def test_queued_refused_inflight_finish_idle_dropped(self):
        running = run_server_in_thread(
            port=0, jobs=1, max_inflight=1, max_queue=4,
            fault_plan="seed0:delay=1,delay_seconds=1.0",
        )
        try:
            idle = Client(running.host, running.port)  # never sends
            replies = {}
            lock = threading.Lock()

            def caller(tag, program):
                client = Client(running.host, running.port)
                try:
                    reply = client.call("analyze", {"program": program})
                    with lock:
                        replies[tag] = reply
                finally:
                    client.close()

            inflight = threading.Thread(
                target=caller, args=("inflight", COUNTDOWN)
            )
            inflight.start()
            time.sleep(0.3)  # the slow request holds the only slot
            queued = threading.Thread(target=caller, args=("queued", PAIR))
            queued.start()
            time.sleep(0.3)  # now parked in the admission queue

            running.server.request_stop()
            inflight.join(20.0)
            queued.join(20.0)
            assert not inflight.is_alive() and not queued.is_alive()

            # In-flight work finished normally within the grace period...
            assert replies["inflight"]["result"]["status"] == "terminating"
            # ...the queued admission was woken and refused...
            assert replies["queued"]["error"]["code"] == SHUTTING_DOWN
            # ...and the idle connection was dropped, not kept alive.
            idle.sock.settimeout(10.0)
            assert idle.stream.readline() == b""
            idle.close()

            running.thread.join(20.0)
            assert not running.thread.is_alive()
        finally:
            running.stop()


# ---------------------------------------------------------------------------
# framing recovery (oversized lines must not kill the connection)
# ---------------------------------------------------------------------------


class TestFramingRecovery:
    def test_oversized_line_answers_and_the_connection_keeps_serving(self):
        running = run_server_in_thread(
            port=0, jobs=1, max_program_bytes=1024
        )
        try:
            client = Client(running.host, running.port)
            try:
                # Way past the frame cap (2 * max_program_bytes + 64 KiB),
                # in one line with no newline until the very end.
                client.stream.write(b"x" * 200_000 + b"\n")
                client.stream.flush()
                reply = json.loads(client.stream.readline())
                assert reply["error"]["code"] == PARSE_ERROR
                assert "frame limit" in reply["error"]["message"]
                # The same connection still frames and serves correctly.
                good = client.call("analyze", {"program": COUNTDOWN})
                assert good["result"]["status"] == "terminating"
                # And recovery is repeatable, not one-shot.
                client.stream.write(b"y" * 150_000 + b"\n")
                client.stream.flush()
                again = json.loads(client.stream.readline())
                assert again["error"]["code"] == PARSE_ERROR
                final = client.call("list_provers")
                assert "termite" in final["result"]["provers"]
            finally:
                client.close()
        finally:
            running.stop()


# ---------------------------------------------------------------------------
# analyze_batch fan-out
# ---------------------------------------------------------------------------


class TestBatchFanout:
    def test_members_fan_out_and_stay_positionally_aligned(self):
        running = run_server_in_thread(
            port=0, jobs=2, fault_plan="seed0:delay=1,delay_seconds=0.3"
        )
        try:
            client = Client(running.host, running.port)
            try:
                names = ["m0", "m1", "m2", "m3"]
                requests = [
                    {
                        "program": COUNTDOWN,
                        "name": name,
                        "config": {"max_iterations": 200 + index},
                    }
                    for index, name in enumerate(names)
                ]
                reply = client.call("analyze_batch", {"requests": requests})
                results = reply["result"]["results"]
                assert [r["program"] for r in results] == names
                assert all(r["status"] == "terminating" for r in results)
                # Both pool workers actually served members concurrently.
                pids = {r["provenance"]["worker_pid"] for r in results}
                assert len(pids) == 2
            finally:
                client.close()
        finally:
            running.stop()

    def test_failing_member_keeps_the_batch_rectangular(self):
        running = run_server_in_thread(port=0, jobs=2)
        try:
            client = Client(running.host, running.port)
            try:
                reply = client.call(
                    "analyze_batch",
                    {
                        "requests": [
                            {"program": COUNTDOWN, "name": "good"},
                            {"program": "while {", "name": "broken"},
                            {"program": PAIR, "name": "also-good"},
                        ]
                    },
                )
                results = reply["result"]["results"]
                assert [r["program"] for r in results] == [
                    "good", "broken", "also-good",
                ]
                assert results[0]["status"] == "terminating"
                assert results[1]["status"] == "error"
                assert results[2]["status"] == "terminating"
            finally:
                client.close()
        finally:
            running.stop()


# ---------------------------------------------------------------------------
# the retry client against real injected faults
# ---------------------------------------------------------------------------


class TestRetryClientAgainstFaults:
    def test_rides_out_worker_kills(self):
        running = run_server_in_thread(
            port=0, jobs=1, fault_plan="seed1:kill=0.3"
        )
        try:
            client = ServiceClient(running.host, running.port)
            try:
                for index in range(4):
                    result = call_with_retry(
                        functools.partial(
                            client.analyze,
                            {"program": COUNTDOWN, "name": "r%d" % index},
                        ),
                        max_attempts=10,
                        base_delay=0.02,
                        rng=random.Random(index),
                    )
                    assert result["status"] == "terminating"
            finally:
                client.close()
        finally:
            running.stop()

    def test_rides_out_dropped_connections(self):
        running = run_server_in_thread(
            port=0, jobs=1, fault_plan="seed2:drop=0.5"
        )
        try:
            client = ServiceClient(running.host, running.port)
            try:
                for index in range(4):
                    result = call_with_retry(
                        functools.partial(
                            client.analyze, {"program": COUNTDOWN}
                        ),
                        max_attempts=10,
                        base_delay=0.02,
                        rng=random.Random(index),
                    )
                    assert result["status"] == "terminating"
            finally:
                client.close()
        finally:
            running.stop()
