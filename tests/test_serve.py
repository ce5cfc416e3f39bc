"""Server semantics: coalescing, budgets, streaming, typed errors, drain.

Each test boots a fresh :class:`BackgroundServer` (its own session, its own
counters) on an ephemeral port and talks to it with the typed
:class:`Client` -- or raw ``http.client`` when the point is malformed
input.  The deliberately slow ``sleepy`` backend makes concurrency
deterministic: requests that must overlap, do.
"""

from __future__ import annotations

import gc
import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.backends import get_backend, register_backend
from repro.api.canonical import spec_digest, spec_to_wire
from repro.api.session import Session
from repro.api.spec import (
    AnalysisSpec,
    DesignStudySpec,
    PipelineSpec,
    StudySpec,
)
from repro.api.sweep import ScenarioSweep, run_sweep
from repro.serve import (
    BackgroundServer,
    Client,
    ServeBudgets,
    ServeConfig,
    ServerError,
)

SMALL = StudySpec(
    pipeline=PipelineSpec(n_stages=2),
    analysis=AnalysisSpec(n_samples=200, seed=13),
)


class SleepyBackend:
    """Deterministic but slow: guarantees concurrent requests overlap."""

    name = "sleepy"

    def __init__(self, delay: float = 0.3) -> None:
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def analyze(self, session, study):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        return get_backend("ssta").analyze(session, study)


SLEEPY = SleepyBackend()
register_backend(SLEEPY, replace=True)

SLEEPY_SPEC = StudySpec(
    pipeline=PipelineSpec(n_stages=2),
    analysis=AnalysisSpec(backend="sleepy", n_samples=200, seed=13),
)


@pytest.fixture
def server():
    with BackgroundServer(config=ServeConfig()) as bg:
        yield bg


@pytest.fixture
def client(server):
    with Client(server.host, server.port) as c:
        yield c


def raw_request(server, method, path, body=b"", headers=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


class TestUnaryEndpoints:
    def test_served_study_is_byte_identical_to_local_run(self, client):
        local = Session().run(SMALL)
        served = client.study(SMALL)
        assert served == local
        assert json.dumps(served.to_dict(), sort_keys=True) == json.dumps(
            local.to_dict(), sort_keys=True
        )
        assert client.last_envelope["digest"] == spec_digest(SMALL)
        assert client.last_envelope["coalesced"] is False

    def test_served_design_matches_local_run(self, client):
        spec = DesignStudySpec(
            pipeline=PipelineSpec(n_stages=3),
            validation=AnalysisSpec(n_samples=150, seed=3),
        )

        def deterministic(report):
            # The optimizer trace records per-stage wall-clock seconds, so two
            # independent runs differ there (and only there) by construction.
            data = report.to_dict()
            for entry in data["trace"]:
                entry.pop("seconds", None)
            return data

        local = Session().run(spec)
        served = client.design(spec)
        assert deterministic(served) == deterministic(local)
        # The dispatching mirror of Session.run returns the same cached report.
        assert client.run(spec) == served

    def test_health_and_stats(self, client):
        health = client.health()
        assert health["status"] == "ok"
        stats = client.stats()
        assert stats["server"]["requests"] >= 1
        assert stats["session"]["cache_hits"] == 0
        assert stats["budgets"]["max_in_flight"] == 256


class TestCoalescing:
    def test_identical_concurrent_submissions_compute_once(self, server):
        """The acceptance gate: N duplicates -> exactly one characterisation."""
        n_clients = 8
        before = SLEEPY.calls

        def submit(_):
            with Client(server.host, server.port) as c:
                return c.study(SLEEPY_SPEC)

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            reports = list(pool.map(submit, range(n_clients)))

        assert SLEEPY.calls == before + 1
        assert all(r == reports[0] for r in reports)
        stats = server.server.stats
        assert stats.computed == 1
        assert stats.coalesced == n_clients - 1

    def test_distinct_specs_do_not_coalesce(self, server):
        specs = [
            SLEEPY_SPEC.replace(
                analysis=AnalysisSpec(backend="sleepy", n_samples=200, seed=s)
            )
            for s in (101, 102, 103)
        ]

        def submit(spec):
            with Client(server.host, server.port) as c:
                return c.study(spec)

        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(submit, specs))
        assert server.server.stats.computed == 3
        assert server.server.stats.coalesced == 0


class TestBudgetsAndBackpressure:
    def test_oversized_study_is_rejected_structurally(self, server):
        with BackgroundServer(
            config=ServeConfig(budgets=ServeBudgets(max_study_samples=100))
        ) as tiny:
            with Client(tiny.host, tiny.port) as c:
                with pytest.raises(ServerError) as excinfo:
                    c.study(SMALL)  # 200 samples > 100 cap
        err = excinfo.value
        assert err.status == 413
        assert err.error_type == "BudgetExceeded"
        assert err.detail == {
            "budget": "max_study_samples", "limit": 100, "got": 200,
        }
        assert tiny.server.stats.rejected_budget == 1

    def test_oversized_sweep_is_rejected_structurally(self):
        with BackgroundServer(
            config=ServeConfig(budgets=ServeBudgets(max_sweep_points=2))
        ) as tiny:
            with Client(tiny.host, tiny.port) as c:
                sweep = ScenarioSweep(SMALL, {"analysis.seed": [1, 2, 3]})
                with pytest.raises(ServerError) as excinfo:
                    list(c.sweep(sweep))
        assert excinfo.value.status == 413
        assert excinfo.value.detail["budget"] == "max_sweep_points"

    def test_max_in_flight_rejects_with_429(self):
        with BackgroundServer(
            config=ServeConfig(budgets=ServeBudgets(max_in_flight=1))
        ) as tiny:
            statuses = []

            def submit(seed):
                with Client(tiny.host, tiny.port) as c:
                    try:
                        c.study(
                            SLEEPY_SPEC.replace(
                                analysis=AnalysisSpec(
                                    backend="sleepy", n_samples=200, seed=seed
                                )
                            )
                        )
                        statuses.append(200)
                    except ServerError as err:
                        statuses.append(err.status)
                        assert err.error_type == "TooManyRequests"
                        assert err.detail["limit"] == 1

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(submit, (201, 202, 203, 204)))
            assert 429 in statuses  # distinct specs, one compute slot
            assert statuses.count(200) >= 1
            assert tiny.server.stats.rejected_busy == statuses.count(429)

    def test_combinatorial_sweep_rejected_before_materialization(self, server):
        """A tiny body describing a 40^4 grid must bounce without building it.

        The budget check runs on the axis lengths alone; materialising
        2.56M point specs first would pin the event loop for minutes (the
        original bug: health checks blocked >120s on a 1.3KB request).
        """
        axes = {
            f"analysis.{field}": list(range(40))
            for field in ("seed", "n_samples", "alpha", "beta")
        }
        body = json.dumps({"base": spec_to_wire(SMALL), "axes": axes}).encode()
        started = time.monotonic()
        status, payload = raw_request(server, "POST", "/v1/sweep", body=body)
        elapsed = time.monotonic() - started
        assert status == 413
        assert payload["error"]["type"] == "BudgetExceeded"
        assert payload["error"]["detail"] == {
            "budget": "max_sweep_points", "limit": 1024, "got": 40**4,
        }
        assert elapsed < 5.0  # rejected from axis lengths, not after building
        # The event loop never stalled: liveness answers immediately.
        started = time.monotonic()
        status, payload = raw_request(server, "GET", "/v1/health")
        assert status == 200 and payload["status"] == "ok"
        assert time.monotonic() - started < 5.0
        assert server.server.stats.rejected_budget == 1

    def test_zip_sweep_size_counts_axis_length_not_product(self, server):
        """Zip-mode pairing: 3 values on 2 axes is 3 points, not 9."""
        axes = {"analysis.seed": [1, 2, 3], "analysis.n_samples": [100, 150, 200]}
        body = json.dumps(
            {"base": spec_to_wire(SMALL), "axes": axes, "mode": "zip"}
        ).encode()
        with BackgroundServer(
            config=ServeConfig(budgets=ServeBudgets(max_sweep_points=2))
        ) as tiny:
            status, payload = raw_request(tiny, "POST", "/v1/sweep", body=body)
        assert status == 413
        assert payload["error"]["detail"]["got"] == 3

    def test_draining_rejects_with_503(self, server, client):
        client.health()  # establish the keep-alive connection first
        server.server._draining = True
        try:
            with pytest.raises(ServerError) as excinfo:
                client.study(SMALL)
        finally:
            server.server._draining = False
        assert excinfo.value.status == 503
        assert excinfo.value.error_type == "ServerDraining"


class TestMalformedRequests:
    def test_malformed_json_is_a_typed_400(self, server):
        status, payload = raw_request(
            server, "POST", "/v1/study", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert payload["error"]["type"] == "InvalidJSON"
        assert "Traceback" not in json.dumps(payload)

    def test_invalid_spec_is_a_typed_400(self, server):
        status, payload = raw_request(
            server, "POST", "/v1/study",
            body=json.dumps({"pipeline": {"n_stages": -1}}).encode(),
        )
        assert status == 400
        assert payload["error"]["type"] == "InvalidSpec"

    def test_unknown_endpoint_is_404_and_bad_method_is_405(self, server):
        status, payload = raw_request(server, "GET", "/v1/nope")
        assert (status, payload["error"]["type"]) == (404, "NotFound")
        status, payload = raw_request(server, "DELETE", "/v1/study")
        assert (status, payload["error"]["type"]) == (405, "MethodNotAllowed")

    def test_invalid_sweep_body_is_a_typed_400(self, server):
        status, payload = raw_request(
            server, "POST", "/v1/sweep", body=json.dumps({"axes": {}}).encode()
        )
        assert (status, payload["error"]["type"]) == (400, "InvalidSweep")


class TestSweepStreaming:
    def test_stream_matches_local_run_sweep(self, server, client):
        axes = {"analysis.n_samples": [100, 150, 200]}
        local = run_sweep(SMALL, axes, session=Session())
        events = list(client.sweep(ScenarioSweep(SMALL, axes)))
        kinds = [e.kind for e in events]
        assert kinds[0] == "start" and kinds[-1] == "done"
        assert kinds.count("point") == 3
        served = client.sweep_result(ScenarioSweep(SMALL, axes))
        assert list(served) == list(local)
        # Byte-identical points (the trace legitimately differs in wall-clock).
        assert json.dumps([p.to_dict() for p in served]) == json.dumps(
            [p.to_dict() for p in local]
        )
        assert server.server.stats.points_streamed >= 6

    def test_stream_carries_structured_failures(self, client):
        axes = {"analysis.backend": ["montecarlo", "no-such-backend"]}
        result = client.sweep_result(ScenarioSweep(SMALL, axes))
        assert len(result.points) == 1
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "KeyError"
        assert result.trace.n_failed == 1

    def test_stream_start_event_reports_size(self, client):
        events = list(
            client.sweep(ScenarioSweep(SMALL, {"analysis.seed": [1, 2]}))
        )
        assert events[0].data["n_points"] == 2

    def test_midstream_failure_ends_stream_with_error_event(self, server, client):
        """A failure after the head is out must not inject a second response.

        The server finishes the chunked body with a structured ``error``
        event and the terminator; the client surfaces it as a typed
        ServerError, and the server keeps serving fresh connections.
        """
        calls = {"n": 0}
        original = server.server._run_batch

        def flaky(tasks, n_jobs, policy):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("backend exploded mid-stream")
            return original(tasks, n_jobs, policy)

        server.server._run_batch = flaky
        sweep = ScenarioSweep(SMALL, {"analysis.seed": [1, 2, 3]})
        events = []
        with pytest.raises(ServerError) as excinfo:
            for event in client.sweep(sweep, chunk=1):
                events.append(event)
        assert excinfo.value.error_type == "ComputeError"
        assert "RuntimeError" in str(excinfo.value)
        kinds = [e.kind for e in events]
        assert "start" in kinds and kinds.count("point") == 1
        assert "done" not in kinds
        assert server.server.stats.errors == 1
        # The chunked framing stayed intact and the connection closed; a
        # fresh connection gets a clean, normal exchange.
        with Client(server.host, server.port) as follow_up:
            assert follow_up.health()["status"] == "ok"


class TestSweepFields:
    """Unknown top-level sweep keys are a typed 400, never a silent skip."""

    @staticmethod
    def post_sweep(server, **extra):
        body = {
            "base": spec_to_wire(SMALL),
            "axes": {"analysis.seed": [1, 2]},
            **extra,
        }
        return raw_request(
            server, "POST", "/v1/sweep", body=json.dumps(body).encode()
        )

    def test_shards_field_rejected_as_invalid(self, server):
        status, payload = self.post_sweep(server, shards=2)
        assert (status, payload["error"]["type"]) == (400, "InvalidSweep")
        assert "'shards'" in payload["error"]["message"]
        assert payload["error"]["detail"] == {"unknown_fields": ["shards"]}
        assert server.server.stats.rejected_invalid == 1
        assert server.server.stats.streams == 0

    def test_misspelled_field_rejected_as_invalid(self, server):
        status, payload = self.post_sweep(server, n_job=2)
        assert (status, payload["error"]["type"]) == (400, "InvalidSweep")
        assert payload["error"]["detail"] == {"unknown_fields": ["n_job"]}
        assert server.server.stats.streams == 0


class TestClientRetry:
    """The client may only retry when a resubmit cannot double work."""

    @staticmethod
    def _acceptor(handle):
        """A fake server: ``handle(conn)`` per accepted connection."""
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(8)
        sock.settimeout(0.05)
        stop = threading.Event()
        accepted = []

        def run():
            while not stop.is_set():
                try:
                    conn, _ = sock.accept()
                except socket.timeout:
                    continue
                accepted.append(conn)
                handle(conn)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        port = sock.getsockname()[1]

        def shutdown():
            stop.set()
            thread.join(timeout=5)
            sock.close()
            for conn in accepted:
                conn.close()

        return port, accepted, shutdown

    def test_post_is_not_retried_when_fresh_connection_dies(self):
        """A POST dying mid-exchange on a fresh socket must surface, not
        silently resubmit (the server may already be computing it)."""

        def slam(conn):
            conn.recv(65536)
            conn.close()

        port, accepted, shutdown = self._acceptor(slam)
        try:
            with Client("127.0.0.1", port, timeout=5) as client:
                with pytest.raises((http.client.HTTPException, OSError)):
                    client.study(SMALL)
            time.sleep(0.2)  # would-be retry has time to reconnect
            assert len(accepted) == 1  # the spec was submitted exactly once
        finally:
            shutdown()

    def test_stale_keepalive_get_is_retried_transparently(self):
        """A keep-alive socket the server closed after a completed exchange
        is the one safe retry case: reconnect and repeat."""
        response = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 16\r\nConnection: keep-alive\r\n\r\n"
            b'{"protocol": 1}\n'
        )

        def answer_once_then_hang_up(conn):
            conn.recv(65536)
            conn.sendall(response)
            conn.close()  # lies about keep-alive: next reuse hits a dead socket

        port, accepted, shutdown = self._acceptor(answer_once_then_hang_up)
        try:
            with Client("127.0.0.1", port, timeout=5) as client:
                assert client.stats()["protocol"] == 1
                # The reused connection is stale; the GET retries on a fresh
                # socket and succeeds without surfacing an error.
                assert client.stats()["protocol"] == 1
            assert len(accepted) >= 2
        finally:
            shutdown()


class TestGracefulDrain:
    def test_shutdown_with_idle_keepalive_connection_is_quiet(self):
        """Cancelling idle connection handlers at shutdown must not leave
        unretrieved CancelledErrors (logged as spurious tracebacks)."""
        bg = BackgroundServer(config=ServeConfig()).start()
        captured = []
        loop = bg._loop
        loop.call_soon_threadsafe(
            loop.set_exception_handler,
            lambda _loop, context: captured.append(context),
        )
        client = Client(bg.host, bg.port)
        try:
            assert client.health()["status"] == "ok"
            # The keep-alive connection stays open and idle through shutdown.
            bg.stop(drain=True, timeout=30)
            gc.collect()  # unretrieved task exceptions surface at GC time
            assert captured == []
        finally:
            client.close()

    def test_shutdown_drains_in_flight_compute(self):
        bg = BackgroundServer(config=ServeConfig()).start()
        results = {}

        def submit():
            with Client(bg.host, bg.port, timeout=30) as c:
                results["report"] = c.study(SLEEPY_SPEC)

        thread = threading.Thread(target=submit)
        thread.start()
        # Wait until the computation is actually admitted, then drain.
        deadline = time.monotonic() + 5.0
        while bg.server.in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert bg.server.in_flight == 1
        bg.stop(drain=True, timeout=30)
        thread.join(timeout=30)
        assert results["report"] == Session().run(SLEEPY_SPEC)
        assert bg.server.stats.computed == 1
        assert bg.server.in_flight == 0
