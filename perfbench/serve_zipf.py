"""serve_zipf: open-loop study requests against ``python -m repro.serve``.

The server runs as a subprocess (through ``serve_launcher.py``) with a
checkpoint store.  Requests are drawn zipf-style from 300 small study
specs covering all three backends and sent open-loop, on a fixed schedule,
over two keep-alive connections: a connection sends its next request when
it is due, or as soon as it is free if it is already late, and each
request is timed from when it was due.  Set-up writes every other spec of
the population to the store and sends the 36 most popular specs to the
server, so requests split into session report-cache hits (hot specs and
repeats), store reads (first request of a stored spec) and computes with
store writes (first request of any other spec).  ``serve``,
``api.session``, ``api.canonical`` and the store do the work; the numeric
kernels do little.

Two phases run back to back: a nominal rate well below capacity, whose
latencies give ``op_p50_ms`` and the printed p99, and an overload rate,
which gives the printed goodput -- 200 responses within
``LATENCY_LIMIT_MS`` per second.  In the overload phase the client gives up on a request that is
already more than half the limit late when a connection is free to send
it, as a caller with a deadline would, so every request it sends still
leaves the server half the limit.  A request given up counts as missing
the limit, and the backlog cannot grow without bound.

Every 200 body's report must equal the report a fresh in-process
``Session`` computes for the same spec after the phases.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from harness import Measurement, percentile, timed_setups, untraced
from tracer import read_span_files

N_SPECS = 300
#: Most popular ranks, sent to the server in set-up; they cover every
#: pipeline shape and backend of the population.
N_HOT = 36
ZIPF_EXPONENT = 1.1
CONNECTIONS = 2
NOMINAL_RPS = 100.0
OVERLOAD_RPS = 2000.0
#: Share of the run's seconds spent at the nominal rate.
NOMINAL_SHARE = 0.7
LATENCY_LIMIT_MS = 100.0
STOP_TIMEOUT_S = 30.0

_HERE = pathlib.Path(__file__).resolve().parent


def population(rng):
    """The run's 300 small study specs, in popularity-rank order.

    The shape and backend of each rank are fixed, so every seed offers the
    same mix of work; the seed picks each spec's sampling seed.
    """
    from repro.api import AnalysisSpec, PipelineSpec, StudySpec, VariationSpec

    backends = ("montecarlo", "analytic", "ssta")
    return [
        StudySpec(
            pipeline=PipelineSpec(
                kind="inverter_chain",
                n_stages=2 + rank // 3 % 3,
                logic_depth=3 + rank // 9 % 4,
            ),
            variation=VariationSpec.combined(),
            analysis=AnalysisSpec(
                backend=backends[rank % 3],
                n_samples=200,
                seed=int(seed),
            ),
        )
        for rank, seed in enumerate(rng.integers(2**31, size=N_SPECS))
    ]


class ServerProcess:
    """One ``repro.serve`` subprocess on an ephemeral port."""

    def __init__(self, store_dir, log_path, trace_dir=None) -> None:
        launcher = [sys.executable, str(_HERE / "serve_launcher.py")]
        if trace_dir is not None:
            launcher += ["--trace-dir", str(trace_dir)]
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            launcher + ["--store", str(store_dir), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"study server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def call(self, method: str, path: str, body: bytes | None = None) -> dict:
        """One request on its own connection; raises unless it answers 200."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            payload = response.read()
            if response.status != 200:
                raise RuntimeError(f"{method} {path} answered {response.status}")
            return json.loads(payload)
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server drains and exits), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def drive(port: int, bodies: list[bytes], rate: float, give_up_s: float | None):
    """Send ``bodies`` open-loop at ``rate``; one record per request.

    One thread runs an event loop with ``CONNECTIONS`` keep-alive
    connections, so the load generator takes as little CPU from the server
    as it can.  A record is ``(due, done, status, body, wake_late)``, or
    ``None`` for a request that was already more than ``give_up_s`` late
    when a connection was free to send it (the client gave up on it).
    ``wake_late`` is how late the generator woke for a request it had to
    wait for, else ``None``.
    """
    return asyncio.run(_drive(port, bodies, rate, give_up_s))


async def _drive(port, bodies, rate, give_up_s):
    records: list = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    start = time.monotonic()

    async def connection_loop() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for index in cursor:
                due = start + index / rate
                now = time.monotonic()
                if give_up_s is not None and now - due > give_up_s:
                    continue
                wake_late = None
                if now < due:
                    await asyncio.sleep(due - now)
                    wake_late = time.monotonic() - due
                body = bodies[index]
                writer.write(
                    b"POST /v1/study HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                status, payload = await _read_response(reader)
                records[index] = (due, time.monotonic(), status, payload, wake_late)
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(connection_loop() for _ in range(CONNECTIONS)))
    return records, start


async def _read_response(reader) -> tuple[int, bytes]:
    """Status and body of one ``Content-Length``-framed response."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = next(
        int(line.split(":", 1)[1])
        for line in lines[1:]
        if line.lower().startswith("content-length:")
    )
    return status, await reader.readexactly(length)


def measure(seed, seconds, setup_reps, tracer, workdir) -> Measurement:
    from repro.api import Session
    from repro.robust.checkpoint import CheckpointStore

    rng = np.random.default_rng(seed)
    specs = population(rng)
    weights = 1.0 / np.arange(1, N_SPECS + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    nominal_s = seconds * NOMINAL_SHARE
    overload_s = seconds - nominal_s
    nominal = rng.choice(N_SPECS, size=int(NOMINAL_RPS * nominal_s), p=weights)
    overload = rng.choice(N_SPECS, size=int(OVERLOAD_RPS * overload_s), p=weights)
    bodies = [json.dumps(spec.to_dict()).encode("utf-8") for spec in specs]
    workdir.mkdir(parents=True, exist_ok=True)
    trace_dir = tracer.flush_dir if tracer is not None else None

    servers: list[ServerProcess] = []

    def setup() -> None:
        store_dir = workdir / f"store{len(servers)}"
        session = Session(store=CheckpointStore(store_dir))
        for spec in specs[1::2]:
            session.run(spec)
        servers.append(
            ServerProcess(store_dir, workdir / f"server{len(servers)}.log", trace_dir)
        )
        servers[-1].call("GET", "/v1/health")
        # A long-lived server has its popular specs in the session cache
        # and every pipeline shape and analyzer built; without this the
        # phase would start with a burst of first requests that sets p99.
        for body in bodies[:N_HOT]:
            servers[-1].call("POST", "/v1/study", body)

    try:
        setup_s, _ = timed_setups(setup_reps, setup)
        for server in servers[:-1]:
            server.stop()
        server = servers[-1]
        before = server.call("GET", "/v1/stats")
        nominal_records, nominal_start = drive(
            server.port, [bodies[i] for i in nominal], NOMINAL_RPS, None
        )
        nominal_end = time.monotonic()
        overload_records, _ = drive(
            server.port, [bodies[i] for i in overload], OVERLOAD_RPS,
            LATENCY_LIMIT_MS / 2000.0,
        )
        after = server.call("GET", "/v1/stats")
        rss_mb = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()
        for index in range(len(servers)):
            shutil.rmtree(workdir / f"store{index}", ignore_errors=True)

    # Each reference on its own session, so no cache is shared with
    # another spec's answer.
    with untraced(tracer):
        expected = {
            index: json.loads(json.dumps(Session().run(specs[index]).to_dict()))
            for index in set(nominal) | set(overload)
        }

    def answered(index, record) -> bool:
        """The request got a 200 whose report equals the reference."""
        _, _, status, payload, _ = record
        return status == 200 and json.loads(payload)["report"] == expected[index]

    nominal_ok = [answered(i, r) for i, r in zip(nominal, nominal_records)]
    overload_sent = [(i, r) for i, r in zip(overload, overload_records) if r is not None]
    overload_ok = [answered(i, r) for i, r in overload_sent]
    limit_s = LATENCY_LIMIT_MS / 1000.0
    good = sum(
        ok and record[1] - record[0] <= limit_s
        for ok, (_, record) in zip(overload_ok, overload_sent)
    )
    sent = nominal_records + [record for _, record in overload_sent]
    failed = nominal_ok.count(False) + overload_ok.count(False)
    latencies = [1000.0 * (record[1] - record[0]) for record in nominal_records]
    wake_late_ms = [1000.0 * record[4] for record in sent if record[4] is not None]

    delta = {
        key: after["server"][key] - before["server"][key] for key in after["server"]
    }
    store_traffic = (
        after["session"]["store_hits"] - before["session"]["store_hits"]
        + after["session"]["store_writes"] - before["session"]["store_writes"]
    )
    layer = {
        "serve.computed": delta["computed"],
        "serve.coalesced": delta["coalesced"],
        "serve.rejected": sum(v for k, v in delta.items() if k.startswith("rejected_")),
        "serve.errors": delta["errors"],
        "serve.gen_late_ms": percentile(wake_late_ms, 99.0) if wake_late_ms else 0.0,
        # /v1/stats has no counter for session report-cache hits, and
        # ``computed`` counts them, so the hits are what remains once the
        # store reads and store writes are taken away.
        "api.report_cache_hit_ratio": 1.0 - store_traffic / delta["computed"],
        "api.report_cache_hit_base": delta["computed"],
    }
    if tracer is not None:
        # Split of the nominal phase, whose latencies give p50 and p99.
        layer.update(
            _server_time(trace_dir, server.process.pid, nominal_start, nominal_end)
        )
        layer["serve.queue_s"] = (
            sum(record[1] - record[0] for record in nominal_records)
            - layer["serve.compute_s"] - layer["serve.encode_s"]
        )

    return Measurement(
        setup_s=setup_s,
        peak_rss_mb=rss_mb,
        op_p50_ms=statistics.median(latencies),
        attempted=len(sent),
        failed=failed,
        named={
            "serve.latency_p50_ms": (statistics.median(latencies), "ms"),
            "serve.latency_p99_ms": (percentile(latencies, 99.0), "ms"),
            "serve.goodput_rps": (good / overload_s, "1/s"),
            "serve.nominal_requests": (len(nominal_records), "count"),
            "serve.overload_given_up": (len(overload) - len(overload_sent), "count"),
        },
        layer=layer,
    )


def _server_time(trace_dir, pid, start, end) -> dict[str, float]:
    """Server compute and response-encoding time between start and end."""
    spans = [
        span for span in read_span_files(trace_dir)
        if span["pid"] == pid and span["parent"] is None and start <= span["start"] <= end
    ]
    return {
        "serve.compute_s": sum(
            span["end"] - span["start"] for span in spans if span["name"] == "api.session"
        ),
        "serve.encode_s": sum(
            span["end"] - span["start"]
            for span in spans
            if span["name"] in ("api.encode", "serve.encode")
        ),
    }
