"""Service integration tests: coalescing, warm tier, drain, backpressure.

Every test runs a real :class:`ReproService` over a unix socket inside
one ``asyncio.run`` — real frames over real streams, with the pool
replaced by a gate-controlled wrapper where determinism demands it (the
storm tests must *know* all fifty subscribers attached before the single
execution is allowed to finish).
"""

import asyncio
import json
import os
import signal
import threading

import pytest

from repro.runner import BatchRunner
from repro.service import (
    ReproService,
    ServiceBusy,
    ServiceClient,
    ServiceDraining,
    ServiceRequestError,
)
from repro.service.daemon import _serve
from repro.service.protocol import ProtocolError, encode_frame

SIM_SPEC = {
    "config": "M8",
    "benchmarks": ["gzip", "twolf"],
    "mapping": [0, 0],
    "commit_target": 300,
    "trace_length": 2000,
    "seed": 0,
}

OTHER_SPEC = dict(SIM_SPEC, seed=1)
THIRD_SPEC = dict(SIM_SPEC, seed=2)


class GatedRunner:
    """A :class:`BatchRunner` wrapper whose ``run`` blocks on a gate.

    Lets a test admit any number of subscribers (and observe their acks)
    while the one real execution is provably still in flight, then
    release it.  ``run_calls`` counts executions — the storm tests
    assert it stays at exactly one — and ``started`` is set once an
    execution is held at the gate.
    """

    def __init__(self, inner: BatchRunner) -> None:
        self.inner = inner
        self.gate = threading.Event()
        self.started = threading.Event()
        self.run_calls = 0

    def run(self, jobs):
        self.run_calls += 1
        self.started.set()
        if not self.gate.wait(timeout=60.0):
            raise TimeoutError("test gate never released")
        return self.inner.run(jobs)

    def __getattr__(self, name):  # report, cache, close, ...
        return getattr(self.inner, name)


@pytest.fixture
def runner(tmp_path):
    runner = BatchRunner(workers=1, cache_dir=tmp_path / "cache")
    yield runner
    runner.close()


def serve(runner, coro_fn, tmp_path, **service_kw):
    """Run ``coro_fn(service, sockpath)`` against a live unix server."""
    service_kw.setdefault("cache", getattr(runner, "cache", None))
    service_kw.setdefault("progress_interval", 0.1)
    service = ReproService(runner, **service_kw)
    sockpath = str(tmp_path / "serve.sock")

    async def main():
        await service.start()
        server = await asyncio.start_unix_server(
            service.handle_connection, path=sockpath
        )
        try:
            return await asyncio.wait_for(coro_fn(service, sockpath), 120)
        finally:
            server.close()
            await server.wait_closed()
            await service.close()

    return asyncio.run(main())


# -- raw async client helpers ------------------------------------------------


async def connect(sockpath):
    reader, writer = await asyncio.open_unix_connection(sockpath)
    hello = json.loads(await reader.readline())
    assert hello["type"] == "hello"
    return reader, writer, hello


async def send(writer, frame):
    writer.write(encode_frame(frame))
    await writer.drain()


async def next_frame(reader, skip=("progress",)):
    """The next non-heartbeat frame, decoded — and its raw bytes."""
    while True:
        line = await reader.readline()
        assert line, "server closed the stream unexpectedly"
        frame = json.loads(line)
        if frame["type"] not in skip:
            return frame, line


async def close_writer(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (BrokenPipeError, ConnectionResetError):
        pass


# -- the storm ---------------------------------------------------------------


def test_fifty_identical_requests_execute_once(runner, tmp_path):
    """The headline single-flight contract: 50 concurrent identical
    requests → exactly 1 executed simulation, byte-identical responses
    to every subscriber, 49 coalesced."""
    gated = GatedRunner(runner)
    n = 50

    async def scenario(service, sockpath):
        sessions = [await connect(sockpath) for _ in range(n)]
        acks = []
        for reader, writer, _ in sessions:
            await send(writer, {"type": "submit", "kind": "simulate",
                                "spec": SIM_SPEC})
            ack, _ = await next_frame(reader)
            assert ack["type"] == "ack"
            acks.append(ack)
        # Every subscriber is attached and acked; only now may the one
        # execution complete.
        gated.gate.set()
        raw = []
        for reader, writer, _ in sessions:
            frame, line = await next_frame(reader)
            assert frame["type"] == "result"
            assert frame["kind"] == "simulate"
            raw.append(line)
            await close_writer(writer)
        return acks, raw

    acks, raw = serve(gated, scenario, tmp_path)

    assert gated.run_calls == 1
    assert gated.inner.report.jobs == 1  # the pool saw ONE job
    assert len(set(raw)) == 1  # same bytes to all fifty
    assert sum(1 for a in acks if a["coalesced"]) == n - 1
    assert len({a["key"] for a in acks}) == 1


def test_storm_stats_and_cache_population(runner, tmp_path):
    gated = GatedRunner(runner)

    async def scenario(service, sockpath):
        sessions = [await connect(sockpath) for _ in range(8)]
        for reader, writer, _ in sessions:
            await send(writer, {"type": "submit", "kind": "simulate",
                                "spec": SIM_SPEC})
            await next_frame(reader)  # ack
        gated.gate.set()
        for reader, writer, _ in sessions:
            await next_frame(reader)  # result
            await close_writer(writer)
        return dict(service.stats), len(service.cache)

    stats, cache_entries = serve(gated, scenario, tmp_path)
    assert stats["requests"] == 8
    assert stats["coalesced"] == 7
    assert stats["executed"] == 1
    assert stats["cache_served"] == 0
    assert cache_entries == 1  # the storm populated the shared cache


def test_disconnect_mid_stream_does_not_cancel_shared_flight(runner, tmp_path):
    """A subscriber hanging up detaches only itself: the flight finishes
    for the survivors and still populates the cache."""
    gated = GatedRunner(runner)

    async def scenario(service, sockpath):
        r1, w1, _ = await connect(sockpath)
        r2, w2, _ = await connect(sockpath)
        for reader, writer in ((r1, w1), (r2, w2)):
            await send(writer, {"type": "submit", "kind": "simulate",
                                "spec": SIM_SPEC})
            await next_frame(reader)  # ack
        # First subscriber rage-quits mid-flight.
        await close_writer(w1)
        await asyncio.sleep(0.05)  # let the server notice the hangup
        gated.gate.set()
        frame, _ = await next_frame(r2)
        await close_writer(w2)
        return frame, dict(service.stats), len(service.cache)

    frame, stats, cache_entries = serve(gated, scenario, tmp_path)
    assert frame["type"] == "result"
    assert gated.run_calls == 1
    assert stats["executed"] == 1
    assert cache_entries == 1


# -- the warm tier -----------------------------------------------------------


def test_warm_request_is_byte_identical_and_skips_pool(runner, tmp_path):
    async def scenario(service, sockpath):
        raw = []
        for _ in range(2):
            reader, writer, _ = await connect(sockpath)
            await send(writer, {"type": "submit", "kind": "simulate",
                                "spec": SIM_SPEC})
            await next_frame(reader)  # ack
            frame, line = await next_frame(reader)
            assert frame["type"] == "result"
            raw.append(line)
            await close_writer(writer)
        return raw, dict(service.stats)

    raw, stats = serve(runner, scenario, tmp_path)
    assert raw[0] == raw[1]  # warm response byte-identical to cold
    assert stats["executed"] == 1
    assert stats["cache_served"] == 1
    assert runner.report.jobs == 1  # the warm request never touched the pool


def test_distinct_requests_do_not_coalesce(runner, tmp_path):
    async def scenario(service, sockpath):
        reader, writer, _ = await connect(sockpath)
        for spec in (SIM_SPEC, OTHER_SPEC):
            await send(writer, {"type": "submit", "kind": "simulate",
                                "spec": spec})
            ack, _ = await next_frame(reader)
            assert ack["coalesced"] is False
            frame, _ = await next_frame(reader)
            assert frame["type"] == "result"
        await close_writer(writer)
        return dict(service.stats)

    stats = serve(runner, scenario, tmp_path)
    assert stats["coalesced"] == 0
    assert stats["executed"] == 2


def test_sweep_round_trip_matches_direct_execution(runner, tmp_path):
    """A sweep served over the wire equals the same jobs run through the
    local BatchRunner path (the figures-CLI execution path), byte for
    byte in canonical form."""
    from repro.service.protocol import canonical_dumps, jobs_for_request

    sweep = {"sims": [SIM_SPEC, OTHER_SPEC]}

    async def scenario(service, sockpath):
        reader, writer, _ = await connect(sockpath)
        await send(writer, {"type": "submit", "kind": "sweep", "spec": sweep})
        await next_frame(reader)  # ack
        frame, _ = await next_frame(reader)
        await close_writer(writer)
        return frame

    frame = serve(runner, scenario, tmp_path)
    assert frame["type"] == "result"

    local = BatchRunner(workers=1)
    try:
        jobs = jobs_for_request("sweep", sweep)
        results = local.run(jobs)
    finally:
        local.close()
    expected = [job.result_payload(r) for job, r in zip(jobs, results)]
    assert canonical_dumps(frame["payload"]) == canonical_dumps(expected)


def test_screen_request_round_trip(runner, tmp_path):
    spec = {
        "config": "2M4+2M2",
        "benchmarks": ["gzip", "twolf", "bzip2", "mcf"],
        "candidates": [[0, 1, 2, 3], [0, 2, 1, 3], [1, 0, 2, 3]],
        "final_target": 400,
        "min_target": 150,
        "trace_length": 2000,
    }

    async def scenario(service, sockpath):
        reader, writer, _ = await connect(sockpath)
        await send(writer, {"type": "submit", "kind": "screen", "spec": spec})
        await next_frame(reader)  # ack
        frame, _ = await next_frame(reader)
        await close_writer(writer)
        return frame

    frame = serve(runner, scenario, tmp_path)
    assert frame["type"] == "result"
    payload = frame["payload"]
    # The screen payload carries the winning mapping and its full run.
    assert "best" in payload or "mapping" in payload or payload


# -- admission control -------------------------------------------------------


def test_backpressure_rejects_beyond_max_queue(runner, tmp_path):
    gated = GatedRunner(runner)

    async def scenario(service, sockpath):
        reader, writer, _ = await connect(sockpath)
        # A starts executing (blocked on the gate), B fills the queue.
        await send(writer, {"type": "submit", "kind": "simulate",
                            "spec": SIM_SPEC})
        await next_frame(reader)  # ack A
        await asyncio.sleep(0.05)  # consumer pops A into execution
        r2, w2, _ = await connect(sockpath)
        await send(w2, {"type": "submit", "kind": "simulate",
                        "spec": OTHER_SPEC})
        await next_frame(r2)  # ack B (queued)
        # C is one too many: refused, retryable.
        r3, w3, _ = await connect(sockpath)
        await send(w3, {"type": "submit", "kind": "simulate",
                        "spec": THIRD_SPEC})
        refusal, _ = await next_frame(r3)
        # ...but attaching to B still works while the queue is full.
        r4, w4, _ = await connect(sockpath)
        await send(w4, {"type": "submit", "kind": "simulate",
                        "spec": OTHER_SPEC})
        ack4, _ = await next_frame(r4)
        gated.gate.set()
        results = []
        for r in (reader, r2, r4):
            frame, _ = await next_frame(r)
            results.append(frame["type"])
        for w in (writer, w2, w3, w4):
            await close_writer(w)
        return refusal, ack4, results, dict(service.stats)

    refusal, ack4, results, stats = serve(
        gated, scenario, tmp_path, max_queue=1
    )
    assert refusal["type"] == "error"
    assert refusal["retryable"] is True
    assert "queue full" in refusal["error"]
    assert ack4["coalesced"] is True
    assert results == ["result", "result", "result"]
    assert stats["rejected"] == 1


def test_submit_api_raises_typed_errors(runner, tmp_path):
    """The in-process admission API mirrors the wire errors."""
    gated = GatedRunner(runner)

    async def scenario(service, sockpath):
        service.submit("simulate", SIM_SPEC)
        await asyncio.sleep(0.05)  # flight moves into execution
        service.submit("simulate", OTHER_SPEC)  # fills queue (max 1)
        with pytest.raises(ServiceBusy):
            service.submit("simulate", THIRD_SPEC)
        with pytest.raises(ProtocolError):
            service.submit("simulate", {"config": "M8"})
        service.draining = True
        with pytest.raises(ServiceDraining):
            service.submit("simulate", THIRD_SPEC)
        service.draining = False
        gated.gate.set()
        # Let both flights land before teardown.
        while service._flights:
            await asyncio.sleep(0.02)

    serve(gated, scenario, tmp_path, max_queue=1)


# -- drain -------------------------------------------------------------------


def test_drain_completes_inflight_and_fails_queued(runner, tmp_path):
    """The graceful-drain contract: the in-flight execution finishes and
    publishes to its subscribers; queued flights fail retryable; new
    submissions are refused retryable."""
    gated = GatedRunner(runner)

    async def scenario(service, sockpath):
        r1, w1, _ = await connect(sockpath)
        await send(w1, {"type": "submit", "kind": "simulate",
                        "spec": SIM_SPEC})
        await next_frame(r1)  # ack A
        await asyncio.sleep(0.05)  # A executing (held at the gate)
        r2, w2, _ = await connect(sockpath)
        await send(w2, {"type": "submit", "kind": "simulate",
                        "spec": OTHER_SPEC})
        await next_frame(r2)  # ack B (queued)

        # Admin drain via the wire.
        rd, wd, _ = await connect(sockpath)
        await send(wd, {"type": "drain"})
        draining, _ = await next_frame(rd)
        assert draining["type"] == "draining"
        await close_writer(wd)

        queued_err, _ = await next_frame(r2)  # B fails fast, retryable
        refused = None
        for _ in range(100):
            await asyncio.sleep(0.01)
            if service.draining:
                r3, w3, _ = await connect(sockpath)
                await send(w3, {"type": "submit", "kind": "simulate",
                                "spec": THIRD_SPEC})
                refused, _ = await next_frame(r3)
                await close_writer(w3)
                break
        gated.gate.set()
        inflight, _ = await next_frame(r1)  # A still publishes
        for w in (w1, w2):
            await close_writer(w)
        return inflight, queued_err, refused, len(service.cache)

    inflight, queued_err, refused, cache_entries = serve(
        gated, scenario, tmp_path
    )
    assert inflight["type"] == "result"
    assert queued_err["type"] == "error"
    assert queued_err["retryable"] is True
    assert refused is not None
    assert refused["type"] == "error"
    assert refused["retryable"] is True
    assert cache_entries == 1  # the in-flight result was still persisted


def test_sigterm_fails_queued_flight_while_inflight_is_held(runner, tmp_path):
    """The daemon's SIGTERM drain (``_serve``): the queued flight fails
    retryable while the in-flight execution is still held at the gate
    and both clients keep their connections open. From Python 3.12.1
    ``Server.wait_closed`` waits for open connections, so a daemon that
    waited on them before draining the service ran the queued flight
    instead of failing it."""
    gated = GatedRunner(runner)
    service = ReproService(gated, cache=runner.cache, progress_interval=0.1)
    sockpath = str(tmp_path / "serve.sock")

    async def main():
        serving = asyncio.ensure_future(_serve(service, sockpath, "", None))
        writers = []
        try:
            # _serve binds and listens in one step: once the socket file
            # exists the daemon accepts.
            while not os.path.exists(sockpath):
                assert not serving.done()
                await asyncio.sleep(0)
            r1, w1, _ = await connect(sockpath)
            writers.append(w1)
            await send(w1, {"type": "submit", "kind": "simulate",
                            "spec": SIM_SPEC})
            await next_frame(r1)  # ack A
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, gated.started.wait, 60.0)
            r2, w2, _ = await connect(sockpath)
            writers.append(w2)
            await send(w2, {"type": "submit", "kind": "simulate",
                            "spec": OTHER_SPEC})
            queued_ack, _ = await next_frame(r2)
            signal.raise_signal(signal.SIGTERM)
            queued_err, _ = await asyncio.wait_for(next_frame(r2), 60.0)
            held = not gated.gate.is_set()
            gated.gate.set()
            inflight, _ = await next_frame(r1)
            for w in writers:
                await close_writer(w)
            await asyncio.wait_for(serving, 60.0)
            return queued_ack, queued_err, held, inflight
        finally:
            gated.gate.set()
            for w in writers:
                w.close()

    queued_ack, queued_err, held, inflight = asyncio.run(main())
    assert queued_ack["type"] == "ack"
    assert queued_err["type"] == "error"
    assert queued_err["retryable"] is True
    assert held  # failed before the in-flight execution was released
    assert inflight["type"] == "result"
    assert gated.run_calls == 1  # the queued flight never executed
    assert service.stats["executed"] == 1
    assert not os.path.exists(sockpath)


def test_drain_is_idempotent(runner, tmp_path):
    async def scenario(service, sockpath):
        await service.drain()
        await service.drain()
        assert service.draining is True

    serve(runner, scenario, tmp_path)


# -- session-level protocol behaviour ----------------------------------------


def test_bad_frames_and_bad_specs(runner, tmp_path):
    async def scenario(service, sockpath):
        # Unknown frame type: error, session survives.
        reader, writer, _ = await connect(sockpath)
        await send(writer, {"type": "teleport"})
        unknown, _ = await next_frame(reader)
        # Bad spec: error, session survives.
        await send(writer, {"type": "submit", "kind": "simulate",
                            "spec": {"config": "M8"}})
        badspec, _ = await next_frame(reader)
        await send(writer, {"type": "ping"})
        pong, _ = await next_frame(reader)
        await close_writer(writer)
        # Undecodable garbage: error, then the server ends the session.
        r2, w2, _ = await connect(sockpath)
        w2.write(b"{not json\n")
        await w2.drain()
        garbage, _ = await next_frame(r2)
        eof = await r2.readline()
        await close_writer(w2)
        return unknown, badspec, pong, garbage, eof, dict(service.stats)

    unknown, badspec, pong, garbage, eof, stats = serve(
        runner, scenario, tmp_path
    )
    assert unknown["type"] == "error" and not unknown["retryable"]
    assert badspec["type"] == "error" and not badspec["retryable"]
    assert pong["type"] == "pong"
    assert garbage["type"] == "error"
    assert eof == b""  # server closed after the garbage
    assert stats["bad_requests"] == 3
    assert stats["executed"] == 0  # nothing bad ever reached the pool


def test_status_reports_counters_and_run_report(runner, tmp_path):
    async def scenario(service, sockpath):
        reader, writer, _ = await connect(sockpath)
        await send(writer, {"type": "submit", "kind": "simulate",
                            "spec": SIM_SPEC})
        await next_frame(reader)  # ack
        await next_frame(reader)  # result
        await send(writer, {"type": "status"})
        status, _ = await next_frame(reader)
        await close_writer(writer)
        return status

    status = serve(runner, scenario, tmp_path)
    stats = status["stats"]
    assert stats["executed"] == 1
    assert stats["cache_entries"] == 1
    assert stats["report"]["jobs"] == 1
    assert stats["versions"]["protocol"] == 1
    assert stats["draining"] is False


# -- the synchronous client ---------------------------------------------------


def run_client(coro_less_fn, *args):
    """Run blocking ServiceClient work off the event loop thread."""
    return asyncio.get_running_loop().run_in_executor(
        None, coro_less_fn, *args
    )


def test_service_client_round_trip(runner, tmp_path):
    async def scenario(service, sockpath):
        def work():
            client = ServiceClient(socket_path=sockpath, timeout=60)
            assert client.ping()
            hello = client.hello()
            assert hello["versions"]["protocol"] == 1
            seen = []
            payload = client.submit("simulate", SIM_SPEC,
                                    on_progress=seen.append)
            first_text = client.last_payload_text
            again = client.submit("simulate", SIM_SPEC)
            assert payload == again
            assert client.last_payload_text == first_text
            status = client.status()
            with pytest.raises(ServiceRequestError) as err:
                client.submit("simulate", {"config": "M8"})
            assert err.value.retryable is False
            return status

        return await run_client(work)

    status = serve(runner, scenario, tmp_path)
    assert status["executed"] == 1
    assert status["cache_served"] == 1


def test_client_rejects_protocol_mismatch(runner, tmp_path, monkeypatch):
    import repro.service.client as client_mod

    async def scenario(service, sockpath):
        def work():
            monkeypatch.setattr(client_mod, "PROTOCOL_VERSION", 999)
            client = ServiceClient(socket_path=sockpath, timeout=10)
            with pytest.raises(ProtocolError, match="protocol mismatch"):
                client.hello()

        return await run_client(work)

    serve(runner, scenario, tmp_path)
