"""The persistent simulation service: asyncio front end, one shared pool.

:class:`ReproService` is the long-lived layer the ``repro serve`` daemon
runs: it accepts :mod:`~repro.service.protocol` requests over any number
of client connections, executes them on **one** shared
:class:`~repro.runner.batch.BatchRunner` (the supervised pool), and streams
progress plus the final canonical payload back.  Four tiers keep repeat
traffic off the simulator:

1. **single-flight coalescing** — requests are keyed by
   :func:`~repro.service.protocol.request_key`; N concurrent identical
   requests attach to one in-flight :class:`Flight` and every subscriber
   receives the *same encoded bytes* (the response is rendered once per
   flight, not once per client).
2. **rendered-frame cache** — a bounded LRU of canonical response
   frames keyed by flight key.  A repeat request whose frame is resident
   is answered with the exact bytes the first asker received.  The
   lookup still parses the spec into jobs and hashes the request key
   (:func:`~repro.service.protocol.request_key`, SHA-256), but a hit
   skips the per-job result-cache keys, the disk, the response
   rendering and the dispatch-thread hop (sized by
   ``REPRO_MEM_CACHE_MB``; counted as ``cache_served`` + ``frame_served``).
3. **shared result cache on disk** — a new flight first reads every job
   through the runner's :class:`~repro.runner.cache.ResultCache`; a
   fully warm request is served without touching the pool at all.
4. **the pool itself** — cold jobs execute through ``runner.run`` with
   all of its supervision (retry, timeout, respawn, inline
   degradation), populating the cache for every later tenant.

Admission is bounded: at most ``max_queue`` flights may wait behind the
executing one, and requests beyond that are refused with a *retryable*
error frame (backpressure, not collapse).  Graceful drain
(:meth:`ReproService.drain`, wired to SIGTERM by the daemon) lets the
in-flight execution finish and publishes its result, fails every queued
flight with a retryable error, and refuses new work — so a restarting
client loses nothing but time, and the pool shuts down with no orphaned
worker processes.

A client that disconnects mid-stream only detaches its own subscription;
the flight (and the execution underneath it) continues for the
remaining subscribers and still populates the cache for the next asker.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Tuple

from repro.service.protocol import (
    ProtocolError,
    encode_frame,
    jobs_for_request,
    read_frame,
    request_key,
    response_payload,
    version_banner,
)
from repro.settings import Settings

__all__ = [
    "Flight",
    "ReproService",
    "ServiceBusy",
    "ServiceDraining",
    "ServiceError",
]

logger = logging.getLogger(__name__)

class ServiceError(Exception):
    """An admission/execution failure reported to the client as an error
    frame; ``retryable`` tells the client whether resubmitting later can
    succeed (queue pressure, drain) or not (a bad request, a job that
    exhausted its attempt budget)."""

    retryable = False


class ServiceBusy(ServiceError):
    """The bounded request queue is full (backpressure)."""

    retryable = True


class ServiceDraining(ServiceError):
    """The service is draining (SIGTERM); resubmit to the next instance."""

    retryable = True


class Flight:
    """One in-flight request and everyone attached to it.

    The flight owns the response: ``response_bytes`` is the fully encoded
    result frame, rendered exactly once, so every subscriber — original
    or coalesced — writes identical bytes.  ``error`` carries a failure
    instead; ``done`` releases all waiters either way.
    """

    __slots__ = (
        "key",
        "kind",
        "jobs",
        "done",
        "response_bytes",
        "error",
        "retryable",
        "source",
        "subscribers",
        "state",
        "created",
        "started",
        "seconds",
    )

    def __init__(self, key: str, kind: str, jobs: List) -> None:
        self.key = key
        self.kind = kind
        self.jobs = jobs
        self.done = asyncio.Event()
        self.response_bytes: Optional[bytes] = None
        self.error: Optional[str] = None
        self.retryable = False
        self.source: Optional[str] = None
        self.subscribers = 1
        self.state = "queued"
        self.created = time.monotonic()
        self.started: Optional[float] = None
        self.seconds: Optional[float] = None

    def fail(self, error: str, retryable: bool) -> None:
        self.error = error
        self.retryable = retryable
        self.state = "failed"
        self.done.set()


class ReproService:
    """The serving layer over one shared :class:`BatchRunner`.

    Parameters
    ----------
    runner:
        The long-lived :class:`~repro.runner.batch.BatchRunner` every
        flight executes on.  The service serializes executions through a
        single dispatch thread (the runner parallelizes *inside* a
        batch), so the runner needs no thread safety of its own.
    cache:
        The shared :class:`~repro.runner.cache.ResultCache` consulted
        before the pool; normally ``runner.cache``.  ``None`` disables
        the warm tier (every flight executes) but keeps coalescing.
    max_queue:
        Bound on flights waiting behind the executing one; submissions
        beyond it are refused with :class:`ServiceBusy`.
    progress_interval:
        Seconds between progress heartbeats to waiting subscribers.
    frame_cache_mb:
        Budget for the rendered-frame LRU (tier 2 of the docstring's
        ladder).  ``None`` reads ``REPRO_MEM_CACHE_MB`` (default 64 MB);
        ``0`` disables the tier (every repeat request re-keys through
        the result cache).
    """

    def __init__(
        self,
        runner,
        cache=None,
        max_queue: int = 64,
        progress_interval: float = 1.0,
        frame_cache_mb: Optional[float] = None,
    ) -> None:
        self.runner = runner
        self.cache = cache
        self.max_queue = max(1, int(max_queue))
        self.progress_interval = progress_interval
        if frame_cache_mb is None:
            frame_cache_mb = Settings.from_env().mem_cache_mb
        self.frame_budget_bytes = int(max(0.0, float(frame_cache_mb)) * 1024 * 1024)
        self._frames: "OrderedDict[str, bytes]" = OrderedDict()
        self._frame_bytes = 0
        self._flights: Dict[str, Flight] = {}
        self._backlog: Deque[Flight] = deque()
        self._wake = asyncio.Event()
        self._consumer: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-exec"
        )
        self.draining = False
        self._drained = asyncio.Event()
        self._started = time.monotonic()
        self.stats = {
            "connections": 0,
            "requests": 0,
            "coalesced": 0,
            "cache_served": 0,
            "frame_served": 0,
            "executed": 0,
            "rejected": 0,
            "bad_requests": 0,
            "failures": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the flight consumer (call once, from the event loop)."""
        if self._consumer is None:
            self._consumer = asyncio.create_task(self._consume())

    async def drain(self) -> None:
        """Graceful shutdown: finish the in-flight execution, fail every
        queued flight with a retryable error, refuse new submissions.
        Idempotent; returns once the last execution has published."""
        self.draining = True
        while self._backlog:
            flight = self._backlog.popleft()
            self._flights.pop(flight.key, None)
            flight.fail("service is draining; retry against the next "
                        "instance", retryable=True)
        self._wake.set()
        if self._consumer is not None:
            await self._drained.wait()
        self._executor.shutdown(wait=True)

    async def wait_drained(self) -> None:
        """Return once a drain, started by anyone, has finished the
        last execution (the daemon's cue to shut down after a client's
        ``drain`` frame)."""
        await self._drained.wait()

    async def close(self) -> None:
        """Drain, then stop the consumer task (the daemon's last step
        before closing the runner)."""
        await self.drain()
        if self._consumer is not None:
            self._consumer.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._consumer
            self._consumer = None

    # -- admission ---------------------------------------------------------

    def submit(self, kind: str, spec) -> Tuple[Flight, bool]:
        """Admit one request: returns ``(flight, coalesced)``.

        Raises :class:`ProtocolError` for a bad spec,
        :class:`ServiceDraining` / :class:`ServiceBusy` for admission
        refusals — queued and running flights still accept subscribers
        in both cases, because attaching costs nothing.
        """
        self.stats["requests"] += 1
        jobs = jobs_for_request(kind, spec)
        key = request_key(kind, jobs)
        flight = self._flights.get(key)
        if flight is not None:
            flight.subscribers += 1
            self.stats["coalesced"] += 1
            return flight, True
        if self.draining:
            raise ServiceDraining("service is draining")
        frame = self._frame_get(key)
        if frame is not None:
            # Rendered-frame hit: hand back a pre-landed flight carrying
            # the exact bytes the first asker received — no result-cache
            # keying, no dispatch-thread hop, never enters the table.
            flight = Flight(key, kind, jobs)
            flight.response_bytes = frame
            flight.source = "frame"
            flight.state = "done"
            flight.seconds = 0.0
            flight.done.set()
            self.stats["cache_served"] += 1
            self.stats["frame_served"] += 1
            return flight, False
        if len(self._backlog) >= self.max_queue:
            self.stats["rejected"] += 1
            raise ServiceBusy(
                f"request queue full ({self.max_queue} flights waiting)"
            )
        flight = Flight(key, kind, jobs)
        self._flights[key] = flight
        self._backlog.append(flight)
        self._wake.set()
        return flight, False

    # -- the rendered-frame tier -------------------------------------------

    def _frame_get(self, key: str) -> Optional[bytes]:
        frame = self._frames.get(key)
        if frame is not None:
            self._frames.move_to_end(key)
        return frame

    def _frame_put(self, key: str, frame: bytes) -> None:
        if len(frame) > self.frame_budget_bytes:
            return
        old = self._frames.pop(key, None)
        if old is not None:
            self._frame_bytes -= len(old)
        self._frames[key] = frame
        self._frame_bytes += len(frame)
        while self._frame_bytes > self.frame_budget_bytes and self._frames:
            _, evicted = self._frames.popitem(last=False)
            self._frame_bytes -= len(evicted)

    # -- execution ---------------------------------------------------------

    async def _consume(self) -> None:
        """FIFO flight executor: one execution at a time on the dispatch
        thread (the runner fans out *within* each batch)."""
        loop = asyncio.get_running_loop()
        while True:
            while not self._backlog:
                if self.draining:
                    self._drained.set()
                    return
                self._wake.clear()
                await self._wake.wait()
            flight = self._backlog.popleft()
            flight.state = "running"
            flight.started = time.monotonic()
            try:
                results, source = await loop.run_in_executor(
                    self._executor, self._execute, flight
                )
            except Exception as exc:  # noqa: BLE001 - reported to clients
                self.stats["failures"] += 1
                self._flights.pop(flight.key, None)
                flight.seconds = time.monotonic() - flight.started
                logger.warning(
                    "flight %s failed after %.2fs: %s: %s",
                    flight.key[:12], flight.seconds,
                    type(exc).__name__, exc,
                )
                flight.fail(f"{type(exc).__name__}: {exc}", retryable=False)
                continue
            flight.source = source
            flight.seconds = time.monotonic() - flight.started
            payload = response_payload(flight.kind, flight.jobs, results)
            flight.response_bytes = encode_frame(
                {
                    "type": "result",
                    "key": flight.key,
                    "kind": flight.kind,
                    "payload": payload,
                }
            )
            self.stats["cache_served" if source == "cache" else "executed"] += 1
            self._frame_put(flight.key, flight.response_bytes)
            # Completed flights leave the table: the next identical
            # request opens a new flight and is served by the frame or
            # result-cache warm tier.
            self._flights.pop(flight.key, None)
            flight.state = "done"
            flight.done.set()
            logger.info(
                "flight %s (%s, %d job(s), %d subscriber(s)) served from "
                "%s in %.3fs",
                flight.key[:12], flight.kind, len(flight.jobs),
                flight.subscribers, source, flight.seconds,
            )

    def _execute(self, flight: Flight):
        """Dispatch-thread body: warm tier first, then the shared pool."""
        if self.cache is not None:
            hits = [self.cache.get(job) for job in flight.jobs]
            if all(hit is not None for hit in hits):
                return hits, "cache"
        return self.runner.run(flight.jobs), "pool"

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        report = getattr(self.runner, "report", None)
        return {
            "versions": version_banner(),
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "draining": self.draining,
            "queued_flights": len(self._backlog),
            "open_flights": len(self._flights),
            **self.stats,
            "runner_jobs": getattr(self.runner, "jobs_run", None),
            "frame_entries": len(self._frames),
            "frame_bytes": self._frame_bytes,
            "cache_entries": len(self.cache) if self.cache is not None else None,
            "report": report.as_dict() if report is not None else None,
        }

    # -- the connection handler --------------------------------------------

    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One client session: hello, then frames until EOF.  Raised
        connection errors detach only this subscriber — never the
        flight."""
        self.stats["connections"] += 1
        try:
            writer.write(
                encode_frame({"type": "hello", "server": "repro-serve",
                              "versions": version_banner()})
            )
            await writer.drain()
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    self.stats["bad_requests"] += 1
                    await self._send(
                        writer,
                        {"type": "error", "error": str(exc),
                         "retryable": False},
                    )
                    return
                if frame is None:
                    return
                if not await self._dispatch(frame, writer):
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; flights keep flying
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(encode_frame(message))
        await writer.drain()

    async def _send_raw(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(data)
        await writer.drain()

    async def _dispatch(self, frame: dict, writer) -> bool:
        """Handle one frame; False ends the session (drain request)."""
        ftype = frame["type"]
        req_id = frame.get("id")
        if ftype == "ping":
            await self._send(writer, {"type": "pong"})
            return True
        if ftype == "status":
            await self._send(writer, {"type": "status",
                                      "stats": self.status()})
            return True
        if ftype == "drain":
            await self._send(writer, {"type": "draining"})
            # The daemon's signal path calls drain() too; from a client
            # frame it runs as a task so this session can end cleanly.
            asyncio.ensure_future(self.drain())
            return False
        if ftype == "submit":
            await self._handle_submit(frame, writer, req_id)
            return True
        self.stats["bad_requests"] += 1
        await self._send(
            writer,
            {"type": "error", "error": f"unknown frame type {ftype!r}",
             "retryable": False, "id": req_id},
        )
        return True

    async def _handle_submit(self, frame: dict, writer, req_id) -> None:
        try:
            flight, coalesced = self.submit(
                str(frame.get("kind")), frame.get("spec")
            )
        except ProtocolError as exc:
            self.stats["bad_requests"] += 1
            await self._send(
                writer,
                {"type": "error", "error": str(exc), "retryable": False,
                 "id": req_id},
            )
            return
        except ServiceError as exc:
            await self._send(
                writer,
                {"type": "error", "error": str(exc),
                 "retryable": exc.retryable, "id": req_id},
            )
            return
        await self._send(
            writer,
            {"type": "ack", "key": flight.key, "coalesced": coalesced,
             "id": req_id},
        )
        await self._stream_flight(flight, writer, req_id)

    async def _stream_flight(self, flight: Flight, writer, req_id) -> None:
        """Progress heartbeats until the flight lands, then the shared
        response bytes (or this flight's error)."""
        while not flight.done.is_set():
            try:
                await asyncio.wait_for(
                    flight.done.wait(), timeout=self.progress_interval
                )
                break
            except asyncio.TimeoutError:
                anchor = flight.started or flight.created
                await self._send(
                    writer,
                    {
                        "type": "progress",
                        "key": flight.key,
                        "state": flight.state,
                        "elapsed": round(time.monotonic() - anchor, 3),
                        "id": req_id,
                    },
                )
        if flight.response_bytes is not None:
            await self._send_raw(writer, flight.response_bytes)
        else:
            await self._send(
                writer,
                {"type": "error",
                 "error": flight.error or "flight failed",
                 "retryable": flight.retryable, "id": req_id},
            )
