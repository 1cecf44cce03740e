"""``repro serve`` / ``repro submit`` / ``repro status`` CLI bodies.

The daemon is the productionised entry point over
:class:`~repro.service.server.ReproService`: structured logging instead
of prints, a pid-owned listening endpoint (unix socket or loopback TCP),
signal-driven graceful drain (SIGTERM/SIGINT: the in-flight execution
finishes and publishes, queued requests get a retryable error, the pool
shuts down with no orphaned workers), and a result cache that always
exists — ``--cache`` / ``REPRO_RESULT_CACHE``, or a private temporary
directory so coalescing and the warm tier work even for a throwaway
instance.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import signal
import sys
import tempfile
from pathlib import Path
from typing import Optional

from repro.service.client import ServiceClient, ServiceRequestError
from repro.service.protocol import MAX_FRAME_BYTES, canonical_dumps
from repro.service.server import ReproService
from repro.settings import Settings

__all__ = ["run_serve", "run_submit", "run_status"]

logger = logging.getLogger(__name__)


def _configure_logging(quiet: bool) -> None:
    logging.basicConfig(
        level=logging.WARNING if quiet else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


async def _serve(service: ReproService, socket_path: Optional[str],
                 host: str, port: Optional[int]) -> None:
    """Accept until a termination signal or a client's ``drain`` frame,
    then drain gracefully."""
    await service.start()
    if socket_path is not None:
        # A stale socket file from a killed predecessor would fail bind.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(socket_path)
        server = await asyncio.start_unix_server(
            service.handle_connection, path=socket_path,
            limit=MAX_FRAME_BYTES,
        )
        endpoint = socket_path
    else:
        server = await asyncio.start_server(
            service.handle_connection, host=host, port=port,
            limit=MAX_FRAME_BYTES,
        )
        endpoint = f"{host}:{port}"
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    logger.info("repro serve listening on %s", endpoint)
    signalled = asyncio.ensure_future(stop.wait())
    drained = asyncio.ensure_future(service.wait_drained())
    try:
        await asyncio.wait((signalled, drained),
                           return_when=asyncio.FIRST_COMPLETED)
        if signalled.done():
            logger.info("termination signal: draining (in-flight finishes, "
                        "queued requests get a retryable error)")
        else:
            logger.info("drain requested by a client: shutting down")
    finally:
        signalled.cancel()
        drained.cancel()
        server.close()
        # Drain before waiting on connections: from Python 3.12.1 on,
        # wait_closed() waits for every open connection, and a client
        # whose flight is queued keeps its connection open until that
        # flight fails or lands.
        await service.close()
        await server.wait_closed()
        if socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(socket_path)
    logger.info("drained: %s", service.status())


def run_serve(args) -> int:
    """``repro serve`` entry point (argparse namespace in, status out)."""
    from repro.runner import BatchRunner

    _configure_logging(args.quiet)
    if (args.socket is None) == (args.port is None):
        print("error: give exactly one of --socket or --port",
              file=sys.stderr)
        return 2
    settings = Settings.from_env()
    cache_dir = args.cache or settings.result_cache
    own_cache_tmp = None
    if not cache_dir:
        # The warm tier and the idempotency contract need a cache; a
        # private one still serves this instance's repeat traffic.
        own_cache_tmp = tempfile.TemporaryDirectory(prefix="repro-serve-cache-")
        cache_dir = own_cache_tmp.name
        logger.info("no result cache configured; using private %s "
                    "(set --cache/REPRO_RESULT_CACHE to share across "
                    "instances)", cache_dir)
    runner = BatchRunner(
        workers=args.jobs,
        cache_dir=cache_dir,
        queue_dir=args.queue,
    )
    service = ReproService(
        runner,
        cache=runner.cache,
        max_queue=args.max_queue,
        progress_interval=args.progress_interval,
    )
    try:
        asyncio.run(_serve(service, args.socket, args.host, args.port))
    finally:
        # The drain already let the in-flight batch finish; closing the
        # runner shuts the supervised pool down (no orphaned workers).
        runner.close()
        if own_cache_tmp is not None:
            own_cache_tmp.cleanup()
    return 0


def _parse_request(args) -> tuple:
    """(kind, spec) from ``repro submit`` flags or ``--request`` JSON."""
    if args.request:
        text = args.request
        if text.startswith("@"):
            text = Path(text[1:]).read_text()
        payload = json.loads(text)
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError("request JSON must be an object with "
                             "'kind' and 'spec'")
        return str(payload["kind"]), payload.get("spec")
    if not args.benchmarks:
        raise ValueError("give benchmark names (or --request JSON)")
    mapping = (
        [int(t) for t in args.mapping.split(",")]
        if args.mapping
        else [0] * len(args.benchmarks)
    )
    spec = {
        "config": args.config,
        "benchmarks": list(args.benchmarks),
        "mapping": mapping,
        "commit_target": args.target,
        "seed": args.seed,
    }
    if args.trace_length is not None:
        spec["trace_length"] = args.trace_length
    return "simulate", spec


def _client(args) -> ServiceClient:
    return ServiceClient(
        socket_path=args.socket, host=args.host, port=args.port,
        timeout=args.timeout,
    )


def run_submit(args) -> int:
    """``repro submit``: one request in, canonical payload JSON out."""
    _configure_logging(quiet=True)
    try:
        kind, spec = _parse_request(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(frame: dict) -> None:
        if not args.quiet:
            print(
                f"[{frame.get('state')}] {frame.get('elapsed')}s",
                file=sys.stderr,
            )

    client = _client(args)
    try:
        client.submit(kind, spec, on_progress=progress)
    except ServiceRequestError as exc:
        kindword = "retryable" if exc.retryable else "permanent"
        print(f"error ({kindword}): {exc}", file=sys.stderr)
        return 3 if exc.retryable else 1
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach service: {exc}", file=sys.stderr)
        return 3
    # The canonical payload text, byte-identical to what the server
    # rendered — the smoke lane diffs this against the CLI-path bytes.
    print(client.last_payload_text)
    return 0


def run_status(args) -> int:
    """``repro status``: the server's counters + run report as JSON."""
    _configure_logging(quiet=True)
    client = _client(args)
    try:
        stats = client.status()
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach service: {exc}", file=sys.stderr)
        return 3
    print(canonical_dumps(stats) if args.porcelain
          else json.dumps(stats, indent=2, sort_keys=True))
    return 0
