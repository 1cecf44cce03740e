"""The versioned wire protocol of the simulation service.

One frame = one JSON object on one line (newline-delimited JSON), always
encoded *canonically* — sorted keys, compact separators — so a given
message has exactly one byte representation.  That is a correctness
feature, not a nicety: the server caches a flight's encoded response and
hands the same bytes to every coalesced subscriber, and a warm (cache
served) response must be byte-identical to the cold execution that
populated it.

Client → server frames::

    {"type": "submit", "kind": "simulate"|"sweep"|"screen",
     "spec": {...}, "id": "<client tag, optional>"}
    {"type": "status"}        server counters + run report
    {"type": "ping"}          liveness probe
    {"type": "drain"}         begin graceful drain (admin)

Server → client frames::

    {"type": "hello", "versions": {...}}          on connect
    {"type": "ack", "key": ..., "coalesced": ...} request accepted
    {"type": "progress", "state": ..., ...}       heartbeat while waiting
    {"type": "result", "key": ..., "payload": ...}
    {"type": "error", "error": ..., "retryable": ...}
    {"type": "pong"} / {"type": "status", "stats": {...}}

Requests carry *serialized jobs, not code*: a ``spec`` is a plain-JSON
description that maps onto the runner's :class:`~repro.runner.jobs.Job`
protocol (:func:`jobs_for_request`), and the response payload is the
same canonical :func:`~repro.runner.cache.sim_result_payload` shape the
result cache stores.  Request identity (:func:`request_key`) is the
SHA-256 of the jobs' own ``cache_key_fields()`` salted with the
protocol, engine and packed-trace format versions — exactly the salting
discipline of the result cache, so a request key can never alias across
engine revisions, and two spellings of the same request (list vs tuple,
key order) coalesce onto one key.
"""

from __future__ import annotations

import asyncio
import json
from hashlib import sha256
from typing import List, Optional, Sequence

from repro.runner import cache as _cache
from repro.runner.jobs import SimJob
from repro.runner.screening import ScreenJob
from repro.trace import packed as _packed

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "canonical_dumps",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "version_banner",
    "jobs_for_request",
    "request_key",
    "response_payload",
    "REQUEST_KINDS",
]

#: Bump on any incompatible frame/spec change; both request keys and the
#: connect-time hello carry it, so mismatched peers fail loudly and a
#: protocol change can never serve a stale coalesced response.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's encoded size (a sweep response carries one
#: ``sim_result_payload`` per simulation; 16 MiB is orders of magnitude
#: above any real sweep and merely stops a garbage peer from ballooning
#: the read buffer).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: The request kinds the service accepts.
REQUEST_KINDS = ("simulate", "sweep", "screen")


class ProtocolError(ValueError):
    """A malformed frame or request spec (client error, not retryable)."""


# -- framing ---------------------------------------------------------------


def canonical_dumps(obj) -> str:
    """The one true JSON encoding (sorted keys, compact separators).

    Everything byte-sensitive — frames, response payloads, request-key
    material — goes through here, so byte identity follows from value
    identity.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_frame(message: dict) -> bytes:
    """One frame: canonical JSON + newline."""
    return canonical_dumps(message).encode() + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one received line into a frame dict."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError("frame must be an object with a string 'type'")
    return frame


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """The next frame from an asyncio stream, or None at EOF."""
    try:
        line = await reader.readline()
    except ValueError:  # stream limit overrun: unframeable garbage
        raise ProtocolError(
            f"frame exceeds the {MAX_FRAME_BYTES}-byte limit"
        ) from None
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated frame (connection lost mid-line)")
    return decode_frame(line)


def version_banner() -> dict:
    """The version tuple both the hello frame and request keys carry."""
    return {
        "protocol": PROTOCOL_VERSION,
        "engine": _cache.ENGINE_VERSION,
        "trace_format": _packed.PACK_FORMAT_VERSION,
    }


# -- request specs → jobs --------------------------------------------------


def _require(spec: dict, key: str):
    try:
        return spec[key]
    except KeyError:
        raise ProtocolError(f"spec missing required field {key!r}") from None


def _check_unknown(spec: dict, allowed: frozenset, what: str) -> None:
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ProtocolError(f"unknown {what} field(s): {sorted(unknown)}")


_SIM_FIELDS = frozenset(
    {
        "config",
        "benchmarks",
        "mapping",
        "commit_target",
        "trace_length",
        "warmup",
        "max_cycles",
        "seed",
    }
)

_SCREEN_FIELDS = frozenset(
    {
        "config",
        "benchmarks",
        "candidates",
        "final_target",
        "rounds",
        "keep",
        "top_fraction",
        "min_survivors",
        "min_target",
        "trace_length",
        "seed",
        "full_target",
        "extra_fulls",
    }
)


def _opt_int(spec: dict, key: str) -> Optional[int]:
    value = spec.get(key)
    return None if value is None else int(value)


def sim_job_from_spec(spec: dict) -> SimJob:
    """One ``simulate`` spec → :class:`~repro.runner.jobs.SimJob`.

    Only string configuration names travel over the wire (serialized
    jobs, not code): the server resolves them against its own registry.
    """
    if not isinstance(spec, dict):
        raise ProtocolError("simulate spec must be an object")
    _check_unknown(spec, _SIM_FIELDS, "simulate spec")
    config = _require(spec, "config")
    if not isinstance(config, str):
        raise ProtocolError("spec 'config' must be a configuration name")
    try:
        return SimJob(
            config=config,
            benchmarks=tuple(str(b) for b in _require(spec, "benchmarks")),
            mapping=tuple(int(t) for t in _require(spec, "mapping")),
            commit_target=int(_require(spec, "commit_target")),
            trace_length=_opt_int(spec, "trace_length"),
            warmup=bool(spec.get("warmup", True)),
            max_cycles=_opt_int(spec, "max_cycles"),
            seed=int(spec.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad simulate spec: {exc}") from None


def screen_job_from_spec(spec: dict) -> ScreenJob:
    """One ``screen`` spec → :class:`~repro.runner.screening.ScreenJob`."""
    if not isinstance(spec, dict):
        raise ProtocolError("screen spec must be an object")
    _check_unknown(spec, _SCREEN_FIELDS, "screen spec")
    config = _require(spec, "config")
    if not isinstance(config, str):
        raise ProtocolError("spec 'config' must be a configuration name")
    try:
        return ScreenJob(
            config=config,
            benchmarks=tuple(str(b) for b in _require(spec, "benchmarks")),
            candidates=tuple(
                tuple(int(t) for t in m) for m in _require(spec, "candidates")
            ),
            final_target=int(_require(spec, "final_target")),
            rounds=int(spec.get("rounds", 1)),
            keep=float(spec.get("keep", 0.5)),
            top_fraction=float(spec.get("top_fraction", 0.5)),
            min_survivors=int(spec.get("min_survivors", 3)),
            min_target=int(spec.get("min_target", 150)),
            trace_length=_opt_int(spec, "trace_length"),
            seed=int(spec.get("seed", 0)),
            full_target=_opt_int(spec, "full_target"),
            extra_fulls=tuple(
                tuple(int(t) for t in m) for m in spec.get("extra_fulls", ())
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad screen spec: {exc}") from None


def jobs_for_request(kind: str, spec) -> List:
    """Deserialize one request into its runner jobs.

    ``simulate`` and ``screen`` are one job each; ``sweep`` is an ordered
    list of simulate specs (``{"sims": [...]}``) executed as one batch,
    so the shared runner parallelizes across the request exactly as the
    figures CLI does.
    """
    if kind == "simulate":
        return [sim_job_from_spec(spec)]
    if kind == "screen":
        return [screen_job_from_spec(spec)]
    if kind == "sweep":
        if not isinstance(spec, dict):
            raise ProtocolError("sweep spec must be an object")
        _check_unknown(spec, frozenset({"sims"}), "sweep spec")
        sims = _require(spec, "sims")
        if not isinstance(sims, list) or not sims:
            raise ProtocolError("sweep spec 'sims' must be a non-empty list")
        return [sim_job_from_spec(s) for s in sims]
    raise ProtocolError(
        f"unknown request kind {kind!r} (expected one of {REQUEST_KINDS})"
    )


def request_key(kind: str, jobs: Sequence) -> str:
    """Single-flight / idempotency identity of one request.

    Hashes the jobs' own cache-key fields under the version salts, so a
    request key changes exactly when the cached results it would read
    change — the coalescing tier and the result cache can never disagree
    about what "identical" means.
    """
    desc = canonical_dumps(
        {
            **version_banner(),
            "kind": kind,
            "jobs": [job.cache_key_fields() for job in jobs],
        }
    )
    return sha256(desc.encode()).hexdigest()


def response_payload(kind: str, jobs: Sequence, results: Sequence):
    """The response payload for one executed request: each result in its
    canonical cache shape (``sim_result_payload`` / the screen payload),
    a single object for single-job kinds, an ordered list for sweeps."""
    payloads = [job.result_payload(r) for job, r in zip(jobs, results)]
    return payloads if kind == "sweep" else payloads[0]
