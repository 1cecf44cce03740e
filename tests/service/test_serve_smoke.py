"""End-to-end smoke of the real daemon: ``repro serve`` as a subprocess.

The in-process suite (test_server.py) pins the service semantics; this
one proves the shipped entry points compose — daemon process, unix
socket, ``repro submit`` / ``repro status`` CLI verbs, byte-identity
against the local execution path, and a drain — by SIGTERM or by a
client's ``drain`` frame — that exits cleanly with no orphaned pool
workers.  This is also what the ``make serve-smoke`` CI lane runs.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runner import BatchRunner
from repro.service import ServiceClient
from repro.service.protocol import canonical_dumps, jobs_for_request

SIM = {
    "config": "M8",
    "benchmarks": ["gzip", "twolf"],
    "mapping": [0, 0],
    "commit_target": 300,
    "trace_length": 2000,
    "seed": 0,
}
#: Three sims so the daemon's runner leaves inline mode and actually
#: spawns pool workers (the orphan check needs children to exist).
REFERENCE_SWEEP = {"sims": [SIM, dict(SIM, seed=1), dict(SIM, seed=2)]}


def _wait_for_socket(client, deadline=30.0):
    end = time.monotonic() + deadline
    last = None
    while time.monotonic() < end:
        try:
            if client.ping():
                return
        except (ConnectionError, OSError) as exc:
            last = exc
        time.sleep(0.1)
    raise TimeoutError(f"daemon never came up: {last}")


def _children(pid):
    """Live child pids of ``pid`` (the daemon's pool workers).

    Children are recorded against the *task* (thread) that forked them —
    the daemon forks its pool from the dispatch thread, not the main
    one — so every task's children file must be scanned.
    """
    kids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for task in tasks:
        try:
            text = open(f"/proc/{pid}/task/{task}/children").read()
        except OSError:
            continue
        kids.extend(int(p) for p in text.split())
    return kids


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _assert_clean_exit(proc, sock, workers):
    """The daemon exits 0, unlinks its socket, and leaves no pool
    worker of ``workers`` alive."""
    assert proc.wait(timeout=60) == 0
    assert not os.path.exists(sock)  # socket unlinked on the way out
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in workers):
        if time.monotonic() > deadline:
            raise AssertionError(f"orphaned pool workers: "
                                 f"{[p for p in workers if _alive(p)]}")
        time.sleep(0.1)


@pytest.fixture
def daemon(tmp_path):
    sock = str(tmp_path / "serve.sock")
    cache = str(tmp_path / "cache")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--cache", cache, "--jobs", "2", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    client = ServiceClient(socket_path=sock, timeout=120)
    try:
        _wait_for_socket(client)
        yield proc, client, sock
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def test_daemon_round_trip_and_graceful_drain(daemon, tmp_path):
    proc, client, sock = daemon

    # -- cold: the reference sweep through the service -----------------
    payload = client.submit("sweep", REFERENCE_SWEEP)
    service_text = client.last_payload_text
    assert isinstance(payload, list) and len(payload) == 3

    # -- byte-identity against the local execution path ----------------
    # (the same jobs through a local BatchRunner — the path the figures
    # CLI uses — must produce the identical canonical payload)
    local = BatchRunner(workers=1)
    try:
        jobs = jobs_for_request("sweep", REFERENCE_SWEEP)
        results = local.run(jobs)
    finally:
        local.close()
    local_text = canonical_dumps(
        [job.result_payload(r) for job, r in zip(jobs, results)]
    )
    assert service_text == local_text

    # -- warm: resubmission is cache-served and byte-identical ---------
    client.submit("sweep", REFERENCE_SWEEP)
    assert client.last_payload_text == service_text
    stats = client.status()
    assert stats["executed"] == 1
    assert stats["cache_served"] == 1
    assert stats["cache_entries"] == 3

    # -- the CLI verbs against the live daemon -------------------------
    request = json.dumps({"kind": "sweep", "spec": REFERENCE_SWEEP})
    out = subprocess.run(
        [sys.executable, "-m", "repro", "submit", "--socket", sock,
         "--request", request, "--quiet"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == service_text
    status_out = subprocess.run(
        [sys.executable, "-m", "repro", "status", "--socket", sock,
         "--porcelain"],
        capture_output=True, text=True, timeout=60,
    )
    assert status_out.returncode == 0, status_out.stderr
    assert json.loads(status_out.stdout)["cache_served"] == 2

    # -- SIGTERM: graceful drain, no orphaned pool workers -------------
    workers = _children(proc.pid)
    assert workers, "expected live pool workers before the drain"
    proc.send_signal(signal.SIGTERM)
    _assert_clean_exit(proc, sock, workers)


def test_wire_drain_stops_the_daemon(daemon):
    """A client's ``drain`` frame ends the daemon just like SIGTERM: no
    signal is sent, yet it exits 0 and takes its pool workers along."""
    proc, client, sock = daemon
    client.submit("sweep", REFERENCE_SWEEP)
    workers = _children(proc.pid)
    assert workers, "expected live pool workers before the drain"
    client.drain()
    _assert_clean_exit(proc, sock, workers)


def test_submit_against_dead_endpoint_is_retryable_exit(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "repro", "submit",
         "--socket", str(tmp_path / "nope.sock"),
         "--config", "M8", "gzip", "twolf", "--target", "300"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 3  # unreachable == retryable
    assert "cannot reach service" in out.stderr


def test_serve_requires_exactly_one_endpoint():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert "--socket or --port" in out.stderr
