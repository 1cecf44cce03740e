"""PR 8 snapshot (``BENCH_0008.json``): the simulation service.

The service's hard guarantees are behavioural — byte-identical warm/
cold/coalesced responses, exactly-one execution under a concurrent
identical storm, orphan-free SIGTERM drain — pinned deterministically
by ``tests/service/``.  The numbers that matter here are the serving
economics against a real ``repro serve`` daemon over a unix socket:

* **cold vs warm latency** — the first request for a sweep pays for the
  simulation; every later identical request (any tenant) is served from
  the shared sharded ``ResultCache`` without touching the pool;
* **warm requests/sec** — the daemon's throughput ceiling for repeat
  traffic (connect + frame round trip + cache read per request);
* **the coalescing storm** — 50 concurrent identical cold requests,
  asserted to execute exactly one simulation (49 coalesced) with every
  response byte-identical.

The snapshot also carries the standard **perf-gate reference** section
(fixed ``GATE_SCALE``, same shape and methodology as BENCH_0007's; the
gate sweep runs the local supervised path, so it keeps measuring the
engine, not the service).  ``benchmarks/perf_gate.py`` reads its
*fresh* gate reference from a newer snapshot; this section remains the
committed historical record.  Sections written by other benches are preserved —
merge, never clobber.
"""

import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

from test_simulator_throughput import (
    GATE_SCALE,
    GATE_SINGLE_TARGET,
    GATE_WORKERS,
    SWEEP_CONFIGS,
    SWEEP_SCALE,
    SWEEP_WORKLOADS,
    seed_baseline_cycles_per_second,
)

from repro.core.config import get_config
from repro.core.engine import Processor, clear_warm_cache
from repro.runner import BatchRunner
from repro.service import ServiceClient
from repro.trace.stream import clear_trace_cache, trace_for

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(_REPO_ROOT / "src")
SERVICE_SNAPSHOT = _REPO_ROOT / "BENCH_0008.json"

#: The reference request: the sweep every tenant asks for (three
#: distinct sims so the daemon's runner actually exercises a batch).
_SIM = {
    "config": "M8",
    "benchmarks": ["gzip", "twolf", "bzip2", "mcf"],
    "mapping": [0, 0, 0, 0],
    "commit_target": 2000,
}
REFERENCE_SWEEP = {"sims": [dict(_SIM, seed=s) for s in range(3)]}

#: Warm-tier throughput sample size (sequential identical submits).
WARM_REQUESTS = 50

#: The storm: concurrent identical *cold* requests.  The request's
#: execution takes orders of magnitude longer than the 50 submissions,
#: so every subscriber attaches to the first flight.
STORM_CLIENTS = 50
STORM_SPEC = {
    "config": "2M4+2M2",
    "benchmarks": ["gzip", "twolf", "bzip2", "mcf"],
    "mapping": [0, 2, 1, 3],
    "commit_target": 20000,
    "seed": 77,
}


def _start_daemon(tmp_path):
    sock = str(tmp_path / "serve.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--cache", str(tmp_path / "cache"), "--jobs", "2",
         "--max-queue", str(2 * STORM_CLIENTS), "--quiet"],
        env=dict(os.environ, PYTHONPATH=_SRC),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(socket_path=sock, timeout=300)
    deadline = time.monotonic() + 60
    while True:
        try:
            client.ping()
            return proc, client, sock
        except (ConnectionError, OSError):
            if time.monotonic() > deadline:
                proc.terminate()
                raise
            time.sleep(0.1)


def test_service_latency(tmp_path):
    """Cold/warm latency and warm requests/sec against a live daemon,
    the 50-client coalescing storm, and the perf-gate reference."""
    proc, client, sock = _start_daemon(tmp_path)
    try:
        # --- cold: the first tenant pays for the simulation --------------
        t0 = time.perf_counter()
        client.submit("sweep", REFERENCE_SWEEP)
        cold_seconds = time.perf_counter() - t0
        reference_text = client.last_payload_text

        # --- warm: every later identical request is cache-served ---------
        warm_times = []
        t_all = time.perf_counter()
        for _ in range(WARM_REQUESTS):
            t0 = time.perf_counter()
            client.submit("sweep", REFERENCE_SWEEP)
            warm_times.append(time.perf_counter() - t0)
            assert client.last_payload_text == reference_text
        warm_wall = time.perf_counter() - t_all
        warm_rps = WARM_REQUESTS / warm_wall

        stats = client.status()
        assert stats["executed"] == 1
        assert stats["cache_served"] == WARM_REQUESTS

        # --- the coalescing storm ----------------------------------------
        barrier = threading.Barrier(STORM_CLIENTS)
        texts = [None] * STORM_CLIENTS
        errors = []

        def tenant(i):
            c = ServiceClient(socket_path=sock, timeout=300)
            barrier.wait()
            try:
                c.submit("simulate", STORM_SPEC)
                texts[i] = c.last_payload_text
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=tenant, args=(i,))
                   for i in range(STORM_CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        storm_seconds = time.perf_counter() - t0
        assert not errors, errors
        assert len(set(texts)) == 1  # byte-identical responses, all 50

        storm_stats = client.status()
        storm_executed = storm_stats["executed"] - stats["executed"]
        storm_coalesced = storm_stats["coalesced"] - stats["coalesced"]
        assert storm_executed == 1  # the storm cost ONE simulation
        assert storm_coalesced == STORM_CLIENTS - 1
    finally:
        proc.terminate()
        proc.wait(timeout=60)

    # --- perf-gate reference (always, fixed scale) -----------------------
    from repro.experiments.performance import (
        clear_result_cache,
        run_performance_experiment,
    )
    from repro.experiments.scale import ExperimentScale

    def single_sim(config_name, mapping, commit_target, rounds=5):
        cfg = get_config(config_name)
        traces = [trace_for(b, 6000)
                  for b in ("gzip", "twolf", "bzip2", "mcf")]
        best = None
        cycles = 0
        for _ in range(rounds):
            p = Processor(cfg, traces, mapping, commit_target=commit_target)
            p.warm()
            t0 = time.perf_counter()
            p.run()
            dt = time.perf_counter() - t0
            cycles = p.cycle
            if best is None or dt < best:
                best = dt
        return round(cycles / best)

    gate_scale = ExperimentScale(**SWEEP_SCALE).scaled(GATE_SCALE)
    gate_times = []
    for _ in range(2):
        clear_result_cache()
        clear_trace_cache()
        clear_warm_cache()
        runner = BatchRunner(workers=GATE_WORKERS,
                             trace_store=tmp_path / "gate-store")
        t0 = time.perf_counter()
        run_performance_experiment(SWEEP_CONFIGS, SWEEP_WORKLOADS,
                                   gate_scale, runner=runner,
                                   screening=True)
        gate_times.append(time.perf_counter() - t0)
        assert not runner.report.eventful  # a healthy gate run needs no rescue
        runner.close()
    gate_cps = {
        "2M4+2M2": single_sim("2M4+2M2", (0, 2, 1, 3), GATE_SINGLE_TARGET),
        "M8": single_sim("M8", (0, 0, 0, 0), GATE_SINGLE_TARGET),
    }

    snapshot = {
        "benchmark": "test_service_latency",
        "seed_cycles_per_second": seed_baseline_cycles_per_second(),
        "perf_gate": {
            "scale": GATE_SCALE,
            "workers": GATE_WORKERS,
            # Machine class of the recording host: the gate only enforces
            # against a baseline recorded on the same class (a different
            # class downgrades the run to record-only).
            "machine": (
                f"{platform.system()}-{platform.machine()}"
                f"-cpu{os.cpu_count()}"
            ),
            "single_sim_commit_target": GATE_SINGLE_TARGET,
            "cycles_per_second": gate_cps,
            "sweep_seconds_best": round(min(gate_times), 3),
            "sweep_seconds_all": [round(t, 3) for t in gate_times],
            "note": (
                "fixed-scale same-machine reference for "
                "benchmarks/perf_gate.py; the CI lane fails on >25% "
                "regression of cycles/sec or sweep wall clock vs the "
                "latest committed BENCH_000N baseline — the sweep runs "
                "the local supervised path (no daemon in the loop), so "
                "the gate keeps measuring the engine, not the service"
            ),
        },
        "service": {
            "reference_sweep": {
                "sims": len(REFERENCE_SWEEP["sims"]),
                "commit_target": _SIM["commit_target"],
                "cold_seconds": round(cold_seconds, 4),
                "warm_seconds_best": round(min(warm_times), 4),
                "warm_seconds_mean": round(sum(warm_times) / len(warm_times),
                                           4),
                "warm_requests_per_second": round(warm_rps, 1),
                "warm_requests": WARM_REQUESTS,
                "speedup_cold_over_warm_best": round(
                    cold_seconds / min(warm_times), 1
                ),
                "note": (
                    "unix-socket daemon, connect-per-request client; "
                    "warm = served from the shared sharded ResultCache "
                    "without touching the pool, asserted byte-identical "
                    "to the cold response on every request"
                ),
            },
            "coalescing_storm": {
                "clients": STORM_CLIENTS,
                "commit_target": STORM_SPEC["commit_target"],
                "executed": storm_executed,
                "coalesced": storm_coalesced,
                "wall_seconds": round(storm_seconds, 3),
                "byte_identical_responses": True,
                "note": (
                    "50 concurrent identical cold requests released "
                    "through a barrier: one flight executes, 49 "
                    "subscribers attach and receive the same rendered "
                    "bytes"
                ),
            },
        },
    }

    # Merge, never clobber: other benches may extend this snapshot later.
    merged = {}
    if SERVICE_SNAPSHOT.exists():
        try:
            merged = json.loads(SERVICE_SNAPSHOT.read_text())
        except ValueError:
            merged = {}
    merged.update(snapshot)
    SERVICE_SNAPSHOT.write_text(json.dumps(merged, indent=2) + "\n")
    svc = snapshot["service"]["reference_sweep"]
    print(f"\n[service] cold {svc['cold_seconds']:.3f} s, warm best "
          f"{svc['warm_seconds_best'] * 1000:.1f} ms "
          f"({svc['warm_requests_per_second']:.0f} req/s); storm "
          f"{STORM_CLIENTS} clients -> {storm_executed} execution in "
          f"{storm_seconds:.2f} s [saved to {SERVICE_SNAPSHOT}]")
    print(f"\n[perf-gate ref] sweep best {min(gate_times):.2f} s @scale "
          f"{GATE_SCALE}, single-sim {gate_cps} [saved to "
          f"{SERVICE_SNAPSHOT}]")
    # Catastrophic-regression tripwires (machine-portable): the warm
    # tier must be far cheaper than re-simulating, and the gate-scale
    # engine floors still apply.
    assert min(warm_times) < 0.5 * cold_seconds, (warm_times, cold_seconds)
    seed_cps = merged["seed_cycles_per_second"]
    assert gate_cps["2M4+2M2"] > 0.2 * seed_cps, (gate_cps, seed_cps)
    assert gate_cps["M8"] > 0.2 * seed_cps, (gate_cps, seed_cps)
