"""``serve_mix``: a ``repro serve --jobs 2`` daemon under two clients.

The daemon runs in a subprocess (started through ``serve_boot.py``) with
a private result cache. Two client threads drive it in a closed loop,
each call on its own ``ServiceClient`` connection, with three request
classes:

* ``repeat`` - a simulate request answered in set-up, drawn with a
  1/rank skew towards a few specs: the rendered-frame tier serves it;
* ``new`` - a simulate request with a mapping and commit target not
  seen before, over the trace sets loaded in set-up: it executes inline
  in the daemon and writes the result cache;
* ``overlap`` - a sweep of eight answered sims plus one unseen one: it
  reads the result cache and dispatches to the pool.

Every response must be byte-identical (canonical JSON) to
``SimJob.execute()`` run inline on the same spec; those references are
computed after the timed phase. The seed is the request sequence; the
``repeat`` specs are fixed, so their digest does not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import traceback
from time import perf_counter

from common import Op, Phase, median, percentile
from layers import SUFFIXES
from repro.core.config import get_config
from repro.core.mapping import enumerate_mappings
from repro.runner.cache import sim_result_payload
from repro.service.client import ServiceClient, ServiceRequestError
from repro.service.protocol import ProtocolError, canonical_dumps, sim_job_from_spec
from repro.workloads.definitions import get_workload

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = tuple(SUFFIXES)
CLIENTS = 2
#: Cumulative request-class probabilities. A cold request costs about
#: 100 warm ones, so these shares give cold and overlap requests about a
#: fifth of the daemon's time, and keep the inline reference runs after
#: the phase to a few seconds.
P_REPEAT = 0.997
P_NEW = P_REPEAT + 0.002
OVERLAP_ANSWERED = 8


class ServeMix:
    name = "serve_mix"
    in_process = False

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        benchmarks = list(get_workload("4W6").benchmarks)
        lo, hi = (300, 400) if ctx.tiny else (1000, 1500)
        mappings = {c: enumerate_mappings(get_config(c), len(benchmarks))
                    for c in CONFIGS}

        def spec(config, mapping, target) -> dict:
            return {"config": config, "benchmarks": benchmarks,
                    "mapping": list(mapping), "commit_target": target}

        per_config = 1 if ctx.tiny else 3
        self.repeats = [spec(c, m, t) for t in (lo, hi) for c in CONFIGS
                        for m in mappings[c][:per_config]]
        self.weights = [1.0 / (rank + 1) for rank in range(len(self.repeats))]
        #: a sweep that makes the daemon fork its pool during set-up
        self.priming = [spec(c, mappings[c][0], lo - 1 - i)
                        for i, c in enumerate(CONFIGS)]
        fresh = [spec(c, m, t) for t in range(lo + 1, hi) for c in CONFIGS
                 for m in mappings[c]]
        random.Random(ctx.seed).shuffle(fresh)
        self.fresh = fresh
        self._payloads: dict = {}
        self.daemon = None
        self.failures = 0
        self._started = 0

    # -- references ---------------------------------------------------------

    def _payload(self, spec: dict) -> dict:
        key = canonical_dumps(spec)
        payload = self._payloads.get(key)
        if payload is None:
            payload = sim_result_payload(sim_job_from_spec(spec).execute())
            if self.ctx.corrupt and spec is self.repeats[0]:
                payload = dict(payload, cycles=payload["cycles"] + 1)
            self._payloads[key] = payload
        return payload

    def _reference(self, kind: str, specs) -> str:
        payloads = [self._payload(s) for s in specs]
        return canonical_dumps(payloads if kind == "sweep" else payloads[0])

    @property
    def digest(self) -> str:
        texts = [self._reference("simulate", [s]) for s in self.repeats]
        return hashlib.sha256("\n".join(texts).encode()).hexdigest()

    # -- the daemon ---------------------------------------------------------

    def _start(self, span_dir=None) -> ServiceClient:
        rundir = self.ctx.rundir
        tag = f"d{self._started}"
        self._started += 1
        sock = os.path.relpath(os.path.join(rundir.path, f"{tag}.sock"), self.ctx.root)
        cmd = [sys.executable, os.path.join(HERE, "serve_boot.py")]
        if span_dir is not None:
            cmd += ["--spans", span_dir]
        cmd += ["serve", "--socket", sock, "--cache", rundir.sub(f"cache-{tag}"),
                "--jobs", "2", "--quiet"]
        log_path = os.path.join(rundir.path, f"{tag}.log")
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(cmd, cwd=self.ctx.root, stdout=log,
                                    stderr=subprocess.STDOUT)
        self.daemon = proc
        client = ServiceClient(socket_path=sock, timeout=30)
        deadline = time.monotonic() + 60
        while True:
            if proc.poll() is not None:
                with open(log_path) as fh:
                    raise RuntimeError(f"daemon exited early:\n{fh.read()}")
            try:
                client.ping()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        self.sock = sock
        return client

    def _prime(self, client: ServiceClient) -> None:
        """Answer the repeat set and fork the pool; mismatches count."""
        for spec in self.repeats:
            client.submit("simulate", spec)
            self.failures += client.last_payload_text != self._reference(
                "simulate", [spec])
        client.submit("sweep", {"sims": self.priming})
        self.failures += client.last_payload_text != self._reference(
            "sweep", self.priming)

    def _stop(self) -> None:
        """SIGTERM, then wait for a clean exit; anything else counts."""
        proc, self.daemon = self.daemon, None
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        if code != 0:
            print(f"daemon did not exit cleanly (code {code})", file=sys.stderr)
            self.failures += 1

    def setup(self) -> float:
        """Daemon start to ready, plus loading the trace sets and answering
        the repeat set; three times, the last daemon kept."""
        for spec in self.repeats + self.priming:
            self._payload(spec)
        times = []
        for rep in range(3):
            if rep:
                self._stop()
            t0 = perf_counter()
            self._prime(self._start())
            times.append(perf_counter() - t0)
        return median(times)

    # -- the measured phase -------------------------------------------------

    def measure(self, budget: float, rec=None) -> Phase:
        if rec is not None:
            self._stop()
            self._prime(self._start(span_dir=rec.span_dir))
        warm_texts = [self._reference("simulate", [s]) for s in self.repeats]
        picks = range(len(self.repeats))
        records = [[] for _ in range(CLIENTS)]
        start = perf_counter()
        deadline = start + budget

        def client_loop(t: int) -> None:
            rng = random.Random(f"{self.ctx.seed}:{t}")
            fresh = iter(self.fresh[t::CLIENTS])
            client = ServiceClient(socket_path=self.sock, timeout=30)
            out = records[t]
            while perf_counter() < deadline or not out:
                draw = rng.random()
                warm = None
                if draw < P_REPEAT:
                    cls, kind = "repeat", "simulate"
                    warm = rng.choices(picks, self.weights)[0]
                    specs = [self.repeats[warm]]
                elif draw < P_NEW:
                    cls, kind = "new", "simulate"
                    specs = [next(fresh)]
                else:
                    cls, kind = "overlap", "sweep"
                    specs = rng.sample(self.repeats,
                                       min(OVERLAP_ANSWERED, len(self.repeats)))
                    specs.append(next(fresh))
                op_id = f"{t}-{len(out)}"
                request = specs[0] if kind == "simulate" else {"sims": specs}
                t0 = perf_counter()
                try:
                    client.submit(kind, request, request_id=op_id)
                    text = client.last_payload_text
                except (ServiceRequestError, ProtocolError, OSError, ValueError):
                    traceback.print_exc(file=sys.stderr)
                    text = None
                dt = perf_counter() - t0
                if warm is not None:  # checked now: keeps ~10^5 texts out of memory
                    text = text is not None and text == warm_texts[warm]
                out.append((cls, dt, kind, specs, text, op_id))

        threads = [threading.Thread(target=client_loop, args=(t,))
                   for t in range(CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        end = perf_counter()
        if rec is not None:
            self._stop()  # the daemon writes its spans as it exits

        ops, latency, useful = [], {}, 0
        for cls, dt, kind, specs, text, op_id in (r for rs in records for r in rs):
            if cls == "repeat":
                ok = text
            else:
                ok = text is not None and text == self._reference(kind, specs)
            cycles = 0
            if ok and cls != "repeat":
                payload = json.loads(text)
                cycles = (payload[-1] if kind == "sweep" else payload)["cycles"]
                useful += cycles
            ops.append(Op(cls, dt, ok, cycles))
            latency[op_id] = dt
        return Phase(ops, start, end, useful, latency)

    # -- metrics ------------------------------------------------------------

    @staticmethod
    def _ms(phase: Phase, cls: str):
        return [1000 * op.seconds for op in phase.ops if op.kind == cls and op.ok]

    def e2e(self, phase: Phase) -> dict:
        ok = [op for op in phase.ops if op.ok]
        return {
            "op_ms": 1000 * median([op.seconds for op in ok]),
            "cycles_per_s": median([op.cycles / op.seconds for op in ok
                                    if op.kind == "new"]),
        }

    def details(self, phase: Phase) -> dict:
        warm = self._ms(phase, "repeat")
        return {
            "warm_p50_ms": median(warm),
            "warm_p99_ms": percentile(warm, 99),
            "cold_p50_ms": median(self._ms(phase, "new")),
            "overlap_p50_ms": median(self._ms(phase, "overlap")),
            "requests_per_s": sum(op.ok for op in phase.ops) / phase.elapsed,
        }

    def close(self) -> int:
        self._stop()
        return self.failures
