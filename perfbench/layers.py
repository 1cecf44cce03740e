"""Per-layer metrics from the spans of one traced phase.

Times and counts are per operation of the workload (one simulation, one
sweep or one request) unless the name says otherwise: totals over the
phase divided by the operations in it. ``cache.get_s``, ``cache.put_s``
and the ``service.*_s`` latencies are medians per call. The per-config
engine metrics (suffix ``.m8``, ``.2m4_2m2``, ``.1m6_2m4_2m2``) are per
``Processor.run`` call of that configuration, so on ``single_sim`` the
five stage times plus ``engine.loop_s`` add up to ``engine.run_s`` of
the same suffix. A layer that does no work on a workload reads 0.

See ``README.md`` in this directory for what each metric should move.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from common import median
from spans import STAGES, Span

#: The configurations whose engine metrics carry a suffix.
SUFFIXES = {"M8": "m8", "2M4+2M2": "2m4_2m2", "1M6+2M4+2M2": "1m6_2m4_2m2"}

#: (name, unit) of every per-layer metric, in output order.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("trace.gen_s", "s"),
    ("trace.gen_count", "count"),
    ("trace.pack_s", "s"),
    ("trace.load_s", "s"),
    ("trace.load_count", "count"),
    ("trace.profile_s", "s"),
    ("warm.compute_s", "s"),
    ("warm.compute_count", "count"),
    ("warm.restore_s", "s"),
    ("warm.restore_count", "count"),
    ("engine.run_s", "s"),
    ("engine.cycles", "count"),
    ("engine.skipped_cycles", "count"),
    ("engine.us_per_cycle", "us"),
]
for _sfx in SUFFIXES.values():
    LAYER_METRICS.append((f"engine.run_s.{_sfx}", "s"))
    LAYER_METRICS.append((f"engine.loop_s.{_sfx}", "s"))
    for _stage in STAGES:
        LAYER_METRICS.append((f"engine.{_stage}_s.{_sfx}", "s"))
        LAYER_METRICS.append((f"engine.{_stage}_calls.{_sfx}", "count"))
LAYER_METRICS += [
    ("experiments.plan_s", "s"),
    ("runner.run_s", "s"),
    ("runner.prepack_s", "s"),
    ("runner.worker_busy_s", "s"),
    ("runner.idle_s", "s"),
    ("runner.imbalance", "ratio"),
    ("runner.jobs", "count"),
    ("runner.retries", "count"),
    ("runner.pickle_bytes", "bytes"),
    ("runner.useful_cycles_ratio", "ratio"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.gets", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.mem_hit_ratio", "ratio"),
    ("service.submit_s", "s"),
    ("service.request_key_s", "s"),
    ("service.render_s", "s"),
    ("service.exec_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.transport_s", "s"),
    ("service.frame_hit_ratio", "ratio"),
    ("service.coalesced", "count"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(
    spans: Iterable[Span],
    worker_pids: Sequence[int],
    n_ops: int,
    useful_cycles: int,
    client_latency: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one phase's spans."""
    spans = list(spans)
    n = max(1, n_ops)
    workers = set(worker_pids)
    named: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[tuple, List[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None and s.parent[0] == s.pid:
            children[s.parent].append(s)

    def total(*names: str) -> float:
        return sum(s.dur for name in names for s in named[name])

    def child_time(s: Span, names: Optional[set] = None) -> float:
        return sum(c.dur for c in children[s.sid] if names is None or c.name in names)

    def has_child(s: Span, name: str) -> bool:
        return any(c.name == name for c in children[s.sid])

    m: Dict[str, float] = {}

    # trace
    m["trace.gen_s"] = total("trace.generate", "trace.generate_junk") / n
    m["trace.gen_count"] = len(named["trace.generate"]) / n
    m["trace.pack_s"] = total("trace.pack", "trace.save") / n
    m["trace.load_s"] = total("trace.load") / n
    m["trace.load_count"] = sum(1 for s in named["trace.load"] if s.attrs["hit"]) / n
    m["trace.profile_s"] = sum(s.dur - child_time(s) for s in named["trace.profile"]) / n

    # warm: a warm or ensure span that streamed the window computed it;
    # a warm span that did not restored a snapshot (memo or store).
    computed = [s for s in named["warm.warm"] + named["warm.ensure"]
                if has_child(s, "warm.stream")]
    restored = [s for s in named["warm.warm"] if not has_child(s, "warm.stream")]
    m["warm.compute_s"] = sum(s.dur for s in computed) / n
    m["warm.compute_count"] = len(computed) / n
    m["warm.restore_s"] = sum(s.dur for s in restored) / n
    m["warm.restore_count"] = len(restored) / n

    # engine
    runs = named["engine.run"]
    cycles = sum(s.attrs["cycles"] for s in runs)
    fetches = sum(s.attrs["stages"][5] for s in runs)
    run_s = total("engine.run")
    m["engine.run_s"] = run_s / n
    m["engine.cycles"] = cycles / n
    m["engine.skipped_cycles"] = (cycles - fetches) / n
    m["engine.us_per_cycle"] = _ratio(run_s * 1e6, cycles)
    for config, sfx in SUFFIXES.items():
        mine = [s for s in runs if s.attrs["config"] == config]
        k = max(1, len(mine))
        stage_total = [sum(s.attrs["stages"][i] for s in mine) for i in range(10)]
        m[f"engine.run_s.{sfx}"] = sum(s.dur for s in mine) / k
        m[f"engine.loop_s.{sfx}"] = (
            sum(s.dur for s in mine) - sum(stage_total[:5])
        ) / k
        for i, stage in enumerate(STAGES):
            m[f"engine.{stage}_s.{sfx}"] = stage_total[i] / k
            m[f"engine.{stage}_calls.{sfx}"] = stage_total[i + 5] / k

    # experiments: the sweep's own time outside BatchRunner.run
    m["experiments.plan_s"] = sum(
        s.dur - child_time(s, {"runner.run"}) for s in named["experiments.sweep"]
    ) / n

    # runner
    m["runner.run_s"] = total("runner.run") / n
    m["runner.prepack_s"] = total("runner.prepack") / n
    busy: Dict[object, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for s in named["job.execute"]:
        if s.pid in workers and (s.parent is None or s.parent[0] != s.pid):
            busy[s.op][s.pid] += s.dur
    busy_total = sum(sum(per.values()) for per in busy.values())
    window = sum(s.dur * s.attrs["workers"] for s in named["runner.dispatch"])
    m["runner.worker_busy_s"] = busy_total / n
    m["runner.idle_s"] = max(0.0, window - busy_total) / n
    pools = [max(per.values()) / (sum(per.values()) / len(per))
             for per in busy.values() if sum(per.values()) > 0]
    m["runner.imbalance"] = sum(pools) / len(pools) if pools else 0.0
    m["runner.jobs"] = sum(s.attrs["jobs"] for s in named["runner.run"]) / n
    m["runner.retries"] = sum(s.attrs["retries"] for s in named["runner.run"]) / n
    m["runner.pickle_bytes"] = sum(
        s.attrs["pickle_bytes"] for s in named["runner.dispatch"]
    ) / n
    m["runner.useful_cycles_ratio"] = _ratio(useful_cycles, cycles)

    # cache
    gets = named["cache.get"]
    m["cache.get_s"] = median([s.dur for s in gets])
    m["cache.put_s"] = median([s.dur for s in named["cache.put"]])
    m["cache.gets"] = len(gets) / n
    m["cache.hit_ratio"] = _ratio(sum(1 for s in gets if s.attrs["hit"]), len(gets))
    m["cache.mem_hit_ratio"] = _ratio(sum(1 for s in gets if s.attrs["mem"]), len(gets))

    # service
    submits = named["service.submit"]
    m["service.submit_s"] = median([s.dur for s in submits])
    m["service.request_key_s"] = median([s.dur for s in named["service.request_key"]])
    m["service.render_s"] = median(
        [s.dur for s in named["service.response_payload"]]
    ) + median([s.dur for s in named["service.encode_result"]])
    execs = named["service.exec"]
    m["service.exec_s"] = median([s.dur for s in execs])
    m["service.queue_wait_s"] = median([s.attrs["queue_wait"] for s in execs])
    handled = {s.op: s.dur for s in named["service.handle"]}
    m["service.transport_s"] = median([
        lat - handled[op] for op, lat in (client_latency or {}).items()
        if op in handled
    ])
    m["service.frame_hit_ratio"] = _ratio(
        sum(1 for s in submits if s.attrs["frame"]), len(submits)
    )
    m["service.coalesced"] = sum(1 for s in submits if s.attrs["coalesced"]) / n
    return m
