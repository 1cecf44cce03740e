"""Golden-equivalence anchors for the fast-path engine.

The timing-wheel + idle-cycle-skip + warm-cache engine must be
*bit-identical* to the seed engine: the golden numbers below were
recorded by running the seed implementation (commit e6236c8, dict event
map, no skipping) on fixed (config, workload, mapping) triples. Any
drift in ``cycles``, ``committed``, ``ipc`` or any statistic is a
modeling change, not an optimization, and must fail here.
"""

import pytest

from repro.core.config import get_config
from repro.core.engine import Processor, clear_warm_cache
from repro.core.simulation import run_simulation

# (config, benchmarks, mapping, commit_target) -> seed-engine outcome.
GOLDEN = [
    {
        "config": "M8",
        "benchmarks": ("mcf", "twolf"),
        "mapping": (0, 0),
        "target": 2000,
        "cycles": 4667,
        "committed": (206, 2001),
        "ipc": 0.4728947932290551,
        "stats": {
            "l1d_miss_rate": 0.25248618784530386,
            "l1i_miss_rate": 0.0,
            "l2_miss_rate": 0.3479212253829322,
            "dtlb_miss_rate": 0.041988950276243095,
            "branch_mispredict_rate": 0.03187546330615271,
            "mispredicts": 56.0,
            "flushes": 108.0,
            "squashed": 12420.0,
            "wrongpath_fetched": 6221.0,
            "fetched": 14693.0,
            "icache_stalls": 0.0,
            "btb_bubbles": 2.0,
        },
    },
    {
        "config": "2M4+2M2",
        "benchmarks": ("gzip", "twolf", "bzip2", "mcf"),
        "mapping": (0, 2, 1, 3),
        "target": 2000,
        "cycles": 3364,
        "committed": (1473, 277, 2000, 206),
        "ipc": 1.1759809750297265,
        "stats": {
            "l1d_miss_rate": 0.15718654434250764,
            "l1i_miss_rate": 0.017939518195797026,
            "l2_miss_rate": 0.2945205479452055,
            "dtlb_miss_rate": 0.04342507645259939,
            "branch_mispredict_rate": 0.0718562874251497,
            "mispredicts": 52.0,
            "flushes": 0.0,
            "squashed": 2787.0,
            "wrongpath_fetched": 2803.0,
            "fetched": 7003.0,
            "icache_stalls": 35.0,
            "btb_bubbles": 11.0,
        },
    },
    {
        "config": "1M6+2M4+2M2",
        "benchmarks": ("eon", "gcc", "vpr", "perlbmk", "crafty", "bzip2"),
        "mapping": (0, 0, 1, 2, 1, 2),
        "target": 1500,
        "cycles": 1187,
        "committed": (236, 657, 125, 255, 53, 1500),
        "ipc": 2.380791912384162,
        "stats": {
            "l1d_miss_rate": 0.08548387096774193,
            "l1i_miss_rate": 0.010434782608695653,
            "l2_miss_rate": 0.3305084745762712,
            "dtlb_miss_rate": 0.01532258064516129,
            "branch_mispredict_rate": 0.0942622950819672,
            "mispredicts": 40.0,
            "flushes": 0.0,
            "squashed": 1581.0,
            "wrongpath_fetched": 1581.0,
            "fetched": 4613.0,
            "icache_stalls": 12.0,
            "btb_bubbles": 8.0,
        },
    },
]

_IDS = [g["config"] for g in GOLDEN]


@pytest.mark.parametrize("golden", GOLDEN, ids=_IDS)
def test_engine_matches_seed_golden(golden):
    """Exact seed-engine reproduction: cycles, commits, IPC, every stat."""
    r = run_simulation(
        golden["config"], golden["benchmarks"], golden["mapping"], golden["target"]
    )
    assert r.cycles == golden["cycles"]
    assert r.committed == golden["committed"]
    assert r.ipc == golden["ipc"]
    assert r.stats == golden["stats"]


@pytest.mark.parametrize("golden", GOLDEN, ids=_IDS)
def test_warm_cache_restore_is_exact(golden):
    """The memoized warm snapshot restores to a bit-identical run."""
    clear_warm_cache()
    cold = run_simulation(
        golden["config"], golden["benchmarks"], golden["mapping"], golden["target"]
    )
    cached = run_simulation(
        golden["config"], golden["benchmarks"], golden["mapping"], golden["target"]
    )
    assert cached == cold


def _observable_state(proc: Processor) -> dict:
    return {
        "cycle": proc.cycle,
        "committed": tuple(proc.committed),
        "fetched": tuple(proc.stat_fetched),
        "wrongpath": tuple(proc.stat_wrongpath_fetched),
        "mispredicts": tuple(proc.stat_mispredicts),
        "flushes": tuple(proc.stat_flushes),
        "squashed": tuple(proc.stat_squashed),
        "icache_stalls": proc.stat_icache_stalls,
        "btb_bubbles": proc.stat_btb_bubbles,
        "phys_free": proc.phys_free,
        "finished": proc.finished,
        "l1d": (proc.mem.l1d.stats.accesses, proc.mem.l1d.stats.misses),
        "l2": (proc.mem.l2.stats.accesses, proc.mem.l2.stats.misses),
        "branch": (
            proc.branch_unit.predictor.lookups,
            proc.branch_unit.predictor.mispredicts,
        ),
    }


@pytest.mark.parametrize(
    "config_name, benchmarks, mapping",
    [
        ("M8", ("mcf", "twolf"), (0, 0)),
        ("2M4+2M2", ("gzip", "mcf"), (0, 2)),
    ],
)
def test_idle_skip_equals_pure_stepping(config_name, benchmarks, mapping,
                                        tiny_traces):
    """run() (with idle-cycle skipping) must match a pure step() loop."""
    cfg = get_config(config_name)

    def build():
        return Processor(cfg, tiny_traces(benchmarks, 3000), mapping,
                         commit_target=1200)

    fast = build()
    fast.warm()
    fast.run()

    slow = build()
    slow.warm()
    max_cycles = 400 * slow.commit_target + 10_000
    while not slow.finished and slow.cycle < max_cycles:
        slow.step()

    assert _observable_state(fast) == _observable_state(slow)


def test_max_cycles_cap_not_overshot_by_idle_skip(tiny_traces):
    """Regression (idle-skip jumps must clamp to the safety cap): a run
    that cannot reach its commit target stops at *exactly* max_cycles,
    as the seed's one-cycle-at-a-time loop did."""
    cfg = get_config("M8")  # FLUSH policy: long fully-idle stretches
    cap = 777

    proc = Processor(cfg, tiny_traces(("mcf", "twolf"), 2000), (0, 0),
                     commit_target=10**9)
    proc.warm()
    returned = proc.run(max_cycles=cap)
    assert returned == proc.cycle == cap
    assert not proc.finished

    # And the capped fast run matches a capped pure-step run exactly.
    slow = Processor(cfg, tiny_traces(("mcf", "twolf"), 2000), (0, 0),
                     commit_target=10**9)
    slow.warm()
    while not slow.finished and slow.cycle < cap:
        slow.step()
    assert _observable_state(proc) == _observable_state(slow)


def test_default_cap_accounts_for_skipped_cycles(tiny_traces):
    """run() without an explicit cap still honours 400*target + 10_000."""
    cfg = get_config("M8")
    proc = Processor(cfg, tiny_traces(("mcf",), 1500), (0,), commit_target=10)
    proc.warm()
    proc.run()
    assert proc.cycle <= 400 * 10 + 10_000
