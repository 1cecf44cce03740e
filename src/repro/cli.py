"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run
    Simulate one workload on one configuration (heuristic mapping) and
    print the result.
areas
    Print the Fig. 3 area table for any set of configurations.
profile
    Print the benchmark profile table the mapping heuristic consumes.
figures
    Regenerate Figs. 4 and 5 plus the §5 summary at a chosen scale
    (writes the same artifacts as the benchmark harness).
workloads
    List the paper's workload tables.
serve
    Run the persistent simulation service: an asyncio daemon over one
    shared :class:`~repro.runner.BatchRunner` that accepts
    simulate/sweep/screen requests, coalesces concurrent identical
    requests onto single flights, serves warm requests from the shared
    result cache, and drains gracefully on SIGTERM
    (see :mod:`repro.service`).
submit / status
    Thin clients for a running ``repro serve`` daemon: submit one
    request and print the canonical result payload; print the server's
    counters and run report.
cache
    Inspect (``stats``) or garbage-collect (``prune --older-than``) the
    shared result cache on disk
    (see :class:`~repro.runner.cache.ResultCache`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.area.model import area_report, config_area
from repro.core.config import STANDARD_CONFIG_NAMES
from repro.core.simulation import run_workload
from repro.experiments.performance import (
    fig4_table,
    fig5_table,
    run_performance_experiment,
)
from repro.experiments.scale import ExperimentScale, default_scale
from repro.experiments.summary import headline_summary, summary_report
from repro.metrics.tables import format_table
from repro.runner import BatchRunner
from repro.settings import Settings, non_negative_float, positive_float, positive_int
from repro.trace.benchmarks import BENCHMARK_NAMES
from repro.trace.profiling import profile_benchmark
from repro.workloads.definitions import WORKLOADS, get_workload

__all__ = ["main"]


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workload:
        benchmarks = list(get_workload(args.workload).benchmarks)
    else:
        benchmarks = args.benchmarks
    if not benchmarks:
        print("error: give --workload or benchmark names", file=sys.stderr)
        return 2
    r = run_workload(args.config, benchmarks, commit_target=args.target)
    area = config_area(args.config)
    print(r.describe())
    print(f"area = {area:.1f} mm2   IPC/mm2 = {r.ipc / area:.5f}")
    for k in ("l1d_miss_rate", "branch_mispredict_rate", "flushes"):
        print(f"  {k} = {r.stats[k]:.4f}")
    return 0


def _cmd_areas(args: argparse.Namespace) -> int:
    names = args.configs or list(STANDARD_CONFIG_NAMES)
    print(area_report(names))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    names = args.benchmarks or list(BENCHMARK_NAMES)
    rows = []
    for n in sorted(names, key=lambda n: profile_benchmark(n).misses_per_kilo_instruction):
        p = profile_benchmark(n)
        rows.append(
            [n, f"{p.misses_per_kilo_instruction:.2f}", f"{p.l1d_miss_rate:.4f}", p.l2_misses]
        )
    print(
        format_table(
            ["benchmark", "L1D MPKI", "L1D miss rate", "L2 misses"],
            rows,
            title="Profile pass (the heuristic's §2.1 input)",
        )
    )
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = [
        [w.name, ", ".join(w.benchmarks), w.workload_class]
        for w in WORKLOADS.values()
    ]
    print(format_table(["id", "benchmarks", "class"], rows, title="Tables 2 & 3"))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    scale = default_scale()
    if args.scale is not None:
        scale = ExperimentScale().scaled(args.scale)
    workloads = args.workloads or None
    policy = Settings.from_env().retry_policy()
    if args.job_timeout is not None:
        policy = replace(policy, timeout=args.job_timeout)
    if args.max_attempts is not None:
        policy = replace(policy, max_attempts=args.max_attempts)
    with BatchRunner(workers=args.jobs, policy=policy) as runner:
        results = run_performance_experiment(
            workload_names=workloads,
            scale=scale,
            progress=not args.quiet,
            runner=runner,
            screening=args.screening,
        )
        report = runner.report
    for cls in ("ILP", "MEM", "MIX"):
        print(fig4_table(results, cls))
        print()
        print(fig5_table(results, cls))
        print()
    print(summary_report(headline_summary(results)))
    if not args.quiet and report.jobs:
        print(f"\nrun report: {report.describe()}")
    if args.report_json:
        path = Path(args.report_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
        if not args.quiet:
            print(f"run report written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import run_serve

    return run_serve(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.daemon import run_submit

    return run_submit(args)


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.daemon import run_status

    return run_status(args)


def age_seconds(text: str) -> float:
    """An age in seconds from ``3600`` / ``15m`` / ``12h`` / ``7d``: a
    finite number >= 0 with an optional s/m/h/d suffix."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    t = text.strip().lower()
    mult = units.get(t[-1:])
    if mult is not None:
        t = t[:-1]
    else:
        mult = 1.0
    seconds = non_negative_float(t) * mult
    if seconds == math.inf:  # a finite count of days can overflow
        raise ValueError(text)
    return seconds


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runner.cache import ResultCache

    cache_dir = args.cache or Settings.from_env().result_cache
    if not cache_dir:
        print("error: give --cache DIR or set REPRO_RESULT_CACHE",
              file=sys.stderr)
        return 2
    cache = ResultCache(cache_dir)
    if args.cache_cmd == "stats":
        print(json.dumps(cache.stats(), indent=2, sort_keys=True))
        return 0
    print(json.dumps(cache.prune(args.older_than), indent=2, sort_keys=True))
    return 0


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    """The service endpoint knobs shared by serve/submit/status."""
    parser.add_argument(
        "--socket",
        default=None,
        help="unix-domain socket path of the service endpoint",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP host when using --port (default: loopback)",
    )
    parser.add_argument(
        "--port", type=int, default=None, help="TCP port of the endpoint"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="hdSMT reproduction (Acosta et al., ICPP 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("--config", default="M8")
    p_run.add_argument("--workload", help="paper workload id (e.g. 2W4)")
    p_run.add_argument("benchmarks", nargs="*", help="benchmark names")
    p_run.add_argument("--target", type=int, default=8000)
    p_run.set_defaults(func=_cmd_run)

    p_areas = sub.add_parser("areas", help="Fig. 3 area table")
    p_areas.add_argument("configs", nargs="*")
    p_areas.set_defaults(func=_cmd_areas)

    p_prof = sub.add_parser("profile", help="benchmark profiles (heuristic input)")
    p_prof.add_argument("benchmarks", nargs="*")
    p_prof.set_defaults(func=_cmd_profile)

    p_wl = sub.add_parser("workloads", help="list Tables 2 & 3")
    p_wl.set_defaults(func=_cmd_workloads)

    p_fig = sub.add_parser("figures", help="regenerate Figs. 4/5 + summary")
    p_fig.add_argument("--scale", type=positive_float, help="window scale factor")
    p_fig.add_argument("--workloads", nargs="*", help="restrict workload ids")
    p_fig.add_argument("--quiet", action="store_true")
    p_fig.add_argument(
        "--jobs",
        "-j",
        type=positive_int,
        default=None,
        help="worker processes for the mapping sweeps "
        "(default: REPRO_WORKERS or all cores)",
    )
    p_fig.add_argument(
        "--job-timeout",
        type=non_negative_float,
        default=None,
        help="per-job wall-clock budget in seconds for the supervised "
        "dispatch (heavy jobs get 4x); timed-out jobs retry with "
        "backoff (default: REPRO_JOB_TIMEOUT; unset or 0 = no deadline)",
    )
    p_fig.add_argument(
        "--max-attempts",
        type=positive_int,
        default=None,
        help="executions a failing job may consume before the sweep "
        "aborts (default: REPRO_MAX_ATTEMPTS or 3; retries are safe — "
        "jobs are idempotent)",
    )
    p_fig.add_argument(
        "--screening",
        action="store_true",
        help="successive-halving oracle screening: prune mapping "
        "candidates with short checkpointed screens (ranked by "
        "per-round marginal IPC; the final round scores cumulative "
        "full-window IPC, so selection ties break exactly as the exact "
        "screen's) before full-window runs (validated approximation — "
        "identical oracle selection on the reference scenario; default "
        "is the exact screen, whose per-candidate jobs are bundled "
        "into one worker job per worker process)",
    )
    p_fig.add_argument(
        "--report-json",
        metavar="PATH",
        default=None,
        help="write the final RunReport (jobs, retries, timeouts, pool "
        "respawns, ...) as JSON to PATH",
    )
    p_fig.set_defaults(func=_cmd_figures)

    p_srv = sub.add_parser(
        "serve",
        help="run the persistent simulation service (daemon)",
    )
    _add_endpoint_args(p_srv)
    p_srv.add_argument(
        "--jobs",
        "-j",
        type=positive_int,
        default=None,
        help="worker processes for the shared BatchRunner "
        "(default: REPRO_WORKERS or all cores)",
    )
    p_srv.add_argument(
        "--cache",
        default=None,
        help="shared result-cache directory (default: REPRO_RESULT_CACHE; "
        "unset = a private temporary cache for this instance)",
    )
    p_srv.add_argument(
        "--max-queue",
        type=positive_int,
        default=64,
        help="flights allowed to wait behind the executing one before "
        "submissions are refused with a retryable error (default: 64)",
    )
    p_srv.add_argument(
        "--progress-interval",
        type=positive_float,
        default=1.0,
        help="seconds between progress heartbeats to waiting clients",
    )
    p_srv.add_argument("--quiet", action="store_true")
    p_srv.set_defaults(func=_cmd_serve)

    p_sub = sub.add_parser(
        "submit",
        help="submit one request to a running `repro serve` daemon",
    )
    _add_endpoint_args(p_sub)
    p_sub.add_argument(
        "--request",
        default=None,
        help="full request as JSON ({\"kind\": ..., \"spec\": ...}); "
        "@FILE reads it from a file; overrides the simulate flags",
    )
    p_sub.add_argument("--config", default="M8")
    p_sub.add_argument("benchmarks", nargs="*", help="benchmark names")
    p_sub.add_argument(
        "--mapping",
        default=None,
        help="comma-separated thread-to-pipeline mapping "
        "(default: all threads on pipeline 0)",
    )
    p_sub.add_argument("--target", type=int, default=8000)
    p_sub.add_argument("--trace-length", type=int, default=None)
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument(
        "--timeout",
        type=positive_float,
        default=600.0,
        help="client-side socket timeout in seconds (default: 600)",
    )
    p_sub.add_argument("--quiet", action="store_true")
    p_sub.set_defaults(func=_cmd_submit)

    p_st = sub.add_parser(
        "status",
        help="print a running service's counters and run report",
    )
    _add_endpoint_args(p_st)
    p_st.add_argument(
        "--timeout", type=positive_float, default=10.0, help="socket timeout (s)"
    )
    p_st.add_argument(
        "--porcelain",
        action="store_true",
        help="single-line canonical JSON instead of pretty-printed",
    )
    p_st.set_defaults(func=_cmd_status)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the shared result cache",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_cmd", required=True)
    p_cstats = cache_sub.add_parser(
        "stats",
        help="entry count and total bytes on disk",
    )
    p_cprune = cache_sub.add_parser(
        "prune",
        help="delete entries older than an age (GC)",
    )
    for p in (p_cstats, p_cprune):
        p.add_argument(
            "--cache",
            default=None,
            help="cache directory (default: REPRO_RESULT_CACHE)",
        )
        p.set_defaults(func=_cmd_cache)
    p_cprune.add_argument(
        "--older-than",
        required=True,
        dest="older_than",
        type=age_seconds,
        help="age threshold: seconds, or 15m / 12h / 7d",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Settings.from_env()  # a bad REPRO_* value stops here, before any work
    except ValueError as exc:
        parser.error(str(exc))
    return args.func(args)
