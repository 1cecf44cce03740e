"""Self-test of the benchmark at tiny sizes (a few minutes).

    python3 perfbench/selftest.py

Checks, for every workload:

* ``--trace 0`` prints every end-to-end metric with its unit, a clean
  run reports ``failed`` 0 and ``success_rate`` 1;
* ``--trace 1`` prints every per-layer metric with its unit;
* a deliberately corrupted reference output (``--corrupt``) counts as a
  failure, so ``success_rate`` drops below 1;

and that the benchmark exits non-zero, printing no result, in a
directory that holds only ``BENCHMARK.json`` and this directory.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import DETAIL_UNITS, E2E_UNITS, WORKLOADS  # noqa: E402

failures = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(cwd: str, workload: str, *extra: str):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1", "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def units_match(result, expected: dict) -> bool:
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    return got == expected and all(
        isinstance(v.get("value"), float) for v in result["metrics"].values()
    )


def main() -> int:
    per_layer = dict(layers.LAYER_METRICS, **DETAIL_UNITS)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS)
          and {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
          and {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer,
          "BENCHMARK.json lists the workloads and metrics run.py prints")
    for wl in WORKLOADS:
        code, res, err = bench(ROOT, wl, "--trace", "0")
        check(code == 0 and res is not None, f"{wl}: end-to-end run exits 0 with a result")
        if res is not None:
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl}: result has exactly the four keys")
            check(units_match(res, E2E_UNITS), f"{wl}: every end-to-end metric, with its unit")
            check(res["correct"] and res["failed"] == 0
                  and res["metrics"]["success_rate"]["value"] == 1.0,
                  f"{wl}: clean run has no failure")
        else:
            print(err[-2000:])
        code, res, err = bench(ROOT, wl, "--trace", "1")
        check(code == 0 and res is not None and units_match(res, per_layer),
              f"{wl}: traced run prints every per-layer metric, with its unit")
        if res is None:
            print(err[-2000:])
        code, res, err = bench(ROOT, wl, "--trace", "0", "--corrupt")
        check(code == 0 and res is not None and res["failed"] > 0
              and not res["correct"]
              and res["metrics"]["success_rate"]["value"] < 1.0,
              f"{wl}: a corrupted output counts as a failure")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, res, _ = bench(bare, WORKLOADS[0], "--trace", "0")
        check(code != 0 and res is None,
              "without the sources it exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # a benchmark run is using it

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
