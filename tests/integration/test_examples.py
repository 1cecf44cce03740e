"""The example scripts must run end-to-end (small scales)."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py", "--target", "1500")
    assert "IPC/mm2" in out or "IPC per mm2" in out
    assert "M8" in out and "2M4+2M2" in out


def test_mapping_policy_study():
    out = run_example(
        "mapping_policy_study.py", "--target", "1200", "--max-mappings", "6"
    )
    assert "HEURISTIC" in out
    assert "heuristic accuracy" in out
    assert "BEST" in out and "WORST" in out


def test_design_space_exploration():
    out = run_example(
        "design_space_exploration.py",
        "--workload", "2W1", "--target", "1200", "--max-contexts", "4",
    )
    assert "Best design" in out
    assert "M8 (baseline)" in out


def test_workload_characterization():
    out = run_example("workload_characterization.py", "--target", "800")
    assert "mcf" in out and "eon" in out
    assert "MPKI" in out
    assert "Trace health" in out and "M8 L1I miss" in out
