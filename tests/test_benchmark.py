"""The benchmark still runs on this tree and its output checks pass.

``perfbench/run.py`` checks each unit's records (digests, sample counts,
estimates) as it times them, so a change under ``src/`` that breaks
those checks, or the metrics BENCHMARK.json lists, fails here; so does
one that breaks what the traced replay reads of a run. Each run is made
in a copy of ``BENCHMARK.json``, ``perfbench/`` and ``src/``, so
the run's own output files land in the copy, not in the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def tree_state(top: Path) -> dict:
    return {str(p): p.stat().st_mtime_ns for p in top.rglob("*")}


def run_in_a_copy(tmp_path: Path, *args: str) -> dict:
    """Run ``perfbench/run.py *args`` in a copy of the benchmark and
    ``src/``, check that it passed its own checks, and return its result."""
    perfbench_before = tree_state(ROOT / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("__pycache__", ".work")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, timeout=120, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    failures = [line for line in proc.stdout.splitlines() if line.startswith("# FAILED")]
    assert result["correct"] is True and result["failed"] == 0, failures
    assert result["attempted"] >= 1
    assert (tmp_path / "perfbench" / ".work").is_dir()
    assert tree_state(ROOT / "perfbench") == perfbench_before
    return result


def metric_names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return sorted(m["name"] for m in spec[kind])


def test_tiny_many_chains_run_passes_its_checks(tmp_path):
    result = run_in_a_copy(tmp_path, "--workload", "table1-many-chains", "--size", "tiny",
                           "--trace", "0", "--seconds", "1", "--seed", "3")
    assert sorted(result["metrics"]) == metric_names("end_to_end")


# The traced replay observes each run through run_paim's on_step and reads
# the state's step, active set and clusters, so a change to any of them
# fails here.
@pytest.mark.parametrize("workload", ["table1-many-chains", "frozen-mixture-run"])
def test_tiny_traced_replay_passes_its_checks(tmp_path, workload):
    result = run_in_a_copy(tmp_path, "--workload", workload, "--size", "tiny",
                           "--trace", "1", "--seconds", "1", "--seed", "3")
    assert sorted(result["metrics"]) == metric_names("per_layer")
