"""Smoke test of the benchmark itself: a tiny-size pass over every workload.

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json, with ``--trace 0`` and
``--trace 1`` at ``--size tiny``, checks that ``run.py`` exits 0, that
its last line is an object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, that every output check
passed, and that the metric names and units are exactly those that
BENCHMARK.json lists. Then checks that, in a directory holding only
BENCHMARK.json and the benchmark's files, ``run.py`` exits nonzero
without printing a result. Exits 1 if anything differs; takes about a
minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def result_problems(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        failures = [line for line in proc.stdout.splitlines() if line.startswith("# FAILED")]
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} {failures}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    for name, m in result.get("metrics", {}).items():
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name} value {m.get('value')!r} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = result_problems(run(ROOT, workload, trace), expected[trace])
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    bare_ok = proc.returncode != 0 and not printed_result
    failed |= not bare_ok
    print(f"{'ok  ' if bare_ok else 'FAIL'} without src/: exit code {proc.returncode}, result printed: {printed_result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
