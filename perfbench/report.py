"""Run every workload once and print its metrics as one table.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--trace 0|1]

With ``--trace 0`` (the default) the table holds every end-to-end metric
of every workload, with its unit, followed by the projected wall-clock
of the default ``paim benchmark table1`` (all twelve cells, R=500): the
sum of ``projected_study_s`` over the two ``table1-*`` workloads. With
``--trace 1`` it holds the per-layer metrics, ``trace.overhead_share``
among them. The workloads run one after another, each in its own
``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    for line in proc.stdout.splitlines():
        if line.startswith("# FAILED"):
            print(f"{name}: {line[2:]}", file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    results = {name: run_workload(name, args.seed, seconds, args.trace) for name in names}

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    width = max(len(m["name"]) for m in metrics)
    print(f"{'metric':<{width}} {'unit':<6}" + "".join(f"{n:>22}" for n in names))
    for m in metrics:
        values = "".join(f"{results[n]['metrics'][m['name']]['value']:>22.6g}" for n in names)
        print(f"{m['name']:<{width}} {m['unit']:<6}{values}")
    print(f"{'correct':<{width}} {'':<6}" + "".join(f"{str(results[n]['correct']):>22}" for n in names))
    print(f"{'failed/attempted':<{width}} {'':<6}"
          + "".join(f"{results[n]['failed']:>15}/{results[n]['attempted']:<6}" for n in names))
    if not args.trace:
        table1 = [n for n in names if n.startswith("table1-")]
        total = sum(results[n]["metrics"]["projected_study_s"]["value"] for n in table1)
        print(f"\nprojected default `paim benchmark table1` wall-clock (sum over {', '.join(table1)}): "
              f"{total:.0f} s = {total / 3600:.2f} h")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
