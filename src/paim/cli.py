"""Command-line entry points.

    paim run --config cfg.json [--seed S] [--out DIR] [--workers K]
    paim benchmark table1 --n 5,10 --ttrain 1,10,20 --reps 200 [--workers K]
    paim oracle --target banana --bounds -15 15 --points 2001

``--workers K`` runs up to K of a study's (replication, algorithm) runs
at once, in this process and K - 1 forked ones; the default is every
CPU this process may use, and ``--workers 1`` runs them one after
another in this process.
The output is the same for every K. ``paim benchmark`` reports each
cell's seconds and an ETA on stderr; stdout holds only the results.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from .harness import ConfigError, ExperimentConfig, emit_outputs, make_target, replicate, usable_workers
from .targets import AllZeroMass, grid_expectation


def _comma_ints(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


# A negative number, in exponent form too. argparse before Python 3.13
# takes only -N and -N.N for a number, so it reads "--bounds -1e1 10" as
# an option "-1e1" and reports "expected 2 arguments".
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

WORKERS_HELP = "processes making runs at once, this one included (default: every usable CPU; 1: only this one)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paim", description="Adaptive parallel independence-Metropolis sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config and write its output files")
    run_p.add_argument("--config", required=True, help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config base_seed")
    run_p.add_argument("--out", default=None, help="override the config output directory")
    run_p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)

    bench_p = sub.add_parser("benchmark", help="run a predefined benchmark suite")
    bench_p.add_argument("suite", choices=["table1"], help="benchmark to run")
    bench_p.add_argument("--n", type=_comma_ints, default=[5, 10, 50, 100], help="chain counts, comma-separated")
    bench_p.add_argument("--ttrain", type=_comma_ints, default=[1, 10, 20], help="training lengths, comma-separated")
    bench_p.add_argument("--reps", type=int, default=500, help="replications per cell")
    bench_p.add_argument("--samples", type=int, default=5000, help="total samples per run")
    bench_p.add_argument("--seed", type=int, default=0, help="base seed")
    bench_p.add_argument("--out", default=None, help="optional directory for per-cell summary.json files")
    bench_p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)

    oracle_p = sub.add_parser("oracle", help="print the grid-oracle E[X] of a target")
    oracle_p.add_argument("--target", default="banana", help="target name (banana, gaussian, gaussian_mixture)")
    oracle_p.add_argument("--params", default=None, help="JSON object of target parameters")
    oracle_p.add_argument("--bounds", type=float, nargs=2, default=[-15.0, 15.0], metavar=("LOW", "HIGH"),
                          help="per-axis grid bounds")
    oracle_p.add_argument("--points", type=int, default=2001, help="grid points per axis")
    oracle_p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def cmd_run(args) -> int:
    config = ExperimentConfig.load(args.config)
    if args.seed is not None:
        config.base_seed = args.seed
    if args.out is not None:
        config.output_dir = args.out
    report = replicate(config, args.workers)
    if len(report.records) == 1:
        (record,) = report.records.values()
        written = emit_outputs(record, report, config.output_dir)
    else:
        written = []
        for name, record in sorted(report.records.items()):
            written += emit_outputs(record, report, os.path.join(config.output_dir, name))
    for path in written:
        print(path)
    return 0


def cmd_benchmark(args) -> int:
    workers = usable_workers(args.workers)  # checked before the grid oracle runs
    truth = grid_expectation(make_target("banana"), [-15.0, -15.0], [15.0, 15.0], 2001)
    cells: dict[tuple[int, int], float] = {}
    total, done = len(args.ttrain) * len(args.n), 0
    start = last = time.perf_counter()
    for t_train in args.ttrain:
        for n in args.n:
            config = ExperimentConfig(
                algorithm="both",
                target_name="banana",
                target_params={},
                n_chains=n,
                total_samples=args.samples,
                t_train=t_train,
                box_lower=[-15.0, -15.0],
                box_upper=[15.0, 15.0],
                sigma=10.0,
                replications=args.reps,
                base_seed=args.seed,
                truth=truth,
            )
            report = replicate(config, workers)
            cells[(t_train, n)] = report.reduction_pct
            if args.out is not None:
                cell_dir = os.path.join(args.out, f"ttrain{t_train}_n{n}")
                os.makedirs(cell_dir, exist_ok=True)
                with open(os.path.join(cell_dir, "summary.json"), "w", encoding="utf-8") as fh:
                    json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
            print(f"cell t_train={t_train} n={n}: reduction {report.reduction_pct:.2f}%", flush=True)
            # Progress goes to stderr, so that stdout holds only the results.
            # The ETA assumes each cell left costs the mean of those done.
            done += 1
            now = time.perf_counter()
            print(f"cell {done}/{total} t_train={t_train} n={n}: {now - last:.1f} s, "
                  f"ETA {(now - start) / done * (total - done):.0f} s", file=sys.stderr, flush=True)
            last = now

    print()
    print(f"MSE reduction (%) of adaptive vs fixed proposals, banana target, "
          f"L={args.samples}, R={args.reps}")
    header = "t_train " + "".join(f"{'N=' + str(n):>10}" for n in args.n)
    print(header)
    for t_train in args.ttrain:
        row = f"{t_train:<8}" + "".join(f"{cells[(t_train, n)]:>10.2f}" for n in args.n)
        print(row)
    return 0


def cmd_oracle(args) -> int:
    params = json.loads(args.params) if args.params else {}
    target = make_target(args.target, params)
    low, high = args.bounds
    lower = np.full(target.dim, low)
    upper = np.full(target.dim, high)
    value = grid_expectation(target, lower, upper, args.points)
    print("E[X]: " + " ".join(f"{v:.17g}" for v in value))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "benchmark":
            return cmd_benchmark(args)
        return cmd_oracle(args)
    except (ConfigError, AllZeroMass, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
