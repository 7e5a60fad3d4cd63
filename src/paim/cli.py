"""Command-line entry points.

    paim run --config cfg.json [--seed S] [--out DIR] [--workers K]
    paim benchmark table1 --n 5,10 --ttrain 1,10,20 --reps 200 [--workers K]
    paim oracle --target banana --bounds -15 15 --points 2001

The format of ``paim run``'s config file is described, with an
example, on :class:`paim.harness.ExperimentConfig`.

``--workers K`` runs up to K of a study's (replication, algorithm) runs
at once, in K forked processes; the default is every CPU this process
may use, and ``--workers 1`` runs them one after another in this
process.
The output is the same for every K.

``paim run`` writes each algorithm's ``samples.csv``, ``activity.csv``,
``params.json`` and ``ellipses.csv`` in the process that made its first
replication's run, a forked one when K > 1, so that with two workers
PAIM's and IPC's are written at the same time. They go into a hidden
staging directory of the algorithm's output directory. Once every run
has succeeded, this process moves them into place and writes each
``summary.json``, which needs both algorithms. So the files appear only
after the whole study has succeeded: a failed run writes none, and
leaves those of an earlier run as they were.

``paim benchmark`` reports each cell's seconds and an ETA on stderr;
stdout holds only the results.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from .harness import (
    OUTPUT_FILES,
    ConfigError,
    ExperimentConfig,
    default_grid,
    make_target,
    replicate,
    usable_workers,
    write_json,
)
from .targets import AllZeroMass, check_points, grid_expectation


# The hidden directory, inside an output directory, where paim run's files
# wait until every run of the study has succeeded.
STAGING_DIR = ".part"


def _comma_ints(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    # A repeated value would run its cells once but print them twice.
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected distinct comma-separated integers, got {text!r}")
    return values


# A negative number, in exponent form too. argparse before Python 3.13
# takes only -N and -N.N for a number, so it reads "--bounds -1e1 10" as
# an option "-1e1" and reports "expected 2 arguments".
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

WORKERS_HELP = "forked processes making runs at once (default: every usable CPU; 1: only this process)"


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
    oracle_p.add_argument("--bounds", type=float, nargs=2, default=None, metavar=("LOW", "HIGH"),
                          help="per-axis grid bounds (default: -15 15)")
    oracle_p.add_argument("--points", type=int, default=None,
                          help="grid points per axis (default: 2001, or 201 for a 3-D target)")
    oracle_p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def cmd_run(args) -> int:
    import shutil  # here, so that importing paim does not pay for it

    config = ExperimentConfig.load(args.config)
    # replace() runs the config's checks again, on the overridden value.
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    workers = usable_workers(args.workers)
    # Both algorithms write a directory each. Every one is made before
    # any run, so a place that cannot hold it fails at once.
    if config.algorithm == "both":
        out_dirs = {name: os.path.join(config.output_dir, name) for name in ("paim", "ipc")}
    else:
        out_dirs = {config.algorithm: config.output_dir}
    for out_dir in out_dirs.values():
        os.makedirs(out_dir, exist_ok=True)
    # The first replication's runs write their files where they ran, into
    # staging directories. Only once every run has succeeded are the files
    # moved into place beside summary.json; a failed run writes none there.
    staging = {name: os.path.join(out_dir, STAGING_DIR) for name, out_dir in out_dirs.items()}
    try:
        report = replicate(config, workers, staging)
        written = []
        for name, out_dir in sorted(out_dirs.items()):
            for file in OUTPUT_FILES:
                path = os.path.join(out_dir, file)
                if file == "summary.json":
                    write_json(path, report.to_dict())
                else:
                    os.replace(os.path.join(staging[name], file), path)
                written.append(path)
    finally:
        # replicate has stopped every pool worker, so none writes there now.
        for staged in staging.values():
            shutil.rmtree(staged, ignore_errors=True)
    for path in written:
        print(path)
    return 0


def cmd_benchmark(args) -> int:
    # The workers, every cell's config and every cell's output directory
    # are checked before the grid oracle runs. The base config is the
    # first cell's.
    workers = usable_workers(args.workers)
    base = ExperimentConfig(
        algorithm="both",
        target_name="banana",
        target_params={},
        n_chains=args.n[0],
        total_samples=args.samples,
        t_train=args.ttrain[0],
        box_lower=[-15.0, -15.0],
        box_upper=[15.0, 15.0],
        sigma=10.0,
        replications=args.reps,
        base_seed=args.seed,
    )
    configs = {
        (t_train, n): replace(base, n_chains=n, t_train=t_train) for t_train in args.ttrain for n in args.n
    }
    cell_dirs = {}
    if args.out is not None:
        cell_dirs = {(t_train, n): os.path.join(args.out, f"ttrain{t_train}_n{n}") for t_train, n in configs}
        for cell_dir in cell_dirs.values():
            os.makedirs(cell_dir, exist_ok=True)
    grid = default_grid(2)
    truth = grid_expectation(make_target("banana"), grid.lower, grid.upper, grid.points_per_axis)
    cells: dict[tuple[int, int], float] = {}
    total, done = len(configs), 0
    start = last = time.perf_counter()
    for (t_train, n), config in configs.items():
        report = replicate(replace(config, truth=truth), workers)
        cells[(t_train, n)] = report.reduction_pct
        if cell_dirs:
            write_json(os.path.join(cell_dirs[(t_train, n)], "summary.json"), report.to_dict())
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
    grid = default_grid(target.dim)
    if args.bounds is not None:
        grid = replace(grid, lower=np.full(target.dim, args.bounds[0]), upper=np.full(target.dim, args.bounds[1]))
    if args.points is not None:
        check_points("--points", args.points)
        grid = replace(grid, points_per_axis=args.points)
    value = grid_expectation(target, grid.lower, grid.upper, grid.points_per_axis)
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
    except MemoryError as exc:
        # A MemoryError raised by Python itself carries no text.
        reason = str(exc) or "an allocation failed; a smaller study or grid needs less"
        print(f"error: out of memory: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
