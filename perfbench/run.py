"""Run one workload of the paim benchmark and print its metrics.

    python3 perfbench/run.py --workload table1-few-chains --seed 1 --seconds 30 --trace 0

Run from anywhere; ``paim`` is imported from ``src/`` next to this
directory, never from an installed copy. The run repeats rounds of units
(see ``workloads.py``) for about ``--seconds`` of unit time. With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs rounds for half that time untraced, replays the
same units traced, and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it, and
``perfbench/.work/result-<workload>-trace<k>.json``, record the
environment, the record digests and every failed check.

All load comes from this one process. The end-to-end ``setup_s`` is the
median over this process's own set-up and a few set-up-only child
processes, run one after another before any unit.
"""

import os

# Pin native thread pools before numpy is first imported (here or in a child).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / ".work"

WORKLOAD_NAMES = ("table1-few-chains", "table1-many-chains", "frozen-mixture-run")
SETUP_PROBES = {"full": 7, "tiny": 1}
# Share of --seconds spent on the untraced half of a traced run; the traced
# half replays the same units.
TRACE_WINDOW_SHARE = 0.5
END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "projected_study_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mse_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(SETUP_PROBES), default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up seconds (used by the parent run)")
    return p.parse_args(argv)


class Tally:
    """Units attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


def run_unit(workload, i: int, tally: Tally, host=None):
    """Time one unit, then check its outputs untimed. Returns
    ``(seconds, ok)``. ``host``, if given, samples the host's speed first."""
    if host is not None:
        host.sample()
    tally.attempted += 1
    t0 = perf_counter()
    try:
        result = workload.run(i)
    except Exception as exc:  # a unit that raises is counted as failed; the run goes on
        seconds = perf_counter() - t0
        tally.fail(f"unit {i} raised {type(exc).__name__}: {exc}")
        return seconds, False
    seconds = perf_counter() - t0
    try:
        problems = workload.check(i, result)
    except Exception as exc:  # a malformed output is a failed check
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    for problem in problems:
        tally.fail(f"unit {i}: {problem}")
    return seconds, not problems


def run_window(workload, seconds: float, tally: Tally, host=None) -> list[tuple[int, float]]:
    """Repeat rounds of units while the next round is expected to end
    within ``seconds`` of unit time; always run at least one. Returns
    ``(unit, seconds)`` for every execution that passed its checks."""
    passed = []
    spent = 0.0
    while True:
        start = spent
        for i in workload.round_units():
            dt, ok = run_unit(workload, i, tally, host)
            spent += dt
            if ok:
                passed.append((i, dt))
        if spent + (spent - start) > seconds:
            return passed


def setup_probe_seconds(args, host) -> list[float]:
    """Set-up seconds measured in fresh child processes, one at a time,
    each between two host-speed samples."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
    out = []
    for _ in range(SETUP_PROBES[args.size]):
        host.sample()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    host.sample()
    return out


def end_to_end_metrics(workload, executions, setup_seconds, scale: float, setup_scale: float) -> dict:
    """The metrics of BENCHMARK.json. Unit times are scaled to the
    reference host speed by ``scale``, set-up times by ``setup_scale``,
    measured while they ran (see hostspeed.py)."""
    # A unit's time is the median over its repeats, the same statistic
    # as the host speed's. A cell's time is the mean over its passes'
    # units, and a pass is one unit of every cell.
    repeats = defaultdict(list)
    for i, dt in executions:
        repeats[i].append(dt)
    by_cell = defaultdict(list)
    for i, dts in repeats.items():
        by_cell[workload.cell(i)].append(median(dts))
    per_pass = scale * sum(fmean(v) for v in by_cell.values())
    metrics = {
        "samples_per_s": workload.samples_per_unit * len(workload.cells) / per_pass,
        "projected_study_s": workload.study_reps * per_pass,
        "setup_s": setup_scale * median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(workload.pinned_mse) == workload.pinned_units():
        metrics["mse_ratio"] = workload.mse_ratio()
    return metrics


# ----------------------------- environment -----------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the enclosing git checkout, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the paths and contents of src/**/*.py: identifies the
    code measured even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


# ----------------------------- main -----------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paim" / "__init__.py").is_file():
        print(f"error: no paim package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import paim
    import workloads

    import_s = perf_counter() - t0
    if Path(paim.__file__).resolve().parent != (SRC / "paim").resolve():
        print(f"error: imported paim from {paim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.make_workload(args.workload, args.seed, args.size)
    if args.setup_probe:
        workload.setup()
        print(repr(perf_counter() - t0))
        return 0

    import layers
    from hostspeed import HostSpeed
    from tracer import Tracer

    tally = Tally()
    setup_tracer = Tracer()
    with setup_tracer.installed(layers.patches(setup_tracer)) if args.trace else nullcontext():
        for problem in workload.setup():
            tally.fail(f"setup: {problem}")
    setup_seconds = [perf_counter() - t0]
    env = environment(args)

    if args.trace:
        window = run_window(workload, args.seconds * TRACE_WINDOW_SHARE, tally)
        tracer = Tracer()
        with tracer.installed(layers.patches(tracer)):
            replay = [run_unit(workload, i, tally) for i, _ in window]
        both = [(untraced, traced) for (_, untraced), (traced, ok) in zip(window, replay) if ok]
        untraced_s = sum(u for u, _ in both)
        traced_s = sum(t for _, t in both)
        overhead = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        metrics = layers.per_layer_metrics(tracer, max(len(replay), 1), setup_tracer, import_s, overhead)
        units = {name: unit for name, unit in layers.metric_names()}
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        tracer.save(str(WORK_DIR / f"trace-{args.workload}.npz"))
        extra = {"absent_layers": sorted(tracer.absent), "spans": len(tracer.span_start), "units_traced": len(replay)}
    else:
        setup_host = HostSpeed()
        try:
            setup_seconds += setup_probe_seconds(args, setup_host)
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            tally.fail(f"setup probe: {exc}")
        host = HostSpeed()
        window = run_window(workload, args.seconds, tally, host)
        scales = (host.scale(), setup_host.scale())
        metrics = end_to_end_metrics(workload, window, setup_seconds, *scales) if window else {}
        units = END_TO_END_UNITS
        extra = {
            "host_scale": scales,
            "raw_at_host_speed": end_to_end_metrics(workload, window, setup_seconds, 1.0, 1.0) if window else {},
            "units_timed": len(window),
            "unit_seconds": [[i, dt] for i, dt in window],
            "setup_seconds": setup_seconds,
            "mse_reduction_pct": workload.mse_reduction_pct() if "mse_ratio" in metrics else None,
            "failed_share": tally.failed / tally.attempted,
        }
        if args.workload.startswith("table1-") and window:
            extra["table1_projected_s"] = metrics["projected_study_s"]
    if args.workload == "frozen-mixture-run":
        distances = sorted(workload.estimate_distances.values())
        extra["estimate_tolerance"] = workloads.ESTIMATE_TOLERANCE
        extra["estimate_distance_median_max"] = [median(distances), distances[-1]] if distances else None

    correct = tally.failed == 0 and len(metrics) == len(units)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in units.items()},
    }
    record = {
        "environment": env,
        "digests": workload.digests() if workload.pinned_records else None,
        "failures": tally.messages,
        **extra,
        **result,
    }
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    (WORK_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8"
    )

    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={result['attempted']} failed={result['failed']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# digests " + json.dumps(record["digests"], sort_keys=True))
    print("# " + json.dumps(extra, sort_keys=True, default=str))
    for message in tally.messages:
        print(f"# FAILED {message}")
    for name, m in result["metrics"].items():
        print(f"# {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
