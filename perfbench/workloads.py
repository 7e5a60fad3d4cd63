"""The benchmark's workloads: inputs, timed units and output checks.

One *unit* is one replication with both algorithms (adaptive PAIM and
the fixed-proposal IPC baseline) of one cell of the workload:

* ``table1-*``: one ``harness.replicate`` call for one Table-1 cell
  (banana target, L=5000, ``t_stop=inf``); the workload has six cells.
* ``frozen-mixture-run``: one in-process ``paim run`` of a three-mode
  Gaussian-mixture config whose adaptation stops at step 20, writing
  all five output files; the workload has one cell.

A *pass* runs every cell once at one seed, and a *round* runs
``PASSES`` passes: pass 0 at the pinned seed that ``paim benchmark
table1`` and the mixture config use by default, pass 1 at a seed derived
from ``--seed``. Unit ``i`` is cell ``i % cells`` of pass ``i // cells``.

Every call into ``paim`` goes through a module attribute
(``harness.replicate``, ``paim.cli.main``) so the tracer's patches take
effect. The pinned units give the record digests and the MSE ratio,
which therefore repeat exactly for any ``--seed`` while the program's
records stay bit-identical.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import paim.cli
import paim.harness as harness

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

PINNED_SEED = 0
PASSES = 2
TABLE1_REPS = 500  # replications per cell in `paim benchmark table1` by default
BOX_LOWER = [-15.0, -15.0]
BOX_UPPER = [15.0, 15.0]
INIT_SIGMA = 10.0
GRID_POINTS = 2001
# grid_expectation(make_target("banana"), [-15, -15], [15, 15], 2001) when
# the benchmark was defined.
BANANA_TRUTH = np.array([-1.094901273270262, -3.368874202531547e-17])

MIXTURE = {
    "means": [[-8.0, -8.0], [0.0, 8.0], [8.0, -4.0]],
    "covs": [[[1.0, 0.5], [0.5, 1.0]], [[2.0, 0.0], [0.0, 0.5]], [[1.0, -0.3], [-0.3, 1.0]]],
    "weights": [0.5, 0.3, 0.2],
}
MIXTURE_MEAN = [-2.4, -2.4]  # sum of weights * means
MIXTURE_SAMPLES = 20000
# Largest Euclidean distance allowed between the pinned unit's pooled PAIM
# estimate and MIXTURE_MEAN. Frozen proposals accept only ~5% of moves, so
# the Monte Carlo error is large: over 40 seeds at L=20000 the distance had
# a 90th percentile of 1.84 (2.39 at the pinned seed), and one seed's run
# stuck on the (-8, -8) mode and landed 7.07 away. Units at other seeds are
# therefore not held to this tolerance; their distances are recorded.
ESTIMATE_TOLERANCE = 3.0
OUTPUT_FILES = ("samples.csv", "activity.csv", "params.json", "summary.json", "ellipses.csv")

# Samples per Table-1 run; "tiny" is for the smoke test. The mixture run
# keeps MIXTURE_SAMPLES at every size, since ESTIMATE_TOLERANCE depends on it.
TABLE1_SAMPLES = {"full": 5000, "tiny": 300}


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint32)[0])


def update_digest(h, record) -> None:
    """Feed ``samples``, ``sample_accepted``, ``activity`` and ``budgets`` to ``h``."""
    for values, dtype in (
        (record["samples"], np.float64),
        (record["sample_accepted"], np.bool_),
        (record["activity"], np.bool_),
        (record["budgets"], np.int64),
    ):
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())


def record_problems(record, total: int, n_chains: int) -> list[str]:
    """Shape, finiteness and budget checks on one run's record."""
    problems = []
    samples = np.asarray(record["samples"])
    if samples.shape != (total, 2) or not np.isfinite(samples).all():
        problems.append(f"samples: shape {samples.shape} (want ({total}, 2)) or non-finite values")
    if np.asarray(record["sample_accepted"]).shape != (total,):
        problems.append("sample_accepted has the wrong length")
    if np.asarray(record["activity"]).shape[1:] != (n_chains,):
        problems.append("activity has the wrong number of chains")
    if int(np.sum(record["budgets"])) != total:
        problems.append(f"budgets sum to {int(np.sum(record['budgets']))}, not {total}")
    return problems


def _fields(record) -> dict:
    return {
        "samples": record.samples,
        "sample_accepted": record.sample_accepted,
        "activity": record.activity,
        "budgets": record.budgets,
    }


class Workload:
    """Shared bookkeeping: unit digests (to prove replays identical) and
    the pinned units' MSEs and digests."""

    cells: list
    samples: int
    study_reps: int

    def __init__(self, seed: int):
        self.seed = seed
        self.unit_digests: dict[int, str] = {}
        self.pinned_mse: dict[int, tuple[float, float]] = {}
        self.pinned_records: dict[int, dict] = {}

    @property
    def samples_per_unit(self) -> int:
        return 2 * self.samples

    def cell(self, i: int) -> int:
        return i % len(self.cells)

    def pinned_units(self) -> int:
        return len(self.cells)

    def round_units(self) -> range:
        return range(PASSES * len(self.cells))

    def unit_seed(self, i: int) -> int:
        p = i // len(self.cells)
        return PINNED_SEED if p == 0 else derived_seed(self.seed, p)

    def _remember(self, i: int, records: dict, mse: tuple[float, float]) -> list[str]:
        h = hashlib.sha256()
        for name in ("paim", "ipc"):
            update_digest(h, records[name])
        digest = h.hexdigest()
        if self.unit_digests.setdefault(i, digest) != digest:
            return [f"unit {i} records differ from an earlier run of the same unit"]
        if i < self.pinned_units():
            self.pinned_mse[i] = mse
            self.pinned_records[i] = records
        return []

    def digests(self) -> dict[str, str]:
        """SHA-256 per algorithm over the first record of each pinned unit."""
        out = {}
        for name in ("paim", "ipc"):
            h = hashlib.sha256()
            for i in sorted(self.pinned_records):
                update_digest(h, self.pinned_records[i][name])
            out[name] = h.hexdigest()
        return out

    def mse_ratio(self) -> float:
        """Pooled PAIM MSE over pooled IPC MSE across the pinned units."""
        paim_mse = sum(m[0] for m in self.pinned_mse.values())
        ipc_mse = sum(m[1] for m in self.pinned_mse.values())
        return paim_mse / ipc_mse

    def mse_reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.mse_ratio())


class Table1Workload(Workload):
    study_reps = TABLE1_REPS

    def __init__(self, seed: int, size: str, chain_counts):
        super().__init__(seed)
        self.samples = TABLE1_SAMPLES[size]
        # Same order as `paim benchmark table1`: t_train outer, N inner.
        self.cells = [(n, t_train) for t_train in (1, 10, 20) for n in chain_counts]

    def setup(self) -> list[str]:
        self.target = harness.make_target("banana")
        grid = harness.GridSpec(np.array(BOX_LOWER), np.array(BOX_UPPER), GRID_POINTS)
        self.truth = harness.resolve_truth(self._config(self.cells[0], PINNED_SEED, truth=grid), self.target)
        if not np.allclose(self.truth, BANANA_TRUTH, rtol=0.0, atol=1e-12):
            return [f"banana truth {self.truth.tolist()} != grid oracle reference {BANANA_TRUTH.tolist()}"]
        return []

    def _config(self, cell, base_seed, truth):
        n, t_train = cell
        return harness.ExperimentConfig(
            algorithm="both",
            target_name="banana",
            target_params={},
            n_chains=n,
            total_samples=self.samples,
            t_train=t_train,
            t_stop=math.inf,
            epsilon=0.4,
            box_lower=BOX_LOWER,
            box_upper=BOX_UPPER,
            sigma=INIT_SIGMA,
            replications=1,
            base_seed=base_seed,
            truth=truth,
        )

    def run(self, i: int):
        return harness.replicate(self._config(self.cells[self.cell(i)], self.unit_seed(i), self.truth))

    def check(self, i: int, report) -> list[str]:
        n, _ = self.cells[self.cell(i)]
        problems = []
        if report.truth != [float(v) for v in self.truth]:
            problems.append(f"report truth {report.truth} is not the grid oracle's")
        records = {}
        for name in ("paim", "ipc"):
            record = report.records.get(name)
            if record is None:
                problems.append(f"report has no {name} record")
                continue
            records[name] = _fields(record)
            problems += [f"{name}: {p}" for p in record_problems(records[name], self.samples, n)]
        mse = (report.paim.mse, report.ipc.mse)
        if not all(math.isfinite(m) and m > 0.0 for m in mse):
            problems.append(f"MSEs {mse} are not finite and positive")
        if problems:
            return problems
        return self._remember(i, records, mse)


class FrozenMixtureWorkload(Workload):
    cells = ["run"]
    study_reps = 1  # the config's replications

    def __init__(self, seed: int):
        super().__init__(seed)
        self.samples = MIXTURE_SAMPLES
        self.estimate_distances: dict[int, float] = {}
        self.dir = WORK / "frozen-mixture-run"
        self.config_path = self.dir / "config.json"
        self.out = self.dir / "out"

    def setup(self) -> list[str]:
        raw = {
            "algorithm": "both",
            "target": {"name": "gaussian_mixture", "params": MIXTURE},
            "sampler": {"n_chains": 10, "total_samples": self.samples, "t_train": 10, "t_stop": 20},
            "init": {"box_lower": BOX_LOWER, "box_upper": BOX_UPPER, "sigma": INIT_SIGMA},
            "replications": 1,
            "base_seed": PINNED_SEED,
            "truth": MIXTURE_MEAN,
        }
        shutil.rmtree(self.out, ignore_errors=True)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
        config = harness.ExperimentConfig.load(str(self.config_path))
        self.n_chains = config.n_chains
        self.target = harness.make_target(config.target_name, config.target_params)
        self.truth = harness.resolve_truth(config, self.target)
        return []

    def run(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = paim.cli.main(
                ["run", "--config", str(self.config_path), "--seed", str(self.unit_seed(i)), "--out", str(self.out)]
            )
        return code, buf.getvalue()

    def check(self, i: int, result) -> list[str]:
        try:
            return self._check(i, result)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _check(self, i: int, result) -> list[str]:
        code, stdout = result
        if code != 0:
            return [f"paim run exited with {code}"]
        expected = {str(self.out / name / f) for name in ("paim", "ipc") for f in OUTPUT_FILES}
        if set(stdout.split()) != expected:
            return [f"paim run listed {sorted(stdout.split())}, expected {sorted(expected)}"]

        problems = []
        summaries = [json.loads((self.out / name / "summary.json").read_text(encoding="utf-8")) for name in ("paim", "ipc")]
        if summaries[0] != summaries[1]:
            problems.append("paim/summary.json and ipc/summary.json differ")
        summary = summaries[0]
        records = {}
        for name in ("paim", "ipc"):
            records[name], more = self._read_run(self.out / name, summary[name])
            problems += [f"{name}: {p}" for p in more]
        if problems:
            return problems

        paim_mse, ipc_mse = summary["paim"]["mse"], summary["ipc"]["mse"]
        reduction = 100.0 * (ipc_mse - paim_mse) / ipc_mse
        if not math.isclose(summary["reduction_pct"], reduction, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"summary reduction_pct {summary['reduction_pct']} != {reduction} from its MSEs")
        distance = math.dist(summary["paim"]["estimates"][0], MIXTURE_MEAN)
        self.estimate_distances[i] = distance
        if i < self.pinned_units() and not distance <= ESTIMATE_TOLERANCE:
            problems.append(f"PAIM estimate is {distance:.3f} from E[X]={MIXTURE_MEAN} (tolerance {ESTIMATE_TOLERANCE})")
        if problems:
            return problems
        return self._remember(i, records, (paim_mse, ipc_mse))

    def _read_run(self, run_dir: Path, summary: dict) -> tuple[dict, list[str]]:
        """Parse one algorithm's files; check them against each other and
        against its part of summary.json."""
        n, total = self.n_chains, self.samples
        with open(run_dir / "samples.csv", encoding="utf-8") as fh:
            header = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        with open(run_dir / "activity.csv", encoding="utf-8") as fh:
            activity_header = fh.readline().strip()
            activity_rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
        json.loads((run_dir / "params.json").read_text(encoding="utf-8"))
        with open(run_dir / "ellipses.csv", encoding="utf-8", newline="") as fh:
            ellipses = list(csv.reader(fh))

        problems = []
        if header != "t,chain,k_n,x_1,x_2,accepted" or rows.shape != (total, 6):
            return {}, [f"samples.csv: header {header!r}, shape {rows.shape}, want {total} rows of 6"]
        if activity_header != "t,chain,active" or activity_rows.shape[1] != 3 or activity_rows.shape[0] % n:
            return {}, [f"activity.csv: header {activity_header!r}, shape {activity_rows.shape}"]
        for row in ellipses[1:]:
            if len(row) != len(ellipses[0]) or not all(math.isfinite(float(v)) for v in row[2:]):
                problems.append(f"ellipses.csv: bad row {row}")
        record = {
            "samples": rows[:, 3:5],
            "sample_accepted": rows[:, 5].astype(bool),
            "activity": activity_rows[:, 2].reshape(-1, n).astype(bool),
            "budgets": np.asarray(summary["budgets"][0], dtype=np.int64),
        }
        problems += record_problems(record, total, n)
        if not np.allclose(summary["estimates"][0], record["samples"].mean(axis=0), rtol=0.0, atol=1e-12):
            problems.append("summary estimate is not the mean of samples.csv")
        if not np.array_equal(record["budgets"], np.bincount(rows[:, 1].astype(np.int64), minlength=n)):
            problems.append("summary budgets disagree with the chain column of samples.csv")
        if summary["t_total"][0] != record["activity"].shape[0]:
            problems.append("summary t_total disagrees with activity.csv")
        if not math.isclose(summary["acceptance_rates"][0], float(record["sample_accepted"].mean()), abs_tol=1e-12):
            problems.append("summary acceptance rate disagrees with samples.csv")
        if summary["final_active"][0] != int(record["activity"][-1].sum()):
            problems.append("summary final_active disagrees with activity.csv")
        return record, problems


def make_workload(name: str, seed: int, size: str) -> Workload:
    if name == "table1-few-chains":
        return Table1Workload(seed, size, (5, 10))
    if name == "table1-many-chains":
        return Table1Workload(seed, size, (50, 100))
    if name == "frozen-mixture-run":
        return FrozenMixtureWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
