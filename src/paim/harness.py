"""Experiment orchestration: configs, seeded replication, file outputs.

A study is described by one JSON config (target, sampler settings,
initialization box, replication count, ground truth). Each replication
draws a fresh random initialization that is shared between the adaptive
sampler and the fixed-proposal baseline, runs whichever algorithms were
requested with matched random streams, and estimates E[X] from the
returned samples. Aggregated MSEs and per-run diagnostics land in a
:class:`SummaryReport`; per-sample, per-step, and final-proposal data
can be written out as CSV/JSON for plotting.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Optional, Union

import numpy as np

from .gaussian import NotPositiveDefinite, check_sigma
from .moments import mean_square_error
from .sampler import PaimConfig, RunRecord, check_settings, run_ipc, run_paim
from .targets import (
    BananaParams,
    TargetDensity,
    check_box,
    grid_expectation,
    make_banana_target,
    make_gaussian_mixture_target,
    make_gaussian_target,
)

ELLIPSE_MASS = 0.90


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


# ----------------------------- targets by name -----------------------------

def make_target(name: str, params: Optional[dict] = None) -> TargetDensity:
    """Build a target density from its config-file name and parameters."""
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ConfigError("target params must be a JSON object")
    try:
        if name == "banana":
            return make_banana_target(BananaParams(**params))
        if name == "gaussian":
            mean = _numbers(params["mean"], "target.params.mean")
            if "cov" in params:
                cov = _numbers(params["cov"], "target.params.cov")
            else:
                sigma = _number(params.get("sigma", 1.0), "target.params.sigma")
                check_sigma("sigma", sigma)
                cov = sigma * sigma * np.eye(mean.size)
            return make_gaussian_target(mean, cov)
        if name == "gaussian_mixture":
            weights = params.get("weights")
            return make_gaussian_mixture_target(
                _numbers(params["means"], "target.params.means"),
                _numbers(params["covs"], "target.params.covs"),
                None if weights is None else _numbers(weights, "target.params.weights"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for target {name!r}: {exc}") from exc
    raise ConfigError(f"unknown target {name!r} (expected banana, gaussian, or gaussian_mixture)")


# ----------------------------- initialization -----------------------------

def random_init(n_chains: int, lower: np.ndarray, upper: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw all component means (n_chains, 2, d) and start states
    (n_chains, d) uniformly in the box from ``lower`` to ``upper``."""
    dim = lower.shape[0]
    return rng.uniform(lower, upper, size=(n_chains, 2, dim)), rng.uniform(lower, upper, size=(n_chains, dim))


# ----------------------------- experiment config -----------------------------

@dataclass(frozen=True)
class GridSpec:
    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: int


# The keys of a config file, per section ("" is the top level).
CONFIG_FIELDS = {
    "": ("algorithm", "target", "sampler", "init", "replications", "base_seed", "output_dir", "truth"),
    "target": ("name", "params"),
    "sampler": ("n_chains", "total_samples", "t_train", "t_stop", "epsilon"),
    "init": ("box_lower", "box_upper", "sigma"),
}


@dataclass
class ExperimentConfig:
    algorithm: str                  # "paim", "ipc", or "both"
    target_name: str
    target_params: Optional[dict]
    n_chains: int
    total_samples: int
    t_train: int
    box_lower: np.ndarray
    box_upper: np.ndarray
    sigma: float
    t_stop: float = PaimConfig.t_stop
    epsilon: float = PaimConfig.epsilon
    replications: int = 1
    base_seed: int = 0
    output_dir: str = "out"
    truth: Union[np.ndarray, GridSpec, str, None] = None  # "grid": the default grid box

    def __post_init__(self):
        self.box_lower = np.asarray(self.box_lower, dtype=float)
        self.box_upper = np.asarray(self.box_upper, dtype=float)
        if self.algorithm not in ("paim", "ipc", "both"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r} (expected paim, ipc, or both)")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        # Checked once per study, before the grid oracle runs.
        try:
            check_box("initialization box", self.box_lower, self.box_upper)
            check_settings(self.n_chains, self.total_samples, self.t_train, self.t_stop, self.epsilon, self.sigma,
                           sigma_name="sigma")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Parse a config file's object; an unknown key is an error, so a
        misspelt or retired field cannot be silently ignored."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for section, fields in CONFIG_FIELDS.items():
            values = raw.get(section, {}) if section else raw
            if not isinstance(values, dict):
                raise ConfigError(f"config field {section} must be a JSON object")
            unknown = sorted(set(values) - set(fields))
            if unknown:
                raise ConfigError(f"unknown config field: {section + '.' if section else ''}{unknown[0]}")
        try:
            target = raw["target"]
            sampler = raw["sampler"]
            init = raw["init"]
            t_stop = sampler.get("t_stop")  # null: never stop adapting
            return cls(
                algorithm=raw.get("algorithm", "both"),
                target_name=target["name"],
                target_params=target.get("params"),
                n_chains=_integer(sampler["n_chains"], "sampler.n_chains"),
                total_samples=_integer(sampler["total_samples"], "sampler.total_samples"),
                t_train=_integer(sampler["t_train"], "sampler.t_train"),
                t_stop=cls.t_stop if t_stop is None else _number(t_stop, "sampler.t_stop"),
                epsilon=_number(sampler.get("epsilon", cls.epsilon), "sampler.epsilon"),
                box_lower=_numbers(init["box_lower"], "init.box_lower"),
                box_upper=_numbers(init["box_upper"], "init.box_upper"),
                sigma=_number(init["sigma"], "init.sigma"),
                replications=_integer(raw.get("replications", 1), "replications"),
                base_seed=_integer(raw.get("base_seed", 0), "base_seed"),
                output_dir=_string(raw.get("output_dir", "out"), "output_dir"),
                truth=_parse_truth(raw.get("truth")),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc.args[0]}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


def _integer(value, name: str) -> int:
    # int() would truncate 2.7 and accept true, running a wrong but
    # plausible study.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"bad config value: {name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    # float() would accept true and "30".
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"bad config value: {name} must be a number, got {value!r}")
    return float(value)


def _numbers(value, name: str) -> np.ndarray:
    # np.asarray(..., dtype=float) would accept ["1", false].
    def numeric(v) -> bool:
        if isinstance(v, list):
            return all(map(numeric, v))
        return not isinstance(v, bool) and isinstance(v, (int, float))

    if not numeric(value):
        raise ConfigError(f"bad config value: {name} must be a number or a list of numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"bad config value: {name} must be a string, got {value!r}")
    return value


def _parse_truth(raw) -> Union[np.ndarray, GridSpec, str, None]:
    if raw is None or raw == "grid":
        return raw
    if isinstance(raw, dict) and "grid" in raw:
        g = raw["grid"]
        return GridSpec(
            lower=_numbers(g["lower"], "truth.grid.lower"),
            upper=_numbers(g["upper"], "truth.grid.upper"),
            points_per_axis=_integer(g["points_per_axis"], "truth.grid.points_per_axis"),
        )
    return _numbers(raw, "truth")


def resolve_truth(config: ExperimentConfig, target: TargetDensity) -> np.ndarray:
    """Ground-truth E[X] as a vector, running the grid oracle if asked."""
    truth = config.truth
    if truth is None:
        raise ConfigError("no ground truth: give a truth vector or a grid directive")
    if isinstance(truth, str) and truth == "grid":
        d = target.dim
        truth = GridSpec(np.full(d, -15.0), np.full(d, 15.0), 2001 if d <= 2 else 201)
    if isinstance(truth, GridSpec):
        return grid_expectation(target, truth.lower, truth.upper, truth.points_per_axis)
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (target.dim,):
        raise ConfigError(f"truth vector must have shape ({target.dim},), got {truth.shape}")
    return truth


# ----------------------------- replication -----------------------------

@dataclass
class AlgorithmSummary:
    mse: float = math.nan      # set by replicate once every replication has run
    estimates: list = field(default_factory=list)  # per-replication E[X] estimates
    budgets: list = field(default_factory=list)    # per-replication K_n vectors
    t_total: list = field(default_factory=list)
    acceptance_rates: list = field(default_factory=list)
    final_active: list = field(default_factory=list)

    def add(self, row: tuple) -> None:
        """Append one run's row, as :func:`summary_row` made it."""
        estimate, budgets, t_total, acceptance_rate, final_active = row
        self.estimates.append(estimate)
        self.budgets.append(budgets)
        self.t_total.append(t_total)
        self.acceptance_rates.append(acceptance_rate)
        self.final_active.append(final_active)


def summary_row(record: RunRecord) -> tuple:
    """One run's entries of :class:`AlgorithmSummary`, in its field order.
    The E[X] estimate of a run is the mean of its recorded samples."""
    return (
        [float(v) for v in record.samples.mean(axis=0)],
        [int(k) for k in record.budgets],
        record.t_total,
        record.acceptance_rate,
        record.final_active_count,
    )


@dataclass
class SummaryReport:
    algorithm: str
    target_name: str
    replications: int
    truth: list
    paim: Optional[AlgorithmSummary] = None
    ipc: Optional[AlgorithmSummary] = None
    reduction_pct: Optional[float] = None
    records: dict = field(default_factory=dict, repr=False, compare=False)

    def to_dict(self) -> dict:
        def algo(s):
            return None if s is None else asdict(s)

        return {
            "algorithm": self.algorithm,
            "target": self.target_name,
            "replications": self.replications,
            "truth": self.truth,
            "paim": algo(self.paim),
            "ipc": algo(self.ipc),
            "reduction_pct": self.reduction_pct,
        }


def replication_config(config: ExperimentConfig, rep: int) -> PaimConfig:
    """The run settings of replication ``rep``: its own initialization
    draw and sampling seed, from child ``rep`` of ``config.base_seed``'s
    seed sequence. Both algorithms of a replication run these settings."""
    # Child rep of SeedSequence(base_seed).spawn(R), made without the others.
    init_ss, sample_ss = np.random.SeedSequence(config.base_seed, spawn_key=(rep,)).spawn(2)
    init_means, init_states = random_init(
        config.n_chains, config.box_lower, config.box_upper, np.random.default_rng(init_ss)
    )
    return PaimConfig(
        n_chains=config.n_chains,
        total_samples=config.total_samples,
        t_train=config.t_train,
        t_stop=config.t_stop,
        epsilon=config.epsilon,
        init_means=init_means,
        init_states=init_states,
        init_sigma=config.sigma,
        seed=int(sample_ss.generate_state(1, dtype=np.uint64)[0]),
    )


def run_one(config: ExperimentConfig, rep: int, name: str) -> tuple[tuple, Optional[RunRecord]]:
    """Run algorithm ``name`` ("paim" or "ipc") on replication ``rep``.

    Returns the run's :func:`summary_row`, and its record for replication
    0 only (None otherwise), so a worker sends back little more than the
    row. The target is rebuilt here, since a worker process cannot be sent
    one. A failure that the config caused is raised as a ConfigError.
    """
    target = make_target(config.target_name, config.target_params)
    runner = {"paim": run_paim, "ipc": run_ipc}[name]
    try:
        # An overflow would turn the moments into inf and NaN, and the
        # refresh would then blame epsilon for a NaN pivot.
        with np.errstate(over="raise"):
            record = runner(replication_config(config, rep), target)
    except FloatingPointError as exc:
        width = float(np.max(config.box_upper - config.box_lower))
        raise ConfigError(
            f"initialization box width {width:g} and init.sigma {config.sigma:g} are too large "
            f"for the target's scale: the run overflowed a double ({exc})"
        ) from exc
    except NotPositiveDefinite as exc:
        # The initial and target covariances were checked before the run,
        # so the one that failed is a refreshed proposal's. Its ridge
        # epsilon is absolute, and cannot lift a pivot that the rounding
        # error of the states' second moments, ~ eps * scale**2, pushed
        # below zero: name that scale next to epsilon.
        width = float(np.max(config.box_upper - config.box_lower))
        scale = max(width, config.sigma)
        rounding = np.finfo(float).eps * scale * scale
        raise ConfigError(
            f"sampler.epsilon {config.epsilon:g} did not keep a refreshed proposal positive definite: {exc}; "
            f"at the initialization scale (box width {width:g}, init.sigma {config.sigma:g}) the states' "
            f"second moments carry rounding errors of ~{rounding:.1e}, "
            f"{'more' if rounding >= config.epsilon else 'less'} than epsilon"
        ) from exc
    return summary_row(record), (record if rep == 0 else None)


def usable_workers(workers: Optional[int] = None) -> int:
    """``workers``, checked, or by default every CPU this process may use.
    A value outside 1 to the usable CPUs is a ConfigError."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers is None:
        return cpus
    if isinstance(workers, bool) or not isinstance(workers, int) or not 1 <= workers <= cpus:
        raise ConfigError(f"workers must be an integer from 1 to the {cpus} usable CPUs, got {workers!r}")
    return workers


def run_all(config: ExperimentConfig, runs: list, workers: int) -> list:
    """``[run_one(config, rep, name) for rep, name in runs]``, with up to
    ``workers`` runs at once.

    This process is one of the workers: it hands every run but the first
    to a pool of ``workers - 1`` forked processes, makes the first, and
    then makes, in order, each run that no pool process has started yet
    (its future cancels). So a study of two runs forks one process, and
    the pool's start-up cost is paid once per call, whatever R is.

    ``fork`` gives each worker the parent's imported modules, numpy among
    them, at no import cost. The pool forks all its workers when it
    starts, before it starts its own thread; the only other threads paim
    starts are those of numpy's OpenBLAS, which stops them before a fork.
    The pool is shut down on return or on a failure, cancelling the runs
    not yet started, so no worker outlives this call. Its modules are
    imported here, so that ``import paim`` does not pay for them.
    """
    if workers == 1:
        return [run_one(config, rep, name) for rep, name in runs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [None] + [pool.submit(run_one, config, rep, name) for rep, name in runs[1:]]
        here = {}
        for i, ((rep, name), future) in enumerate(zip(runs, futures)):
            if future is None or future.cancel():  # no worker has started it
                here[i] = run_one(config, rep, name)
        return [here[i] if i in here else future.result() for i, future in enumerate(futures)]
    finally:
        pool.shutdown(cancel_futures=True)


def replicate(config: ExperimentConfig, workers: Optional[int] = None) -> SummaryReport:
    """Run R seeded replications of the requested algorithm(s).

        replicate(config)             # every usable CPU, at most one per run
        replicate(config, workers=1)  # one run after another, in this process

    Within a replication the adaptive and baseline samplers run the
    same :class:`PaimConfig` (:func:`replication_config`), so they share
    the initialization draw and the sampling seed, and the only thing
    separating them is the adaptation itself. Each (replication,
    algorithm) run depends on nothing else, so up to ``workers`` of them
    run at once, this process and ``workers - 1`` forked ones
    (:func:`usable_workers`, :func:`run_all`). The runs are folded into
    the report in (replication, algorithm) order, so it is the same for
    every ``workers``. Each run comes back as its summary row; only the
    first replication's full records come back too, kept on the report
    (``records``) for file emission, so memory does not grow with R.
    """
    names = ("paim", "ipc") if config.algorithm == "both" else (config.algorithm,)
    runs = [(rep, name) for rep in range(config.replications) for name in names]
    # Without fork, a pool would re-import paim in every worker: run here.
    workers = min(usable_workers(workers), len(runs) if hasattr(os, "fork") else 1)
    target = make_target(config.target_name, config.target_params)
    truth = resolve_truth(config, target)
    summaries = {name: AlgorithmSummary() for name in names}
    records: dict[str, RunRecord] = {}

    for (_, name), (row, record) in zip(runs, run_all(config, runs, workers)):
        summaries[name].add(row)
        if record is not None:
            records[name] = record

    for summary in summaries.values():
        summary.mse = mean_square_error(summary.estimates, truth)
    report = SummaryReport(
        algorithm=config.algorithm,
        target_name=config.target_name,
        replications=config.replications,
        truth=[float(v) for v in truth],
        records=records,
        **summaries,
    )
    if report.paim is not None and report.ipc is not None and report.ipc.mse > 0.0:
        report.reduction_pct = 100.0 * (report.ipc.mse - report.paim.mse) / report.ipc.mse
    return report


# ----------------------------- file outputs -----------------------------

# 17 significant digits write every double so that it reads back exactly.
FLOAT_FORMAT = "%.17g"

# Rows formatted per string operation; bounds the memory of one block's
# text and temporaries.
ROWS_PER_BLOCK = 1024


def _fmt(value: float) -> str:
    return FLOAT_FORMAT % value


def _write_samples(fh, record: RunRecord) -> None:
    """Write samples.csv's rows, ``ROWS_PER_BLOCK`` rows per string operation.

    Independence MH repeats a state on every rejection, so a block holds
    few distinct coordinates. Each is formatted once with ``FLOAT_FORMAT``,
    found by ``np.unique`` over the block's int64 bit patterns (which keeps
    ``-0.0`` apart from ``0.0``), and the rows take the text through ``%s``
    fields. Only one block's columns and text exist at a time. On the
    20,000-row PAIM record of the three-mode mixture run at ``t_stop`` 20
    this took 22 ms, against 45 ms for ``%.17g`` per coordinate (medians of
    15, 2-core Intel Xeon).
    """
    m, dim = record.samples.shape
    row_format = "%d,%d,%d," + "%s," * dim + "%d\n"
    for start in range(0, m, ROWS_PER_BLOCK):
        stop = min(start + ROWS_PER_BLOCK, m)
        bits = np.ascontiguousarray(record.samples[start:stop]).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        text = (",".join([FLOAT_FORMAT] * distinct.size) % tuple(distinct.view(np.float64).tolist())).split(",")
        coords = np.array(text, dtype=object)[inverse.reshape(bits.shape)]
        columns = (record.sample_step[start:stop].tolist(), record.sample_chain[start:stop].tolist(),
                   record.sample_iteration[start:stop].tolist(), *coords.T.tolist(),
                   record.sample_accepted[start:stop].astype(np.uint8).tolist())
        fh.write((row_format * (stop - start)) % tuple(chain.from_iterable(zip(*columns))))


def _write_activity(fh, record: RunRecord) -> None:
    """Write activity.csv's rows, one (step, chain, active) row each.

    The active set stays the same over long runs of steps (from ``t_stop``
    on it never changes), so each run of equal rows of ``record.activity``
    builds the text of one step once, with the step number left as the
    separator of ``str.join``. Steps are written in blocks of about
    ``ROWS_PER_BLOCK`` rows. On the 99,520 rows of the same record this took
    4 ms, against 52 ms for three ``%d`` per row.
    """
    activity = record.activity
    t_total, n = activity.shape
    changes = np.flatnonzero(np.any(activity[1:] != activity[:-1], axis=1)) + 1
    bounds = [0, *changes.tolist(), t_total]
    steps_per_block = max(1, ROWS_PER_BLOCK // n)
    for first, end in zip(bounds[:-1], bounds[1:]):
        pieces = [""] + [",%d,%d\n" % row for row in enumerate(activity[first].tolist())]
        for start in range(first, end, steps_per_block):
            fh.write("".join([str(t).join(pieces) for t in range(start, min(start + steps_per_block, end))]))


def emit_outputs(record: RunRecord, report: Optional[SummaryReport], out_dir: str) -> list[str]:
    """Write one run's data files into ``out_dir``; returns the paths.

    samples.csv   one row per recorded sample
    activity.csv  one row per (step, chain) with the active flag
    params.json   final proposal parameters per chain plus the shared fit
    summary.json  the aggregated report (skipped when report is None)
    ellipses.csv  90%-mass ellipses of the final active chains

    The two CSV writers cost per distinct value, not per row:
    ``_write_samples`` formats each distinct coordinate of a block once,
    and ``_write_activity`` builds one row template per run of equal
    active sets.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "samples.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        coords = ",".join(f"x_{i + 1}" for i in range(record.dim))
        fh.write(f"t,chain,k_n,{coords},accepted\n")
        _write_samples(fh, record)
    written.append(path)

    path = os.path.join(out_dir, "activity.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,chain,active\n")
        _write_activity(fh, record)
    written.append(path)

    path = os.path.join(out_dir, "params.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_params_payload(record), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)

    if report is not None:
        path = os.path.join(out_dir, "summary.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)

    path = os.path.join(out_dir, "ellipses.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_ellipses_csv(record))
    written.append(path)

    return written


def _params_payload(record: RunRecord) -> dict:
    def comp(j: int, c: int) -> dict:
        return {"mean": record.proposal_means[j, c].tolist(), "cov": record.proposal_covs[j, c].tolist()}

    return {
        "chains": [
            {
                "index": j,
                "active": bool(record.activity[-1, j]),
                "global": comp(j, 0),
                "local": comp(j, 1),
            }
            for j in range(record.proposal_means.shape[0])
        ],
        "shared": None
        if record.global_mean is None
        else {"mean": record.global_mean.tolist(), "cov": record.global_cov.tolist()},
    }


def ellipse_radius(dim: int, mass: float = ELLIPSE_MASS) -> float:
    """Mahalanobis radius of the ellipsoid holding ``mass`` probability:
    the square root of the chi-square(dim) quantile at ``mass``."""
    # Imported here, not at the top: scipy costs more start-up time and
    # memory than the rest of paim, and only file output needs it.
    from scipy.special import gammaincinv

    return float(np.sqrt(2.0 * gammaincinv(dim / 2.0, mass)))


def _ellipses_csv(record: RunRecord) -> str:
    dim = record.dim
    radius = ellipse_radius(dim)
    mean_cols = ",".join(f"mean_{i + 1}" for i in range(dim))
    cov_cols = ",".join(f"cov_{i + 1}_{j + 1}" for i in range(dim) for j in range(dim))
    lines = [f"chain,component,{mean_cols},{cov_cols},radius"]

    def row(chain: int, component: str, mean, cov) -> str:
        vals = [_fmt(v) for v in mean] + [_fmt(v) for v in np.asarray(cov).ravel()]
        return f"{chain},{component}," + ",".join(vals) + f",{_fmt(radius)}"

    for j in np.flatnonzero(record.activity[-1]).tolist():
        lines.append(row(j, "local", record.proposal_means[j, 1], record.proposal_covs[j, 1]))
    if record.global_mean is not None:
        lines.append(row(-1, "global", record.global_mean, record.global_cov))
    return "\n".join(lines) + "\n"
