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
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import chain, cycle
from typing import Iterable, Optional, Union

import numpy as np

from .gaussian import NotPositiveDefinite, check_sigma
from .moments import mean_square_error
from .sampler import PaimConfig, RunRecord, RunSettings, run_ipc, run_paim
from .targets import (
    MAX_DOUBLES,
    BananaParams,
    TargetDensity,
    check_box,
    check_points,
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
    params = _params(params, "target.params") or {}
    try:
        if name == "banana":
            _check_fields(params, ("b", "eta1", "eta2", "eta3"), "target.params.")
            return make_banana_target(BananaParams(**params))
        if name == "gaussian":
            _check_fields(params, ("mean", "cov", "sigma"), "target.params.", required=("mean",))
            if "cov" in params and "sigma" in params:
                raise ValueError("give target.params.cov or target.params.sigma, not both")
            mean = _numbers(params["mean"], "target.params.mean")
            if "cov" in params:
                cov = _numbers(params["cov"], "target.params.cov")
            else:
                sigma = _number(params.get("sigma", 1.0), "target.params.sigma")
                check_sigma("sigma", sigma)
                cov = sigma * sigma * np.eye(mean.size)
            return make_gaussian_target(mean, cov)
        if name == "gaussian_mixture":
            _check_fields(params, ("means", "covs", "weights"), "target.params.", required=("means", "covs"))
            weights = params.get("weights")
            return make_gaussian_mixture_target(
                _numbers(params["means"], "target.params.means"),
                _numbers(params["covs"], "target.params.covs"),
                None if weights is None else _numbers(weights, "target.params.weights"),
            )
    except (TypeError, ValueError) as exc:
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


def default_grid(dim: int) -> GridSpec:
    """The oracle's grid when none is given: -15 to 15 on every axis, with
    2001 points per axis up to 2-D and 201 in 3-D, where 2001 would score
    2001 times as many points as the whole 2-D grid."""
    return GridSpec(np.full(dim, -15.0), np.full(dim, 15.0), 2001 if dim <= 2 else 201)


def _check_fields(values: dict, known, path: str, required=()) -> None:
    # A misspelt key would otherwise be ignored, its default silently used.
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise ConfigError(f"unknown config field: {path}{unknown[0]}")
    missing = [key for key in required if key not in values]
    if missing:
        raise ConfigError(f"missing config field: {path}{missing[0]}")


def _integer(value, name: str) -> int:
    # int() would truncate 2.7 and accept true, running a wrong but
    # plausible study. A numpy integer is stored as an int, which JSON
    # can write.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"bad config value: {name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    # float() would accept true and "30".
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"bad config value: {name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _beyond_a_double(name) from None


def _beyond_a_double(name: str) -> ConfigError:
    # float() and np.asarray(..., dtype=float) raise OverflowError for such an integer.
    return ConfigError(f"bad config value: {name} must be within the range of a double, got an integer beyond it")


def _numbers(value, name: str) -> np.ndarray:
    # np.asarray(..., dtype=float) would accept ["1", false]. A numeric
    # array passes, so that checking a checked config changes nothing.
    def numeric(v) -> bool:
        if isinstance(v, list):
            return all(map(numeric, v))
        if isinstance(v, np.ndarray):
            return v.dtype.kind in "iuf"
        return not isinstance(v, bool) and isinstance(v, (int, float))

    if not numeric(value):
        raise ConfigError(f"bad config value: {name} must be a number or a list of numbers, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # lists of unequal lengths
        raise ConfigError(f"bad config value: {name} must not be a ragged list, got {value!r}") from None
    except OverflowError:
        raise _beyond_a_double(name) from None


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"bad config value: {name} must be a string, got {value!r}")
    return value


def _algorithm(value, name: str) -> str:
    if not (isinstance(value, str) and value in ("paim", "ipc", "both")):
        raise ConfigError(f"unknown algorithm {value!r} (expected paim, ipc, or both)")
    return value


def _params(value, name: str) -> Optional[dict]:
    # Worded as for the oracle's --params, which has no config path.
    if value is not None and not isinstance(value, dict):
        raise ConfigError("target params must be a JSON object")
    return value


def _truth(value, name: str) -> Union[np.ndarray, GridSpec, str, None]:
    if value is None or isinstance(value, str) and value == "grid":
        return value
    if isinstance(value, dict):  # {"grid": {...}}, as a config file gives a GridSpec
        _check_fields(value, ("grid",), f"{name}.", required=("grid",))
        grid = value["grid"]
        if not isinstance(grid, dict):
            raise ConfigError(f"bad config value: {name}.grid must be a JSON object, got {grid!r}")
        keys = [f.name for f in fields(GridSpec)]
        _check_fields(grid, keys, f"{name}.grid.", required=keys)
        value = GridSpec(**grid)
    if isinstance(value, GridSpec):
        points = _integer(value.points_per_axis, f"{name}.grid.points_per_axis")
        try:
            check_points(f"{name}.grid.points_per_axis", points)
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        return GridSpec(
            lower=_numbers(value.lower, f"{name}.grid.lower"),
            upper=_numbers(value.upper, f"{name}.grid.upper"),
            points_per_axis=points,
        )
    return _numbers(value, name)


# Each key of a config file, by its path, and the ExperimentConfig field
# that it fills, with that field's check: check(value, path) returns the
# value as the field holds it, or raises a ConfigError naming the path.
CONFIG_KEYS = {
    "algorithm": ("algorithm", _algorithm),
    "target.name": ("target_name", _string),
    "target.params": ("target_params", _params),
    "sampler.n_chains": ("n_chains", _integer),
    "sampler.total_samples": ("total_samples", _integer),
    "sampler.t_train": ("t_train", _integer),
    "sampler.t_stop": ("t_stop", _number),
    "sampler.epsilon": ("epsilon", _number),
    "init.box_lower": ("box_lower", _numbers),
    "init.box_upper": ("box_upper", _numbers),
    "init.sigma": ("sigma", _number),
    "replications": ("replications", _integer),
    "base_seed": ("base_seed", _integer),
    "output_dir": ("output_dir", _string),
    "truth": ("truth", _truth),
}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(RunSettings):
    """One study's settings, read from a config file or built directly.

    A config file (``paim run --config FILE``, :meth:`load`) holds one
    JSON object, such as::

        {
          "algorithm": "both",
          "target": {"name": "banana"},
          "sampler": {"n_chains": 10, "total_samples": 2000, "t_train": 10, "t_stop": null},
          "init": {"box_lower": [-15, -15], "box_upper": [15, 15], "sigma": 10},
          "replications": 20,
          "truth": "grid"
        }

    :data:`CONFIG_KEYS` names the field that each key fills. The keys of
    the fields without a default are required: ``target.name``,
    ``sampler.n_chains``, ``sampler.total_samples``, ``sampler.t_train``,
    ``init.box_lower``, ``init.box_upper`` and ``init.sigma``; any other
    key may be left out, and a key not in the table is an error.
    ``"t_stop": null``, like leaving it out, means never stop adapting.
    ``truth``, the E[X] the MSEs are measured against, is a vector,
    ``"grid"`` for the grid oracle on :func:`default_grid`, ``{"grid":
    {"lower": [...], "upper": [...], "points_per_axis": P}}`` for the
    oracle on that grid (a :class:`GridSpec` when built directly), or
    absent, which :func:`replicate` rejects.

    The sampler settings and their checks are declared on
    :class:`~paim.sampler.RunSettings`. A config file, a direct build and
    ``dataclasses.replace`` go through the same checks, and a built
    config is immutable: ``dataclasses.replace`` derives a changed one.
    """

    algorithm: str = "both"         # "paim", "ipc", or "both"
    target_name: str
    target_params: Optional[dict] = None
    box_lower: np.ndarray
    box_upper: np.ndarray
    replications: int = 1
    base_seed: int = 0
    output_dir: str = "out"
    truth: Union[np.ndarray, GridSpec, str, None] = None  # "grid": the default grid box

    def __post_init__(self):
        for path, (name, check) in CONFIG_KEYS.items():
            object.__setattr__(self, name, check(getattr(self, name), path))
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative, got {self.base_seed}")
        # Checked once per study, before the grid oracle runs.
        try:
            check_box("initialization box", self.box_lower, self.box_upper)
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        dim = self.box_lower.size
        if self.total_samples * dim > MAX_DOUBLES:  # numpy could not even try to allocate the samples
            raise ConfigError(f"bad config value: sampler.total_samples must be at most {MAX_DOUBLES // dim}, "
                              f"the most {dim}-D samples one array can hold, got {self.total_samples}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build the config of a config file's object. An unknown key is an
        error, so a misspelt or retired field cannot be silently ignored. A
        missing key is named by its path, such as ``sampler.n_chains``, or
        by its section's name if the section is missing too."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        values = {}  # by path
        for key, value in raw.items():
            if any(path.startswith(f"{key}.") for path in CONFIG_KEYS):
                if not isinstance(value, dict):
                    raise ConfigError(f"config field {key} must be a JSON object")
                values.update((f"{key}.{k}", v) for k, v in value.items())
            else:
                values[key] = value
        _check_fields(values, CONFIG_KEYS, "")
        required = {f.name for f in fields(cls) if f.default is MISSING}
        for path, (name, _) in CONFIG_KEYS.items():
            section = path.partition(".")[0]
            if name in required and path not in values:
                raise ConfigError(f"missing config field: {path if section in raw else section}")
        kwargs = {CONFIG_KEYS[path][0]: value for path, value in values.items()}
        if "t_stop" in kwargs and kwargs["t_stop"] is None:  # null: never stop adapting
            kwargs["t_stop"] = math.inf
        return cls(**kwargs)

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


def resolve_truth(config: ExperimentConfig, target: TargetDensity) -> np.ndarray:
    """Ground-truth E[X] as a vector, running the grid oracle if asked."""
    truth = config.truth
    if truth is None:
        raise ConfigError("no ground truth: give a truth vector or a grid directive")
    if isinstance(truth, str) and truth == "grid":
        truth = default_grid(target.dim)
    if isinstance(truth, GridSpec):
        return grid_expectation(target, truth.lower, truth.upper, truth.points_per_axis)
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (target.dim,):
        raise ConfigError(f"truth vector must have shape ({target.dim},), got {truth.shape}")
    return truth


# ----------------------------- replication -----------------------------

@dataclass
class AlgorithmSummary:
    """One algorithm's results over R replications: the MSE of its E[X]
    estimates against the truth, and per replication, in order, the values
    of that run's :func:`summary_row` under each other field's name."""

    mse: float
    estimates: list  # E[X] estimates
    budgets: list    # K_n vectors
    t_total: list
    acceptance_rates: list
    final_active: list


def summary_row(record: RunRecord) -> dict:
    """One run's entries of :class:`AlgorithmSummary`, keyed by its field
    names. The E[X] estimate of a run is the mean of its recorded samples."""
    return {
        "estimates": [float(v) for v in record.samples.mean(axis=0)],
        "budgets": [int(k) for k in record.budgets],
        "t_total": record.t_total,
        "acceptance_rates": record.acceptance_rate,
        "final_active": record.final_active_count,
    }


@dataclass
class SummaryReport:
    algorithm: str
    target_name: str
    replications: int
    truth: list
    paim: Optional[AlgorithmSummary] = None
    ipc: Optional[AlgorithmSummary] = None
    records: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def reduction_pct(self) -> Optional[float]:
        """PAIM's MSE below IPC's, in percent of IPC's; None unless both ran and IPC's is positive."""
        if self.paim is None or self.ipc is None or not self.ipc.mse > 0.0:
            return None
        return 100.0 * (self.ipc.mse - self.paim.mse) / self.ipc.mse

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
        **{f.name: getattr(config, f.name) for f in fields(RunSettings)},
        init_means=init_means,
        init_states=init_states,
        seed=int(sample_ss.generate_state(1, dtype=np.uint64)[0]),
    )


def run_one(
    config: ExperimentConfig, rep: int, name: str, out_dir: Optional[str] = None
) -> tuple[dict, Optional[RunRecord]]:
    """Run algorithm ``name`` ("paim" or "ipc") on replication ``rep``.

    Returns the run's :func:`summary_row` and, for replication 0 without
    ``out_dir`` only (None otherwise), its record. Given ``out_dir``,
    replication 0's run writes its files into it instead, in the process
    that made it (:func:`emit_outputs`). So a pool process sends back
    little more than the row. The target is rebuilt here, since a pool
    process cannot be sent one. A failure that the config caused is raised
    as a ConfigError.
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
    if rep == 0 and out_dir is not None:
        emit_outputs(record, out_dir)
    return summary_row(record), (record if rep == 0 and out_dir is None else None)


def usable_workers(workers: Optional[int] = None) -> int:
    """``workers``, checked, or by default every CPU this process may use.
    A value outside 1 to the usable CPUs is a ConfigError."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers is None:
        return cpus
    if isinstance(workers, bool) or not isinstance(workers, int) or not 1 <= workers <= cpus:
        raise ConfigError(f"workers must be an integer from 1 to the {cpus} usable CPUs, got {workers!r}")
    return workers


def run_all(
    config: ExperimentConfig, runs: Iterable[tuple[int, str]], workers: int, out_dirs: Optional[dict] = None
) -> list:
    """``[run_one(config, rep, name, out_dirs.get(name)) for rep, name in
    runs]``, with up to ``workers`` runs at once. ``out_dirs`` maps an
    algorithm to the directory of its files; without it no run writes any.

    With one worker the runs are made one after another, in this process.
    Otherwise a pool of ``workers`` forked processes makes every run, and
    this process only hands them out and collects them in order. ``runs``
    is taken lazily, and at most ``2 * workers`` runs are taken and not
    yet collected, so that each pool process has a run queued behind the
    one it makes. So a study of any size starts at once, and the pool's
    start-up cost is paid once per call, whatever R is. Given
    ``out_dirs``, the process that makes a run writes its files, so two
    runs' files are written at once and no record is pickled.

    ``fork`` gives each worker the parent's imported modules, numpy among
    them, at no import cost. The pool forks all its workers when it
    starts, before it starts its own thread; the only other threads paim
    starts are those of numpy's OpenBLAS, which stops them before a fork.
    The pool is shut down on return or on a failure, cancelling the runs
    not yet started and waiting for those started, so no worker outlives
    this call or writes a file after it. Its modules are imported here, so
    that ``import paim`` does not pay for them.
    """
    out_dirs = out_dirs or {}
    runs = ((rep, name, out_dirs.get(name)) for rep, name in runs)
    if workers == 1:
        return [run_one(config, *run) for run in runs]
    import multiprocessing
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        taken, results = deque(), []
        for run in runs:
            taken.append(pool.submit(run_one, config, *run))
            if len(taken) == 2 * workers:
                results.append(taken.popleft().result())
        results.extend(future.result() for future in taken)
        return results
    finally:
        pool.shutdown(cancel_futures=True)


def replicate(
    config: ExperimentConfig, workers: Optional[int] = None, out_dirs: Optional[dict] = None
) -> SummaryReport:
    """Run R seeded replications of the requested algorithm(s).

        replicate(config)             # every usable CPU, at most one per run
        replicate(config, workers=1)  # one run after another, in this process
        replicate(config, out_dirs={"paim": "out/paim", "ipc": "out/ipc"})

    Within a replication the adaptive and baseline samplers run the
    same :class:`PaimConfig` (:func:`replication_config`), so they share
    the initialization draw and the sampling seed, and the only thing
    separating them is the adaptation itself. Each (replication,
    algorithm) run depends on nothing else, so up to ``workers`` of them
    run at once, each in a forked pool process, or all in this process
    when ``workers`` is 1 (:func:`usable_workers`, :func:`run_all`). Each
    run comes back as its named :func:`summary_row`, and each algorithm's
    summary is built whole from its rows in replication order, so the
    report is the same for every ``workers``. Only the first replication's
    full records come back too, kept on the report (``records``) for the
    caller to inspect, so memory does not grow with R.

    Given ``out_dirs``, an algorithm's directory by its name, the first
    replication's runs write their files there instead, each in the
    process that made it (:func:`run_one`), and ``records`` stays empty.
    ``summary.json``, which needs every run, is left to the caller; ``paim
    run`` writes the files into staging directories and moves them into
    place once this returns.
    """
    names = ("paim", "ipc") if config.algorithm == "both" else (config.algorithm,)
    # Without fork, a pool would re-import paim in every worker: run here.
    workers = min(usable_workers(workers), config.replications * len(names) if hasattr(os, "fork") else 1)
    target = make_target(config.target_name, config.target_params)
    if config.box_lower.size != target.dim:  # before a grid oracle runs
        raise ConfigError(f"target dim {target.dim} does not match config dim {config.box_lower.size}, "
                          "the length of init.box_lower")
    truth = resolve_truth(config, target)
    rows: dict[str, list[dict]] = {name: [] for name in names}
    records: dict[str, RunRecord] = {}
    runs = ((rep, name) for rep in range(config.replications) for name in names)
    for name, (row, kept) in zip(cycle(names), run_all(config, runs, workers, out_dirs)):
        rows[name].append(row)
        if kept is not None:
            records[name] = kept
    summaries = {}
    for name, named_rows in rows.items():
        columns = {key: [row[key] for row in named_rows] for key in named_rows[0]}
        summaries[name] = AlgorithmSummary(mse=mean_square_error(columns["estimates"], truth), **columns)
    return SummaryReport(
        algorithm=config.algorithm,
        target_name=config.target_name,
        replications=config.replications,
        truth=[float(v) for v in truth],
        records=records,
        **summaries,
    )


# ----------------------------- file outputs -----------------------------

# 17 significant digits write every double so that it reads back exactly.
FLOAT_FORMAT = "%.17g"

# Rows formatted per string operation; bounds the memory of one block's
# text and temporaries.
ROWS_PER_BLOCK = 1024

# The files of one run's output directory, in the order that paim run lists
# them: emit_outputs writes all but summary.json, in this order.
OUTPUT_FILES = ("samples.csv", "activity.csv", "params.json", "summary.json", "ellipses.csv")


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


def emit_outputs(record: RunRecord, out_dir: str) -> list[str]:
    """Write one run's data files into ``out_dir``; returns the paths.

    samples.csv   one row per recorded sample
    activity.csv  one row per (step, chain) with the active flag
    params.json   final proposal parameters per chain plus the shared fit
    ellipses.csv  90%-mass ellipses of the final active chains

    The two CSV writers cost per distinct value, not per row:
    ``_write_samples`` formats each distinct coordinate of a block once,
    and ``_write_activity`` builds one row template per run of equal
    active sets.

    This is the one writer of a run's files. ``paim run`` calls it in the
    process that made the run (:func:`run_one`), and writes
    ``summary.json``, which needs every run, once the study is done.
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
    write_json(path, _params_payload(record))
    written.append(path)

    path = os.path.join(out_dir, "ellipses.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_ellipses_csv(record))
    written.append(path)

    return written


def write_json(path: str, payload) -> None:
    """Write ``payload`` to ``path`` as every JSON output file is written:
    indented by 2, keys sorted, with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _poisson_term(i: float, y: float) -> float:
    """``exp(-y) * y**i / Gamma(i + 1)``, for ``y > i >= 0``.

    Below i = 30, where y < 64, it is computed as written. Above, exp(-y)
    could underflow and y**i overflow, and the log-gamma form would lose
    ~eps * lgamma(i + 1) to rounding. So it takes Stirling's form: y - i -
    i log(y / i) as ``i * (z - log1p(z))``, z = (y - i) / i, and four terms
    of Stirling's series, which leave out less than 1e-16 there."""
    if i < 30:
        return math.exp(-y) * y**i / math.gamma(i + 1)
    z = (y - i) / i
    i2 = i * i
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * i2)) / i2) / i2) / i
    return math.exp(-i * (z - math.log1p(z)) - stirling) / math.sqrt(2 * math.pi * i)


def _chi_square_tail(dim: int, x: float) -> float:
    """P(X > x) for X ~ chi-square(``dim``), for ``x > dim``.

    With y = x / 2 it is the finite series of the upper regularized gamma
    function at a = dim / 2: the terms ``exp(-y) * y**i / Gamma(i + 1)``
    for i = a - 1, a - 2, ... down to 0 or 1/2, plus ``erfc(sqrt(y))`` for
    an odd ``dim``. Above y = i each term is below the one before it
    (the ratio is i / y), so the sum starts from the largest, no term can
    overflow, and none is ``exp(-y)`` alone at a large y."""
    y, i = x / 2, dim / 2 - 1
    terms = [math.erfc(math.sqrt(y))] if dim % 2 else []
    term = _poisson_term(i, y) if i >= 0 else 0.0
    while i >= 0:
        terms.append(term)
        term *= i / y
        i -= 1
    return math.fsum(terms)


def ellipse_radius(dim: int) -> float:
    """Mahalanobis radius of the ellipsoid holding ``ELLIPSE_MASS``
    probability: the square root of the chi-square(dim) quantile at it.

    The quantile is the largest double x whose upper tail
    :func:`_chi_square_tail` is at least 1 - ``ELLIPSE_MASS``, found by
    bisection over doubles. For dim up to 60 the radius is within 0.9 ulp
    of the exact one (mpmath), and at dim 2 and 4 it equals
    ``sqrt(2 * scipy.special.gammaincinv(dim / 2, 0.9))``. It uses ``math``
    alone: that scipy call was paim's only use of scipy, and importing
    scipy.special cost a run 23 MB of peak memory and 0.2 s (2-core Xeon),
    more than the rest of paim."""
    target = 1.0 - ELLIPSE_MASS
    lo, hi = 0.0, dim + 1.0  # the tail at dim + 1 is above 0.15 for every dim
    while _chi_square_tail(dim, hi) >= target:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            return math.sqrt(lo)
        if _chi_square_tail(dim, mid) >= target:
            lo = mid
        else:
            hi = mid


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
