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
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Union

import numpy as np
from scipy.stats import chi2

from .gaussian import NotPositiveDefinite
from .moments import mean_square_error
from .sampler import PaimConfig, RunRecord, run_ipc, run_paim
from .targets import (
    BananaParams,
    TargetDensity,
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
            mean = np.asarray(params["mean"], dtype=float)
            if "cov" in params:
                cov = np.asarray(params["cov"], dtype=float)
            else:
                cov = float(params.get("sigma", 1.0)) ** 2 * np.eye(mean.size)
            return make_gaussian_target(mean, cov)
        if name == "gaussian_mixture":
            return make_gaussian_mixture_target(
                params["means"], params["covs"], params.get("weights")
            )
    except (KeyError, TypeError, ValueError, NotPositiveDefinite) as exc:
        raise ConfigError(f"bad parameters for target {name!r}: {exc}") from exc
    raise ConfigError(f"unknown target {name!r} (expected banana, gaussian, or gaussian_mixture)")


# ----------------------------- initialization -----------------------------

@dataclass(frozen=True)
class InitSpec:
    """Random initialization for one run: component means, start states,
    and the shared initial standard deviation."""

    means: np.ndarray   # (n_chains, 2, dim)
    states: np.ndarray  # (n_chains, dim)
    sigma: float


def random_init(n_chains, box_lower, box_upper, sigma, rng) -> InitSpec:
    """Draw all component means and start states uniformly in a box."""
    lower = np.asarray(box_lower, dtype=float)
    upper = np.asarray(box_upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("box bounds must be 1-D vectors of equal length")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("initialization box bounds must be finite")
    if not np.all(lower < upper):
        raise ValueError("initialization box is degenerate (lower >= upper somewhere)")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    dim = lower.shape[0]
    means = rng.uniform(lower, upper, size=(n_chains, 2, dim))
    states = rng.uniform(lower, upper, size=(n_chains, dim))
    return InitSpec(means=means, states=states, sigma=float(sigma))


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
    "sampler": ("n_chains", "total_samples", "t_train", "t_stop", "epsilon", "activation_rule"),
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
    t_stop: float = math.inf
    epsilon: float = 0.4
    activation_rule: str = "floor"
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
            t_stop = sampler.get("t_stop", None)
            return cls(
                algorithm=raw.get("algorithm", "both"),
                target_name=target["name"],
                target_params=target.get("params"),
                n_chains=int(sampler["n_chains"]),
                total_samples=int(sampler["total_samples"]),
                t_train=int(sampler["t_train"]),
                t_stop=math.inf if t_stop is None else float(t_stop),
                epsilon=float(sampler.get("epsilon", 0.4)),
                activation_rule=sampler.get("activation_rule", "floor"),
                box_lower=init["box_lower"],
                box_upper=init["box_upper"],
                sigma=float(init["sigma"]),
                replications=int(raw.get("replications", 1)),
                base_seed=int(raw.get("base_seed", 0)),
                output_dir=raw.get("output_dir", "out"),
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


def _parse_truth(raw) -> Union[np.ndarray, GridSpec, str, None]:
    if raw is None or raw == "grid":
        return raw
    if isinstance(raw, dict) and "grid" in raw:
        g = raw["grid"]
        return GridSpec(
            lower=np.asarray(g["lower"], dtype=float),
            upper=np.asarray(g["upper"], dtype=float),
            points_per_axis=int(g["points_per_axis"]),
        )
    return np.asarray(raw, dtype=float)


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
    mse: float
    estimates: list            # per-replication E[X] estimates
    budgets: list              # per-replication K_n vectors
    t_total: list
    acceptance_rates: list
    final_active: list


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
            return None if s is None else {
                "mse": s.mse,
                "estimates": s.estimates,
                "budgets": s.budgets,
                "t_total": s.t_total,
                "acceptance_rates": s.acceptance_rates,
                "final_active": s.final_active,
            }

        return {
            "algorithm": self.algorithm,
            "target": self.target_name,
            "replications": self.replications,
            "truth": self.truth,
            "paim": algo(self.paim),
            "ipc": algo(self.ipc),
            "reduction_pct": self.reduction_pct,
        }


def _summarize(records: list[RunRecord], truth) -> AlgorithmSummary:
    # The E[X] estimate of a run is the mean of its recorded samples.
    estimates = [r.samples.mean(axis=0) for r in records]
    return AlgorithmSummary(
        mse=mean_square_error(estimates, truth),
        estimates=[[float(v) for v in e] for e in estimates],
        budgets=[[int(k) for k in r.budgets] for r in records],
        t_total=[r.t_total for r in records],
        acceptance_rates=[r.acceptance_rate for r in records],
        final_active=[r.final_active_count for r in records],
    )


def replicate(config: ExperimentConfig) -> SummaryReport:
    """Run R seeded replications of the requested algorithm(s).

    Within a replication the adaptive and baseline samplers run the
    same :class:`PaimConfig`, so they share the initialization draw and
    the sampling seed, and the only thing separating them is the
    adaptation itself. The first replication's full records are kept on
    the report (``records``) for file emission.
    """
    target = make_target(config.target_name, config.target_params)
    truth = resolve_truth(config, target)
    runners = {"paim": run_paim, "ipc": run_ipc}
    if config.algorithm != "both":
        runners = {config.algorithm: runners[config.algorithm]}
    records: dict[str, list[RunRecord]] = {name: [] for name in runners}

    for rep_ss in np.random.SeedSequence(config.base_seed).spawn(config.replications):
        init_ss, sample_ss = rep_ss.spawn(2)
        init = random_init(
            config.n_chains, config.box_lower, config.box_upper, config.sigma,
            np.random.default_rng(init_ss),
        )
        run_config = PaimConfig(
            n_chains=config.n_chains,
            total_samples=config.total_samples,
            t_train=config.t_train,
            t_stop=config.t_stop,
            epsilon=config.epsilon,
            activation_rule=config.activation_rule,
            init_means=init.means,
            init_states=init.states,
            init_sigma=init.sigma,
            seed=int(sample_ss.generate_state(1, dtype=np.uint64)[0]),
        )
        for name, runner in runners.items():
            records[name].append(runner(run_config, target))

    report = SummaryReport(
        algorithm=config.algorithm,
        target_name=config.target_name,
        replications=config.replications,
        truth=[float(v) for v in truth],
        records={name: runs[0] for name, runs in records.items()},
        **{name: _summarize(runs, truth) for name, runs in records.items()},
    )
    if report.paim is not None and report.ipc is not None and report.ipc.mse > 0.0:
        report.reduction_pct = 100.0 * (report.ipc.mse - report.paim.mse) / report.ipc.mse
    return report


# ----------------------------- file outputs -----------------------------

# 17 significant digits write every double so that it reads back exactly.
FLOAT_FORMAT = "%.17g"

# Rows formatted per string operation in _write_rows; bounds the memory
# of one block's text.
ROWS_PER_BLOCK = 1024


def _fmt(value: float) -> str:
    return FLOAT_FORMAT % value


def _write_rows(fh, row_format: str, n_rows: int, columns) -> None:
    """Write ``n_rows`` lines, one per row of a table given by columns.

    ``columns(start, stop)`` returns the 1-D columns of rows ``start`` to
    ``stop - 1``; ``row_format`` is a %-format for one line (newline
    included) with one field per column. Whole blocks of rows are
    formatted by one string operation, not one per row, and only one
    block's columns exist at a time.
    """
    for start in range(0, n_rows, ROWS_PER_BLOCK):
        block = [column.tolist() for column in columns(start, min(start + ROWS_PER_BLOCK, n_rows))]
        fh.write((row_format * len(block[0])) % tuple(chain.from_iterable(zip(*block))))


def emit_outputs(record: RunRecord, report: Optional[SummaryReport], out_dir: str) -> list[str]:
    """Write one run's data files into ``out_dir``; returns the paths.

    samples.csv   one row per recorded sample
    activity.csv  one row per (step, chain) with the active flag
    params.json   final proposal parameters per chain plus the shared fit
    summary.json  the aggregated report (skipped when report is None)
    ellipses.csv  90%-mass ellipses of the final active chains
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    dim = record.dim
    path = os.path.join(out_dir, "samples.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        coords = ",".join(f"x_{i + 1}" for i in range(dim))
        fh.write(f"t,chain,k_n,{coords},accepted\n")
        columns = (record.sample_step, record.sample_chain, record.sample_iteration, *record.samples.T,
                   record.sample_accepted)
        _write_rows(
            fh,
            "%d,%d,%d," + ",".join([FLOAT_FORMAT] * dim) + ",%d\n",
            record.samples.shape[0],
            lambda start, stop: [column[start:stop] for column in columns],
        )
    written.append(path)

    path = os.path.join(out_dir, "activity.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,chain,active\n")
        active = record.activity.ravel()

        def activity_columns(start, stop):
            index = np.arange(start, stop)
            return [index // record.n_chains, index % record.n_chains, active[start:stop]]

        _write_rows(fh, "%d,%d,%d\n", active.size, activity_columns)
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
    """Mahalanobis radius of the ellipsoid holding ``mass`` probability."""
    return float(np.sqrt(chi2.ppf(mass, df=dim)))


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
