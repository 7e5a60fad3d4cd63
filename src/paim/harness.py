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
from typing import Optional, Union

import numpy as np
from scipy.stats import chi2

from .baseline import IpcConfig, run_ipc
from .gaussian import NotPositiveDefinite
from .moments import mean_square_error
from .sampler import MixtureProposal, PaimConfig, RunRecord, run_paim
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
    """Build a target density from its config-file name."""
    params = dict(params or {})
    try:
        if name == "banana":
            return make_banana_target(BananaParams(**params))
        if name == "gaussian":
            mean = np.asarray(params["mean"], dtype=float)
            if "cov" in params:
                cov = np.asarray(params["cov"], dtype=float)
            else:
                cov = float(params.get("sigma", 1.0)) ** 2 * np.eye(mean.shape[0])
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
    if not np.all(lower < upper):
        raise ValueError("initialization box is degenerate (lower >= upper somewhere)")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
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


@dataclass
class ExperimentConfig:
    algorithm: str                  # "paim", "ipc", or "both"
    target_name: str
    target_params: dict
    n_chains: int
    total_samples: int
    t_train: int
    box_lower: np.ndarray
    box_upper: np.ndarray
    sigma: float
    t_stop: float = math.inf
    epsilon: float = 0.4
    activation_rule: str = "floor"
    discard_burn_in: bool = False
    replications: int = 1
    base_seed: int = 0
    output_dir: str = "out"
    truth: Union[np.ndarray, GridSpec, None] = None

    def __post_init__(self):
        self.box_lower = np.asarray(self.box_lower, dtype=float)
        self.box_upper = np.asarray(self.box_upper, dtype=float)
        if self.algorithm not in ("paim", "ipc", "both"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r} (expected paim, ipc, or both)")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            target = raw["target"]
            sampler = raw["sampler"]
            init = raw["init"]
            t_stop = sampler.get("t_stop", None)
            return cls(
                algorithm=raw.get("algorithm", "both"),
                target_name=target["name"],
                target_params=dict(target.get("params", {})),
                n_chains=int(sampler["n_chains"]),
                total_samples=int(sampler["total_samples"]),
                t_train=int(sampler["t_train"]),
                t_stop=math.inf if t_stop is None else float(t_stop),
                epsilon=float(sampler.get("epsilon", 0.4)),
                activation_rule=sampler.get("activation_rule", "floor"),
                discard_burn_in=bool(sampler.get("discard_burn_in", False)),
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


def _parse_truth(raw) -> Union[np.ndarray, GridSpec, None]:
    if raw is None:
        return None
    if raw == "grid":
        return GridSpec(lower=np.array([]), upper=np.array([]), points_per_axis=0)
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
    if isinstance(truth, GridSpec):
        if truth.points_per_axis == 0:
            lower = np.full(target.dim, -15.0)
            upper = np.full(target.dim, 15.0)
            points = 2001 if target.dim <= 2 else 201
        else:
            lower, upper, points = truth.lower, truth.upper, truth.points_per_axis
        return grid_expectation(target, lower, upper, points)
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (target.dim,):
        raise ConfigError(f"truth vector must have shape ({target.dim},), got {truth.shape}")
    return truth


# ----------------------------- estimation -----------------------------

def sample_mean_estimate(record: RunRecord, discard_burn_in: bool = False) -> np.ndarray:
    """E[X] estimate from one run: the mean of the recorded samples.

    With ``discard_burn_in`` each chain's first ceil(K_n/5) samples are
    dropped from the average (the record itself is untouched).
    """
    if not discard_burn_in:
        return record.samples.mean(axis=0)
    keep = record.sample_iteration > np.ceil(record.budgets[record.sample_chain] / 5)
    if not keep.any():
        return record.samples.mean(axis=0)
    return record.samples[keep].mean(axis=0)


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


def _summarize(records_estimates, truth) -> AlgorithmSummary:
    records, estimates = records_estimates
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

    Within a replication the adaptive and baseline samplers share the
    same initialization draw and the same sampling seed, so the only
    thing separating them is the adaptation itself. The first
    replication's full records are kept on the report (``records``) for
    file emission.
    """
    target = make_target(config.target_name, config.target_params)
    truth = resolve_truth(config, target)
    want_paim = config.algorithm in ("paim", "both")
    want_ipc = config.algorithm in ("ipc", "both")

    paim_runs: tuple[list, list] = ([], [])
    ipc_runs: tuple[list, list] = ([], [])
    first_records: dict[str, RunRecord] = {}

    for rep_ss in np.random.SeedSequence(config.base_seed).spawn(config.replications):
        init_ss, sample_ss = rep_ss.spawn(2)
        init = random_init(
            config.n_chains, config.box_lower, config.box_upper, config.sigma,
            np.random.default_rng(init_ss),
        )
        seed = int(sample_ss.generate_state(1, dtype=np.uint64)[0])

        if want_paim:
            record = run_paim(
                PaimConfig(
                    n_chains=config.n_chains,
                    total_samples=config.total_samples,
                    t_train=config.t_train,
                    t_stop=config.t_stop,
                    epsilon=config.epsilon,
                    activation_rule=config.activation_rule,
                    init_means=init.means,
                    init_states=init.states,
                    init_sigma=init.sigma,
                    seed=seed,
                    discard_burn_in=config.discard_burn_in,
                ),
                target,
            )
            paim_runs[0].append(record)
            paim_runs[1].append(sample_mean_estimate(record, config.discard_burn_in))
            first_records.setdefault("paim", record)
        if want_ipc:
            record = run_ipc(
                IpcConfig(
                    n_chains=config.n_chains,
                    total_samples=config.total_samples,
                    init_means=init.means,
                    init_states=init.states,
                    init_sigma=init.sigma,
                    seed=seed,
                    discard_burn_in=config.discard_burn_in,
                ),
                target,
            )
            ipc_runs[0].append(record)
            ipc_runs[1].append(sample_mean_estimate(record, config.discard_burn_in))
            first_records.setdefault("ipc", record)

    report = SummaryReport(
        algorithm=config.algorithm,
        target_name=config.target_name,
        replications=config.replications,
        truth=[float(v) for v in truth],
        records=first_records,
    )
    if want_paim:
        report.paim = _summarize(paim_runs, truth)
    if want_ipc:
        report.ipc = _summarize(ipc_runs, truth)
    if want_paim and want_ipc and report.ipc.mse > 0.0:
        report.reduction_pct = 100.0 * (report.ipc.mse - report.paim.mse) / report.ipc.mse
    return report


# ----------------------------- file outputs -----------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


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
        for i in range(record.samples.shape[0]):
            xs = ",".join(_fmt(v) for v in record.samples[i])
            fh.write(
                f"{record.sample_step[i]},{record.sample_chain[i]},"
                f"{record.sample_iteration[i]},{xs},{int(record.sample_accepted[i])}\n"
            )
    written.append(path)

    path = os.path.join(out_dir, "activity.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,chain,active\n")
        for t in range(record.t_total):
            for j in range(record.n_chains):
                fh.write(f"{t},{j},{int(record.activity[t, j])}\n")
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
    def comp(c) -> dict:
        return {"mean": c.mean.tolist(), "cov": c.cov.tolist()}

    return {
        "chains": [
            {
                "index": j,
                "active": bool(record.activity[-1, j]),
                "global": comp(p.global_component),
                "local": comp(p.local_component),
            }
            for j, p in enumerate(record.proposals)
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

    for j, p in enumerate(record.proposals):
        if record.activity[-1, j]:
            c = p.local_component
            lines.append(row(j, "local", c.mean, c.cov))
    if record.global_mean is not None:
        lines.append(row(-1, "global", record.global_mean, record.global_cov))
    return "\n".join(lines) + "\n"
