"""Parallel adaptive independence-Metropolis (PAIM) sampling.

Interacting parallel MCMC chains with two-component Gaussian mixture
proposals that are adapted cooperatively from the pooled and clustered
sample history, plus a per-chain effort schedule that suspends and
revives chains by how many recent states landed near them. A frozen
fixed-proposal baseline and a replicated-experiment harness are
included for benchmarking. The kernels behind them (Cholesky factors,
moment accumulators, the batched MH step) live in the submodules.
"""

from .gaussian import NotPositiveDefinite
from .harness import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    SummaryReport,
    emit_outputs,
    make_target,
    replicate,
    resolve_truth,
)
from .sampler import PaimConfig, PaimRun, RunRecord, run_ipc, run_paim
from .targets import (
    AllZeroMass,
    BananaParams,
    TargetDensity,
    grid_expectation,
    make_banana_target,
    make_gaussian_mixture_target,
    make_gaussian_target,
)

__all__ = [
    "AllZeroMass",
    "BananaParams",
    "ConfigError",
    "ExperimentConfig",
    "GridSpec",
    "NotPositiveDefinite",
    "PaimConfig",
    "PaimRun",
    "RunRecord",
    "SummaryReport",
    "TargetDensity",
    "emit_outputs",
    "grid_expectation",
    "make_banana_target",
    "make_gaussian_mixture_target",
    "make_gaussian_target",
    "make_target",
    "replicate",
    "resolve_truth",
    "run_ipc",
    "run_paim",
]

__version__ = "0.1.0"
