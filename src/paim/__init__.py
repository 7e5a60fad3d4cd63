"""Parallel adaptive independence-Metropolis (PAIM) sampling.

Interacting parallel MCMC chains with two-component Gaussian mixture
proposals that are adapted cooperatively from the pooled and clustered
sample history, plus a per-chain effort schedule that suspends and
revives chains by how many recent states landed near them. A frozen
fixed-proposal baseline and a replicated-experiment harness are
included for benchmarking.
"""

from .gaussian import (
    CholeskyFactor,
    NotPositiveDefinite,
    cholesky,
    log_gaussian_pdf,
    regularize,
    sample_gaussian,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    InitSpec,
    SummaryReport,
    emit_outputs,
    make_target,
    random_init,
    replicate,
    resolve_truth,
    sample_mean_estimate,
)
from .moments import RunningMoments, mean_square_error
from .sampler import (
    ChainEnsemble,
    GaussianComponent,
    MixtureProposal,
    PaimConfig,
    RunRecord,
    SchedulerState,
    activation,
    assign,
    log_accept_ratio,
    make_component,
    mixture_log_pdf,
    refreshed_proposals,
    run_ipc,
    run_paim,
    sample_mixture,
)
from .targets import (
    AllZeroMass,
    BananaParams,
    TargetDensity,
    grid_expectation,
    log_banana,
    make_banana_target,
    make_gaussian_mixture_target,
    make_gaussian_target,
)

__all__ = [
    "AllZeroMass",
    "BananaParams",
    "ChainEnsemble",
    "CholeskyFactor",
    "ConfigError",
    "ExperimentConfig",
    "GaussianComponent",
    "GridSpec",
    "InitSpec",
    "MixtureProposal",
    "NotPositiveDefinite",
    "PaimConfig",
    "RunRecord",
    "RunningMoments",
    "SchedulerState",
    "SummaryReport",
    "TargetDensity",
    "activation",
    "assign",
    "cholesky",
    "emit_outputs",
    "grid_expectation",
    "log_accept_ratio",
    "log_banana",
    "log_gaussian_pdf",
    "make_banana_target",
    "make_component",
    "make_gaussian_mixture_target",
    "make_gaussian_target",
    "make_target",
    "mean_square_error",
    "mixture_log_pdf",
    "random_init",
    "refreshed_proposals",
    "regularize",
    "replicate",
    "resolve_truth",
    "run_ipc",
    "run_paim",
    "sample_gaussian",
    "sample_mean_estimate",
    "sample_mixture",
]

__version__ = "0.1.0"
